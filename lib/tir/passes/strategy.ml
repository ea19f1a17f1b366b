open Linear_layout

(* {1 Layout-assignment decision sites}

   The Section 4.4 walk makes four kinds of choices.  Each is reified
   as a [site] the moment the pass reaches it: the pass computes the
   candidate set (and the exact estimates the greedy comparison would
   use), asks the state's strategy to commit one index, and proceeds
   with the committed candidate.  The greedy strategy reproduces
   today's engine bit for bit; a search strategy replays a prefix of
   forced choices and completes greedily (see Assign_search). *)

type anchor_site = {
  anchor_at : Program.id;
  anchor_default : Layout.t;
      (* the coalesced blocked default — choice [0], what greedy picks *)
  anchor_alternatives : (Layout.t list * int) Lazy.t;
      (* feasibility-pruned, deduplicated variants (excluding the
         default) paired with the number of candidates pruned; lazy so
         greedy runs never pay for candidate enumeration *)
}

type tie_site = {
  tie_at : Program.id;
  tie_choices : Program.id list;
      (* source ids with pairwise distinct (layout, kind); the head is
         the first source — what greedy propagates *)
}

type remat_site = {
  remat_site_at : Program.id;
  remat_site_src : Program.id;
  chain_estimate : float;  (* recomputing the source in the target layout *)
  convert_estimate : float;  (* materializing the conversion instead *)
}

type store_site = {
  store_site_at : Program.id;
  direct_estimate : float;  (* storing through the producer's layout *)
  via_anchor_estimate : float;  (* converting to the anchor, then storing *)
}

type site =
  | Anchor of anchor_site
  | Elementwise_tie of tie_site
  | Remat_or_convert of remat_site
      (* choice [0] = materialize the conversion, [1] = rematerialize *)
  | Store_direct_or_anchor of store_site
      (* choice [0] = direct store, [1] = convert to the anchor first *)

(* Forces the anchor alternatives. *)
let arity = function
  | Anchor a -> 1 + List.length (fst (Lazy.force a.anchor_alternatives))
  | Elementwise_tie t -> List.length t.tie_choices
  | Remat_or_convert _ | Store_direct_or_anchor _ -> 2

let site_at = function
  | Anchor a -> a.anchor_at
  | Elementwise_tie t -> t.tie_at
  | Remat_or_convert r -> r.remat_site_at
  | Store_direct_or_anchor s -> s.store_site_at

(* A strategy observes one site at a time, in pipeline order, and
   commits a candidate index in [0, arity site).  It may keep private
   state across sites of one run (the replay chooser does), so a fresh
   value is built per engine run. *)
type t = { name : string; choose : site -> int }
