(** First-class layout-assignment decisions.

    The Section 4.4 engine makes four kinds of choices while walking the
    program: which blocked variant anchors a memory/register
    materialization, which operand layout an elementwise op adopts,
    whether a conversion is replaced by rematerialization, and whether a
    store goes through the producer's layout or the coalesced anchor.
    Each choice point is reified as a {!site} carrying the candidate set
    and the exact estimates the greedy comparison uses; the strategy
    stored in {!Pass.state} commits one candidate index per site (see
    {!Assign_greedy} for the default and {!Assign_search} for the
    beam search over these sites). *)

open Linear_layout

type anchor_site = {
  anchor_at : Program.id;
  anchor_default : Layout.t;
      (** the coalesced blocked default — choice [0], the greedy pick *)
  anchor_alternatives : (Layout.t list * int) Lazy.t;
      (** feasibility-pruned, deduplicated variants (excluding the
          default) paired with the number of candidates pruned; lazy so
          greedy runs never pay for candidate enumeration *)
}

type tie_site = {
  tie_at : Program.id;
  tie_choices : Program.id list;
      (** source ids with pairwise distinct (layout, kind); the head is
          the first source — what greedy propagates *)
}

type remat_site = {
  remat_site_at : Program.id;
  remat_site_src : Program.id;
  chain_estimate : float;
  convert_estimate : float;
}

type store_site = {
  store_site_at : Program.id;
  direct_estimate : float;
  via_anchor_estimate : float;
}

type site =
  | Anchor of anchor_site
  | Elementwise_tie of tie_site
  | Remat_or_convert of remat_site
      (** choice [0] = materialize the conversion, [1] = rematerialize *)
  | Store_direct_or_anchor of store_site
      (** choice [0] = direct store, [1] = convert to the anchor first *)

(** Number of candidates at the site (forces anchor alternatives). *)
val arity : site -> int

(** A strategy commits a candidate index in [\[0, arity site)] for each
    site, observed in pipeline order.  It may keep private state across
    the sites of one run, so build a fresh value per engine run. *)
type t = { name : string; choose : site -> int }
