open Linear_layout

type key = Shared_cache.Key.t = {
  machine : string;
  src : Layout.t;
  dst : Layout.t;
  byte_width : int;
}

module H = Hashtbl.Make (Shared_cache.Key)

type stats = { mutable hits : int; mutable misses : int }

(* A conversion entry keeps the plan's model price next to it, priced
   on the first demand ({!Conversion.cost} is pure, so once per plan
   and domain). *)
type tables = {
  stats : stats;
  conv : (Conversion.plan * Gpusim.Cost.t Lazy.t) H.t;
  stage : Operand_staging.t option H.t;
}

let fresh () =
  {
    stats = { hits = 0; misses = 0 };
    conv = H.create 128;
    stage = H.create 64;
  }

let dls = Domain.DLS.new_key fresh
let tables () = Domain.DLS.get dls
let hits () = (tables ()).stats.hits
let misses () = (tables ()).stats.misses

let reset_stats () =
  let s = (tables ()).stats in
  s.hits <- 0;
  s.misses <- 0

let clear () =
  let tb = tables () in
  H.reset tb.conv;
  H.reset tb.stage

(* Machines are identified by name: the built-in configurations all
   carry distinct names, and a custom machine must be renamed to get its
   own cache entries.  A width the planners cannot use is refused here,
   before any lookup. *)
let key_of machine ~src ~dst ~byte_width =
  Conversion.check_byte_width "Plan_cache" machine byte_width;
  let src = Layout.Memo.intern src and dst = Layout.Memo.intern dst in
  { machine = machine.Gpusim.Machine.name; src; dst; byte_width }

(* L1 (this domain's table) in front of the process-wide sharded L2:
   an L1 miss probes the L2 before computing, and a computed plan is
   published to both levels.  L1 hit/miss counters keep their historic
   meaning (hits and misses of the calling domain); the planner only
   actually runs on an L2 miss, so [Shared_cache.stats ()] counts the
   process's planner invocations. *)
let cached tbl find2 add2 ~entry k compute =
  let tb = tables () in
  match H.find_opt (tbl tb) k with
  | Some e ->
      tb.stats.hits <- tb.stats.hits + 1;
      e
  | None ->
      tb.stats.misses <- tb.stats.misses + 1;
      let r =
        match find2 k with
        | Some r -> r
        | None ->
            let r = compute () in
            add2 k r;
            r
      in
      let e = entry r in
      H.add (tbl tb) k e;
      e

let conversion_entry machine ~src ~dst ~byte_width =
  let k = key_of machine ~src ~dst ~byte_width in
  cached
    (fun tb -> tb.conv)
    Shared_cache.find_conversion Shared_cache.add_conversion
    ~entry:(fun plan -> (plan, lazy (Conversion.cost machine plan)))
    k
    (fun () -> Conversion.plan machine ~src:k.src ~dst:k.dst ~byte_width)

let conversion machine ~src ~dst ~byte_width = fst (conversion_entry machine ~src ~dst ~byte_width)

let priced machine ~src ~dst ~byte_width =
  let plan, price = conversion_entry machine ~src ~dst ~byte_width in
  (plan, Gpusim.Cost.copy (Lazy.force price))

let staging machine ~src ~dst ~byte_width =
  let k = key_of machine ~src ~dst ~byte_width in
  cached
    (fun tb -> tb.stage)
    Shared_cache.find_staging Shared_cache.add_staging ~entry:Fun.id k
    (fun () -> Operand_staging.plan machine ~src:k.src ~dst:k.dst ~byte_width)
