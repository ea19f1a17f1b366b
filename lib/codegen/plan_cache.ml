open Linear_layout

type key = Shared_cache.Key.t = {
  machine : string;
  src : Layout.t;
  dst : Layout.t;
  byte_width : int;
}

module H = Hashtbl.Make (Shared_cache.Key)

type stats = { mutable hits : int; mutable misses : int }

type tables = {
  stats : stats;
  conv : Conversion.plan H.t;
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
   own cache entries. *)
let key_of machine ~src ~dst ~byte_width =
  let src = Layout.Memo.intern src and dst = Layout.Memo.intern dst in
  { machine = machine.Gpusim.Machine.name; src; dst; byte_width }

(* L1 (this domain's table) in front of the process-wide sharded L2:
   an L1 miss probes the L2 before computing, and a computed plan is
   published to both levels.  L1 hit/miss counters keep their historic
   meaning (hits and misses of the calling domain); the planner only
   actually runs on an L2 miss, so [Shared_cache.stats ()] counts the
   process's planner invocations. *)
let cached tbl find2 add2 k compute =
  let tb = tables () in
  match H.find_opt (tbl tb) k with
  | Some r ->
      tb.stats.hits <- tb.stats.hits + 1;
      r
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
      H.add (tbl tb) k r;
      r

let conversion machine ~src ~dst ~byte_width =
  let k = key_of machine ~src ~dst ~byte_width in
  cached
    (fun tb -> tb.conv)
    Shared_cache.find_conversion Shared_cache.add_conversion k
    (fun () -> Conversion.plan machine ~src:k.src ~dst:k.dst ~byte_width)

let staging machine ~src ~dst ~byte_width =
  let k = key_of machine ~src ~dst ~byte_width in
  cached
    (fun tb -> tb.stage)
    Shared_cache.find_staging Shared_cache.add_staging k
    (fun () -> Operand_staging.plan machine ~src:k.src ~dst:k.dst ~byte_width)
