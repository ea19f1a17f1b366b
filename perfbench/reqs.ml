(* Request generation: the kernel-suite trace, each workload's fixed
   request pool drawn from it, and the seeded order in which a run sends
   the pool.  The seed only permutes: every seed sends the same multiset
   of requests, so runs with different seeds do the same work. *)

type triple = { machine : Gpusim.Machine.t; kernel : Tir.Kernels.kernel; size : int }

(* A conversion key as the PLAN verb receives it: layouts travel as
   [Parse.to_string] literals. *)
type key = {
  kmachine : Gpusim.Machine.t;
  plan : Codegen.Conversion.plan;
  src_lit : string;
  dst_lit : string;
}

type req = Engine of triple | Plan of key

let triple_id t =
  Printf.sprintf "%s/%s/%d" t.kernel.Tir.Kernels.name t.machine.Gpusim.Machine.name t.size

let key_id k =
  Printf.sprintf "%s|%s|%s|%d" k.kmachine.Gpusim.Machine.name k.src_lit k.dst_lit
    k.plan.Codegen.Conversion.byte_width

let id = function Engine t -> triple_id t | Plan k -> key_id k
let verb = function Engine _ -> "engine" | Plan _ -> "plan"

(* The wire form of a request: what a client would send the daemon. *)
let payload = function
  | Engine t ->
      Printf.sprintf "ENGINE\nkernel=%s\nmachine=%s\nmode=linear\nsize=%d" t.kernel.Tir.Kernels.name
        t.machine.Gpusim.Machine.name t.size
  | Plan k ->
      Printf.sprintf "PLAN\nmachine=%s\nsrc=%s\ndst=%s\nbyte_width=%d" k.kmachine.Gpusim.Machine.name
        k.src_lit k.dst_lit k.plan.Codegen.Conversion.byte_width

(* Same skip rule as [layout_tool bench-serve]. *)
let runnable (m : Gpusim.Machine.t) (k : Tir.Kernels.kernel) =
  not
    ((k.Tir.Kernels.needs_wgmma && not m.Gpusim.Machine.has_wgmma)
    || (k.Tir.Kernels.needs_large_smem && m.Gpusim.Machine.smem_bytes < 128 * 1024))

let smallest (k : Tir.Kernels.kernel) = List.fold_left min max_int k.Tir.Kernels.sizes

(* Every (machine, kernel, size) the machine can run: 394 triples. *)
let suite () =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun k ->
          if runnable m k then List.map (fun size -> { machine = m; kernel = k; size }) k.Tir.Kernels.sizes
          else [])
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras

let smallest_sizes l = List.filter (fun t -> t.size = smallest t.kernel) l

let on_machines names l =
  List.filter (fun t -> List.mem t.machine.Gpusim.Machine.name names) l

(* The distinct conversion keys a list of engine results materializes,
   in a canonical (sorted) order. *)
let keys_of (results : (triple * Tir.Engine.result) list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (t, (r : Tir.Engine.result)) ->
      List.iter
        (fun (c : Tir.Engine.conversion_info) ->
          match c.Tir.Engine.plan with
          | None -> ()
          | Some plan ->
              let k =
                {
                  kmachine = t.machine;
                  plan;
                  src_lit = Linear_layout.Parse.to_string plan.Codegen.Conversion.src;
                  dst_lit = Linear_layout.Parse.to_string plan.Codegen.Conversion.dst;
                }
              in
              let id = key_id k in
              if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id k)
        r.Tir.Engine.conversions)
    results;
  Hashtbl.fold (fun id k acc -> (id, k) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Seeded Fisher-Yates permutation of the pool. *)
let order ~seed pool =
  let a = Array.of_list pool in
  let st = Random.State.make [| seed; 0x11a7 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let serialize reqs = String.concat "\n\n" (Array.to_list (Array.map payload reqs))

(* The seed contract, checked on every run: the same seed gives a
   byte-identical request list; another seed gives the same multiset in
   another order. *)
let self_test ~seed pool =
  let a = serialize (order ~seed pool) and b = serialize (order ~seed pool) in
  let other = order ~seed:(seed + 1) pool in
  let sorted_payloads r = List.sort compare (Array.to_list (Array.map payload r)) in
  if a <> b then Error "same seed gave two different request lists"
  else if sorted_payloads (order ~seed pool) <> sorted_payloads other then
    Error "another seed changed the request multiset"
  else if List.length pool > 2 && serialize other = a then
    Error "another seed gave the same order"
  else Ok ()
