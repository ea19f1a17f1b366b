(* The workloads.  Each is a closed loop with one client: the
   caller sends a request and waits for its reply before the next, as a
   compiler front-end does.  A cycle sends the workload's seeded request
   list once; the timed loop runs whole cycles. *)

type t = {
  pool : Reqs.req list;  (** one cycle's requests, seed-independent *)
  requests : Reqs.req array;  (** one cycle, in seeded order *)
  triples : Reqs.triple list;  (** the distinct triples, for the layer probe *)
  setup_s : (float * float) list;  (** each set-up repetition: seconds, speed factor *)
  cycle : traced:bool -> lat:Util.Buf.t -> Oracle.t -> unit;
  verify : Oracle.t -> unit;  (** the oracle over each distinct request *)
  cycle_budget_s : float;
      (** [--seconds] buys ceil(seconds / cycle_budget_s) cycles, at least
          3: about a cycle's time on the 2-vCPU machine the benchmark was
          defined on, less where more cycles were needed for steady
          medians *)
  finish : unit -> unit;
}

let linear = Tir.Engine.Linear

let clear_caches () =
  Linear_layout.Layout.Memo.clear ();
  Codegen.Plan_cache.clear ();
  Codegen.Shared_cache.clear ()

(* Generated-code cost of each distinct request in the current cycle,
   and search statistics: read by bench.ml after every cycle. *)
let cycle_costs : (string, float) Hashtbl.t = Hashtbl.create 512
let explored = ref 0
let pruned = ref 0

let record_cost id c = if not (Hashtbl.mem cycle_costs id) then Hashtbl.add cycle_costs id c

(* Time one request; an exception fails it and the loop goes on. *)
let timed ~lat o ~id ~seq ~traced f =
  let t0 = Util.now () in
  match if traced then Spans.request ~req:seq "request" f else f () with
  | r ->
      Util.Buf.add lat (Util.now () -. t0);
      Some r
  | exception e ->
      Util.Buf.add lat (Util.now () -. t0);
      Oracle.fail o ~id ("exception: " ^ Printexc.to_string e);
      None

let engine_triples reqs = Array.to_list (Array.map (function Reqs.Engine t -> t | Reqs.Plan _ -> assert false) reqs)

let build (t : Reqs.triple) = t.kernel.Tir.Kernels.build ~size:t.size

(* Set up [reps] times and keep the last; return it with each duration
   and the speed factor around it (the mean of the samples taken before
   and after, at least half a second apart).  [teardown] undoes the
   earlier set-ups, outside the timing. *)
let repeat_setup ?(teardown = ignore) reps f =
  Gc.compact ();
  let before = ref (Util.speed_factor ()) and since = ref (Util.now ()) in
  let pending = ref [] and timed = ref [] in
  let sample () =
    let after = Util.speed_factor () in
    let speed = (!before +. after) /. 2.0 in
    timed := List.map (fun dt -> (dt, speed)) !pending @ !timed;
    pending := [];
    before := after;
    since := Util.now ()
  in
  let rec go i =
    let r, dt = Util.time f in
    pending := dt :: !pending;
    if i + 1 = reps || Util.now () -. !since >= 0.5 then sample ();
    if i + 1 = reps then r
    else begin
      teardown r;
      go (i + 1)
    end
  in
  let r = go 0 in
  (r, !timed)

(* {1 warm-compile} *)

let warm_compile ~seed =
  let pool = List.map (fun t -> Reqs.Engine t) (Reqs.suite ()) in
  let requests = Reqs.order ~seed pool in
  let triples = engine_triples requests in
  (* Set-up: fresh caches, then one greedy sweep fills Memo, Plan_cache
     and Shared_cache. *)
  let progs, setup_s =
    repeat_setup 3 (fun () ->
        clear_caches ();
        let progs = Array.of_list (List.map build triples) in
        List.iteri (fun i (t : Reqs.triple) -> ignore (Tir.Engine.run t.machine ~mode:linear progs.(i))) triples;
        progs)
  in
  let results = Array.make (Array.length progs) None in
  let cycle ~traced ~lat o =
    List.iteri
      (fun i (t : Reqs.triple) ->
        let id = Reqs.triple_id t in
        let run () =
          if traced then Tir.Pass.result (Layers.hooked_run t.machine progs.(i))
          else Tir.Engine.run t.machine ~mode:linear progs.(i)
        in
        match timed ~lat o ~id ~seq:i ~traced run with
        | Some r ->
            record_cost id (Tir.Engine.time t.machine r);
            if results.(i) = None then results.(i) <- Some r
        | None -> ())
      triples
  in
  let verify o =
    List.iteri
      (fun i (t : Reqs.triple) ->
        match results.(i) with
        | Some r -> Oracle.check_result o ~id:(Reqs.triple_id t) t.machine r
        | None -> ())
      triples
  in
  { pool; requests; triples; setup_s; cycle; verify; cycle_budget_s = 0.65; finish = ignore }

(* {1 serve-mixed} *)

let reply_field reply k =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = k -> Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' reply)

let is_ok reply = String.length reply >= 3 && String.sub reply 0 3 = "OK "

(* ENGINE requests repeat this many times per cycle, so that the mix's
   median is an ENGINE round trip and its upper tail a PLAN one. *)
let engine_repeats = 3

let serve_mixed ~seed ~out_dir =
  let triples = Reqs.smallest_sizes (Reqs.on_machines [ "RTX4090" ] (Reqs.suite ())) in
  (* One cold pass materializes the conversion keys and fills the cache
     that becomes the certified store. *)
  clear_caches ();
  Codegen.Shared_cache.reset_stats ();
  let cold = List.map (fun (t : Reqs.triple) -> (t, Tir.Engine.run t.machine ~mode:linear (build t))) triples in
  let keys = Reqs.keys_of cold in
  let store = Filename.concat out_dir "serve.store" in
  let (_ : int) = Codegen.Plan_store.save ~certify:Layers.store_certify store in
  let pool =
    List.concat_map (fun t -> List.init engine_repeats (fun _ -> Reqs.Engine t)) triples
    @ List.map (fun k -> Reqs.Plan k) keys
  in
  let requests = Reqs.order ~seed pool in
  let socket = Filename.concat out_dir "serve.sock" in
  (* Set-up: a warm start of the daemon, re-verifying every stored
     certificate.  Earlier repetitions are stopped (which saves the
     store again) outside the timing. *)
  let srv, setup_s =
    repeat_setup ~teardown:Tir.Server.stop 3 (fun () ->
        Tir.Server.start ~domains:1 ~store ~reset:true ~socket ())
  in
  let report = Tir.Server.store_report srv in
  if report.Codegen.Plan_store.rejected > 0 then
    Util.log "serve-mixed: the store warm start rejected %d plans" report.Codegen.Plan_store.rejected;
  let conn = Tir.Server.Client.connect socket in
  let replies = Hashtbl.create 256 in
  let cycle ~traced ~lat o =
    Array.iteri
      (fun seq req ->
        let id = Reqs.id req in
        match timed ~lat o ~id ~seq ~traced (fun () -> Tir.Server.Client.rpc conn (Reqs.payload req)) with
        | None -> ()
        | Some reply when not (is_ok reply) -> Oracle.fail o ~id ("reply " ^ reply)
        | Some reply ->
            (match (req, Option.bind (reply_field reply "time") float_of_string_opt) with
            | Reqs.Engine _, Some c -> record_cost id c
            | _ -> ());
            if not (Hashtbl.mem replies id) then Hashtbl.add replies id reply)
      requests
  in
  let verify o =
    (* ENGINE replies against an in-process run of the same request. *)
    List.iter
      (fun ((t : Reqs.triple), (r : Tir.Engine.result)) ->
        let id = Reqs.triple_id t in
        match Hashtbl.find_opt replies id with
        | None -> ()
        | Some reply ->
            Oracle.check_result o ~id t.machine r;
            let want = Printf.sprintf "%.0f" (Tir.Engine.time t.machine r) in
            if reply_field reply "time" <> Some want then
              Oracle.fail o ~id (Printf.sprintf "reply %s, in-process time=%s" reply want)
            else if reply_field reply "unsupported" <> Some "0" then
              Oracle.fail o ~id ("unsupported in reply " ^ reply))
      cold;
    (* PLAN replies: certified, and the mechanism the planner picks. *)
    List.iter
      (fun (k : Reqs.key) ->
        let id = Reqs.key_id k in
        match Hashtbl.find_opt replies id with
        | None -> ()
        | Some reply -> (
            o.Oracle.checked <- o.Oracle.checked + 1;
            let slug = Codegen.Conversion.mechanism_slug k.Reqs.plan.Codegen.Conversion.mechanism in
            if reply_field reply "mechanism" <> Some slug then
              Oracle.fail o ~id (Printf.sprintf "reply %s, planner mechanism %s" reply slug)
            else
              let cert = reply_field reply "cert" = Some "proved" in
              match Oracle.check_plan o ~cert k.Reqs.kmachine k.Reqs.plan with
              | None -> ()
              | Some why -> Oracle.fail o ~id why))
      keys
  in
  let finish () =
    Tir.Server.Client.close conn;
    Tir.Server.stop srv;
    try Sys.remove store with Sys_error _ -> ()
  in
  {
    pool;
    requests;
    triples;
    setup_s;
    cycle;
    verify;
    cycle_budget_s = 0.8;
    finish;
  }

(* {1 search-tune} *)

let search_params = { Tir.Assign_search.beam = 2; domains = 1 }

let search_tune ~seed =
  let pool = List.map (fun t -> Reqs.Engine t) (Reqs.smallest_sizes (Reqs.on_machines [ "MI250" ] (Reqs.suite ()))) in
  let requests = Reqs.order ~seed pool in
  let triples = engine_triples requests in
  let search (t : Reqs.triple) prog = Tir.Assign_search.run t.machine ~mode:linear ~params:search_params prog in
  (* Set-up: fresh caches, then one search sweep fills them with every
     plan the beam explores. *)
  let progs, setup_s =
    repeat_setup 3 (fun () ->
        clear_caches ();
        let progs = Array.of_list (List.map build triples) in
        List.iteri (fun i t -> ignore (search t progs.(i))) triples;
        progs)
  in
  let outcomes = Array.make (Array.length progs) None in
  let cycle ~traced ~lat o =
    List.iteri
      (fun i (t : Reqs.triple) ->
        let id = Reqs.triple_id t in
        let run () =
          if traced then Spans.with_ "search" (fun () -> search t progs.(i)) else search t progs.(i)
        in
        match timed ~lat o ~id ~seq:i ~traced run with
        | Some out ->
            let st = out.Tir.Assign_search.stats in
            explored := !explored + st.Tir.Assign_search.explored;
            pruned := !pruned + st.Tir.Assign_search.pruned;
            record_cost id (Tir.Engine.time t.machine out.Tir.Assign_search.result);
            if outcomes.(i) = None then outcomes.(i) <- Some out
        | None -> ())
      triples
  in
  (* Each winner must be no worse than greedy and certify when replayed. *)
  let verify o =
    List.iteri
      (fun i (t : Reqs.triple) ->
        match outcomes.(i) with
        | None -> ()
        | Some out ->
            let id = Reqs.triple_id t in
            let st = out.Tir.Assign_search.stats in
            if st.Tir.Assign_search.best_cost > st.Tir.Assign_search.greedy_cost then
              Oracle.fail o ~id "search winner worse than greedy"
            else
              let chooser = Tir.Assign_search.chooser_of_script out.Tir.Assign_search.script in
              let rep = Tir.Certify.run t.machine ~mode:linear ~chooser (build t) in
              let replayed = Tir.Engine.time t.machine rep.Tir.Certify.result in
              if replayed <> Tir.Engine.time t.machine out.Tir.Assign_search.result then
                Oracle.fail o ~id "certified replay of the winner differs from the search result"
              else Oracle.check_report o ~id t.machine rep)
      triples
  in
  { pool; requests; triples; setup_s; cycle; verify; cycle_budget_s = 0.9; finish = ignore }

let names = [ "warm-compile"; "serve-mixed"; "search-tune" ]

let make name ~seed ~out_dir =
  match name with
  | "warm-compile" -> warm_compile ~seed
  | "serve-mixed" -> serve_mixed ~seed ~out_dir
  | "search-tune" -> search_tune ~seed
  | w -> invalid_arg ("unknown workload " ^ w)
