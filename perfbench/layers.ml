(* Layer-level instrumentation, from the benchmark's side only: spans
   around calls into each layer's public functions, and the layer probe
   that times each layer's entry point over a workload's distinct
   requests and conversion keys. *)

module Layout = Linear_layout.Layout
module Dims = Linear_layout.Dims

let pass_names =
  [ "anchor"; "forward_propagate"; "simplify"; "backward_remat"; "insert_conversions"; "lower" ]

(* Per-pass sums: wall seconds and minor words. *)
type pass_acc = { secs : (string, float) Hashtbl.t; words : (string, float) Hashtbl.t }

let pass_acc () = { secs = Hashtbl.create 8; words = Hashtbl.create 8 }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

(* The greedy pipeline ({!Tir.Engine.run}'s) through [Pass_manager]'s
   hooks: one span and one minor-word count per pass.  With [certify],
   the hooks also take [Certify]'s snapshot before and diff after each
   pass, outside the pass's own span and word count. *)
let hooked_run ?(certify = false) ?(acc = pass_acc ()) m prog =
  let st = Tir.Pass.init m ~mode:Tir.Pass.Linear prog in
  let cur = ref None and snap = ref None in
  let before name st =
    if certify then
      snap := Some (Spans.with_ "certify.snapshot" (fun () -> Tir.Certify.take_snapshot st));
    let s = Spans.enter ("passes." ^ name) in
    cur := Some (s, Util.minor_words ())
  in
  let after name st =
    (match !cur with
    | Some (s, w0) ->
        let w = Util.minor_words () -. w0 in
        Spans.exit s;
        bump acc.secs name (Spans.dur s);
        bump acc.words name w
    | None -> ());
    cur := None;
    match !snap with
    | Some sn ->
        snap := None;
        ignore (Spans.with_ "certify.diff" (fun () -> Tir.Certify.certify_pass ~pass:name sn st))
    | None -> ()
  in
  let (_ : Tir.Pass_manager.report) =
    Tir.Pass_manager.run
      (Tir.Pass_manager.config ~before_pass:before ~after_pass:after Tir.Passes.default)
      st
  in
  st

let cta_mismatch (plan : Codegen.Conversion.plan) =
  let src = plan.Codegen.Conversion.src and dst = plan.Codegen.Conversion.dst in
  Layout.in_size src Dims.lane <> Layout.in_size dst Dims.lane
  || Layout.in_size src Dims.warp <> Layout.in_size dst Dims.warp

(* [Lower.conversion] behind the guard [Transval.certify_plan] and
   [Static_cost.lower_plan] use: [None] for plans executed
   algebraically. *)
let lowerable (plan : Codegen.Conversion.plan) =
  match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Global_roundtrip -> false
  | _ -> not (cta_mismatch plan)

(* {1 Layer probe} *)

type metric = { name : string; value : float; unit_ : string }

let mk name unit_ value = { name; value; unit_ }

(* Mean seconds of [f] over [reps] calls. *)
let time_reps reps f =
  let t0 = Util.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Util.now () -. t0) /. float_of_int reps

let find_machine name =
  List.find (fun m -> m.Gpusim.Machine.name = name) Gpusim.Machine.all_with_extras

(* The certify/verify callbacks [Tir.Server] passes to [Plan_store]. *)
let store_certify ~machine plan =
  let c = Analysis.Transval.certify_plan (find_machine machine) plan in
  Some
    {
      Codegen.Plan_store.method_ = Analysis.Transval.method_name c.Analysis.Transval.method_;
      points = c.Analysis.Transval.points;
      verdict = Analysis.Transval.verdict_name c.Analysis.Transval.verdict;
    }

let store_verify ~machine plan (_ : Codegen.Plan_store.cert) =
  Oracle.proved (Analysis.Transval.certify_plan (find_machine machine) plan)

type counts = { memo_hits : int; memo_misses : int; l1_hits : int; l1_misses : int }

(* Two hooked replays of every distinct request: per-pass time and
   minor words, certify snapshot/diff time, and cache traffic.  The
   replays must allocate the same words pass by pass. *)
let replay triples =
  let progs = List.map (fun (t : Reqs.triple) -> (t, t.kernel.Tir.Kernels.build ~size:t.size)) triples in
  let once () =
    let acc = pass_acc () in
    let m0 = Layout.Memo.hits () and mm0 = Layout.Memo.misses () in
    let l0 = Codegen.Plan_cache.hits () and lm0 = Codegen.Plan_cache.misses () in
    let results =
      Spans.with_ "probe.replay" (fun () ->
          List.map
            (fun ((t : Reqs.triple), p) ->
              let st = hooked_run ~certify:true ~acc t.machine p in
              (t, Tir.Pass.result st))
            progs)
    in
    let c =
      {
        memo_hits = Layout.Memo.hits () - m0;
        memo_misses = Layout.Memo.misses () - mm0;
        l1_hits = Codegen.Plan_cache.hits () - l0;
        l1_misses = Codegen.Plan_cache.misses () - lm0;
      }
    in
    (acc, c, results)
  in
  (* The first replay warms whatever caches the workload left cold. *)
  let (_ : pass_acc * counts * _) = once () in
  let a1, _, _ = once () in
  let first = !Spans.next_id in
  let a2, c2, results = once () in
  let snap_secs = ref 0.0 and diff_secs = ref 0.0 in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.id >= first then
        if s.Spans.name = "certify.snapshot" then snap_secs := !snap_secs +. Spans.dur s
        else if s.Spans.name = "certify.diff" then diff_secs := !diff_secs +. Spans.dur s)
    (Spans.all ());
  (a1, a2, c2, results, !snap_secs, !diff_secs)

(* The daemon's own cost per ENGINE request: the client round trip minus
   building and running the same request in-process, both warm. *)
let server_overhead ~out_dir triples =
  let socket = Filename.concat out_dir "probe.sock" in
  let srv = Tir.Server.start ~domains:1 ~socket () in
  Fun.protect
    ~finally:(fun () -> Tir.Server.stop srv)
    (fun () ->
      let c = Tir.Server.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Tir.Server.Client.close c)
        (fun () ->
          Util.median_list
            (List.map
               (fun (t : Reqs.triple) ->
                 let payload = Reqs.payload (Reqs.Engine t) in
                 let inproc () =
                   Tir.Engine.run t.machine ~mode:Tir.Engine.Linear
                     (t.kernel.Tir.Kernels.build ~size:t.size)
                 in
                 ignore (Tir.Server.Client.rpc c payload);
                 ignore (inproc ());
                 let _, rtt = Util.time (fun () -> Tir.Server.Client.rpc c payload) in
                 let _, local = Util.time inproc in
                 rtt -. local)
               triples)))

type probe = { metrics : metric list; exact : (string * string * string) list }

let run ~out_dir triples =
  let n = float_of_int (List.length triples) in
  let a1, a2, c, results, snap_secs, diff_secs = replay triples in
  let keys = Reqs.keys_of results in
  let nk = float_of_int (max 1 (List.length keys)) in
  let per_req x = x /. n in
  let exact = ref [] in
  let pass_metrics =
    List.concat_map
      (fun p ->
        let w1 = get a1.words p and w2 = get a2.words p in
        exact := (Printf.sprintf "passes.%s.minor_words" p, Printf.sprintf "%.0f" w1, Printf.sprintf "%.0f" w2) :: !exact;
        [
          mk (Printf.sprintf "passes.%s.us" p) "us" (per_req (get a2.secs p) *. 1e6);
          mk (Printf.sprintf "passes.%s.minor_words" p) "words" (per_req w2);
        ])
      pass_names
  in
  (* Warm L1 lookups, lowering, static pricing and certification, per key. *)
  let lookup = ref 0.0 and lower = ref 0.0 and static = ref 0.0 and transval = ref 0.0 in
  let instrs = ref 0 and instrs2 = ref 0 and lowered = ref 0 in
  let points = ref 0 and points2 = ref 0 and proved = ref 0 in
  Spans.with_ "probe.keys" (fun () ->
      List.iter
        (fun (k : Reqs.key) ->
          let m = k.Reqs.kmachine and plan = k.Reqs.plan in
          let src = plan.Codegen.Conversion.src and dst = plan.Codegen.Conversion.dst in
          let byte_width = plan.Codegen.Conversion.byte_width in
          lookup := !lookup +. time_reps 50 (fun () -> Codegen.Plan_cache.conversion m ~src ~dst ~byte_width);
          (if lowerable plan then
             match Codegen.Lower.conversion m plan with
             | exception Failure _ -> ()
             | program, _ ->
                 let (p2, _), t2 = Util.time (fun () -> Codegen.Lower.conversion m plan) in
                 incr lowered;
                 lower := !lower +. t2;
                 instrs := !instrs + List.length program.Gpusim.Isa.body;
                 instrs2 := !instrs2 + List.length p2.Gpusim.Isa.body;
                 static := !static +. time_reps 5 (fun () -> Analysis.Static_cost.cost m program));
          let c1 = Analysis.Transval.certify_plan m plan in
          let c2, t = Util.time (fun () -> Analysis.Transval.certify_plan m plan) in
          transval := !transval +. t;
          points := !points + c1.Analysis.Transval.points;
          points2 := !points2 + c2.Analysis.Transval.points;
          if Oracle.proved c2 then incr proved)
        keys);
  exact :=
    ("lowering.isa_instrs", string_of_int !instrs, string_of_int !instrs2)
    :: ("transval.points", string_of_int !points, string_of_int !points2)
    :: !exact;
  (* F2 factorization of the keys' own layout matrices. *)
  let layouts = Hashtbl.create 64 in
  List.iter
    (fun (k : Reqs.key) ->
      Hashtbl.replace layouts k.Reqs.src_lit k.Reqs.plan.Codegen.Conversion.src;
      Hashtbl.replace layouts k.Reqs.dst_lit k.Reqs.plan.Codegen.Conversion.dst)
    keys;
  let mats = Hashtbl.fold (fun _ l acc -> Layout.to_matrix l :: acc) layouts [] in
  let max_bits = List.fold_left (fun acc x -> max acc (max (F2.Bitmatrix.rows x) (F2.Bitmatrix.cols x))) 0 mats in
  let factorize =
    Spans.with_ "probe.f2" (fun () ->
        List.fold_left (fun acc x -> acc +. time_reps 20 (fun () -> F2.Bitmatrix.factorize x)) 0.0 mats)
  in
  let nm = float_of_int (max 1 (List.length mats)) in
  (* Cold planning: a fresh memo per key, the plan cache bypassed. *)
  let planner =
    Spans.with_ "probe.planner" (fun () ->
        List.fold_left
          (fun acc (k : Reqs.key) ->
            let plan = k.Reqs.plan in
            Layout.Memo.clear ();
            acc
            +. snd
                 (Util.time (fun () ->
                      Codegen.Conversion.plan k.Reqs.kmachine ~src:plan.Codegen.Conversion.src
                        ~dst:plan.Codegen.Conversion.dst ~byte_width:plan.Codegen.Conversion.byte_width)))
          0.0 keys)
  in
  (* Persisting and warm-starting this workload's plans. *)
  let store = Filename.concat out_dir "probe.store" in
  let (_ : int), save_s =
    Spans.with_ "probe.plan_store" (fun () ->
        Util.time (fun () -> Codegen.Plan_store.save ~certify:store_certify store))
  in
  let report, load_s =
    Spans.with_ "probe.plan_store" (fun () ->
        Util.time (fun () -> Codegen.Plan_store.load ~verify:store_verify store))
  in
  (try Sys.remove store with Sys_error _ -> ());
  (* The daemon's own cost: an ENGINE round trip minus the in-process run. *)
  let overhead = Spans.with_ "probe.server" (fun () -> server_overhead ~out_dir triples) in
  let lw = float_of_int (max 1 !lowered) in
  let metrics =
    pass_metrics
    @ [
        mk "certify.snapshot_us" "us" (per_req snap_secs *. 1e6);
        mk "certify.diff_us" "us" (per_req diff_secs *. 1e6);
        mk "plan_cache.lookup_us" "us" (!lookup /. nk *. 1e6);
        mk "planner.conversion_us" "us" (planner /. nk *. 1e6);
        mk "f2.factorize_us" "us" (factorize /. nm *. 1e6);
        mk "f2.max_bits" "bits" (float_of_int max_bits);
        mk "lowering.conversion_us" "us" (!lower /. lw *. 1e6);
        mk "lowering.isa_instrs" "count" (float_of_int !instrs);
        mk "static_cost.cost_us" "us" (!static /. lw *. 1e6);
        mk "transval.certify_plan_us" "us" (!transval /. nk *. 1e6);
        mk "transval.points" "count" (float_of_int !points);
        mk "transval.proved" "count" (float_of_int !proved);
        mk "plan_store.save_s" "s" save_s;
        mk "plan_store.load_s" "s" load_s;
        mk "plan_store.loaded" "count" (float_of_int report.Codegen.Plan_store.loaded);
        mk "plan_store.rejected" "count" (float_of_int report.Codegen.Plan_store.rejected);
        mk "server.overhead_us" "us" (overhead *. 1e6);
      ]
  in
  ({ metrics; exact = List.rev !exact }, c, List.length keys)
