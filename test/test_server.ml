(* The layout-compilation daemon (Tir.Server): golden request/reply
   table over the whole kernel suite (including error replies for
   malformed frames, bad requests and unknown machines/kernels), a
   cold -> restart -> warm-start scripted session asserting the warm
   server serves every request from the persisted store with zero
   planner invocations, and concurrent clients receiving identical
   replies.  Every case spins up its own daemon on its own socket, so
   the suite survives order shuffling. *)

open Linear_layout

let m = Gpusim.Machine.gh200
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ll_test_server_%s_%d.sock" tag (Unix.getpid ()))

let engine_request (k : Tir.Kernels.kernel) =
  Printf.sprintf "ENGINE\nkernel=%s\nmachine=%s" k.Tir.Kernels.name m.Gpusim.Machine.name

(* The server's reply, recomputed locally: same engine, same format. *)
let expected_engine_reply (k : Tir.Kernels.kernel) =
  let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
  let r = Tir.Engine.run m ~mode:Tir.Engine.Linear prog in
  Printf.sprintf "OK time=%.0f converts=%d noops=%d loads=%d stores=%d remats=%d unsupported=%d"
    (Tir.Engine.time m r) r.Tir.Engine.converts r.Tir.Engine.noop_converts
    r.Tir.Engine.local_loads r.Tir.Engine.local_stores r.Tir.Engine.remats
    (List.length r.Tir.Engine.unsupported)

let stat reply k =
  String.split_on_char ' ' reply
  |> List.find_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i when String.sub tok 0 i = k ->
             int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
         | _ -> None)
  |> function
  | Some v -> v
  | None -> Alcotest.failf "STATS reply lacks %s: %s" k reply

(* {1 Cold suite -> restart -> warm-start from the store} *)

let test_cold_warm_restart () =
  let expected =
    List.map (fun k -> (k.Tir.Kernels.name, expected_engine_reply k)) Tir.Kernels.all
  in
  let sock = socket_path "coldwarm" in
  let store = Filename.temp_file "ll_server_store" ".tsv" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
    (fun () ->
      (* Cold pass: fresh cache, no store file yet. *)
      let srv = Tir.Server.start ~domains:2 ~store ~reset:true ~socket:sock () in
      check_int "no store to load yet" 0
        (Tir.Server.store_report srv).Codegen.Plan_store.loaded;
      let c = Tir.Server.Client.connect sock in
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          let got = Tir.Server.Client.rpc c (engine_request k) in
          check_string ("cold " ^ k.Tir.Kernels.name)
            (List.assoc k.Tir.Kernels.name expected)
            got)
        Tir.Kernels.all;
      let cold_planner = stat (Tir.Server.Client.rpc c "STATS") "shared_misses" in
      check_bool "cold pass planned" true (cold_planner > 0);
      check_string "shutdown" "OK bye" (Tir.Server.Client.rpc c "SHUTDOWN");
      Tir.Server.Client.close c;
      Tir.Server.wait srv;
      check_bool "store written on shutdown" true (Sys.file_exists store);
      (* Warm pass: same binary, simulated fresh process, store on disk.
         Every plan must come from the store — zero planner
         invocations — and every reply must be byte-identical. *)
      let srv2 = Tir.Server.start ~domains:2 ~store ~reset:true ~socket:sock () in
      let report = Tir.Server.store_report srv2 in
      check_bool "warm start loaded certified plans" true
        (report.Codegen.Plan_store.loaded > 0);
      check_int "no plan rejected on warm start" 0 report.Codegen.Plan_store.rejected;
      let c2 = Tir.Server.Client.connect sock in
      check_int "nothing planned before traffic" 0
        (stat (Tir.Server.Client.rpc c2 "STATS") "shared_misses");
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          let got = Tir.Server.Client.rpc c2 (engine_request k) in
          check_string ("warm " ^ k.Tir.Kernels.name)
            (List.assoc k.Tir.Kernels.name expected)
            got)
        Tir.Kernels.all;
      check_int "warm suite served with zero planner invocations" 0
        (stat (Tir.Server.Client.rpc c2 "STATS") "shared_misses");
      check_string "shutdown" "OK bye" (Tir.Server.Client.rpc c2 "SHUTDOWN");
      Tir.Server.Client.close c2;
      Tir.Server.wait srv2)

(* {1 Golden error replies and the PLAN verb} *)

let test_protocol_goldens () =
  let sock = socket_path "proto" in
  let srv = Tir.Server.start ~domains:1 ~socket:sock () in
  let c = Tir.Server.Client.connect sock in
  let rpc = Tir.Server.Client.rpc c in
  check_string "empty request" "ERR LL910 empty request" (rpc "");
  check_string "unknown verb" "ERR LL911 unknown verb BOGUS" (rpc "BOGUS");
  check_string "missing key" "ERR LL911 missing key machine" (rpc "PLAN\nsrc=x");
  check_string "bad mode" "ERR LL911 bad mode turbo"
    (rpc (Printf.sprintf "ENGINE\nkernel=gemm\nmachine=%s\nmode=turbo" m.Gpusim.Machine.name));
  check_string "unknown machine" "ERR LL912 unknown machine H100"
    (rpc "ENGINE\nkernel=gemm\nmachine=H100");
  check_string "unknown kernel" "ERR LL914 unknown kernel nope"
    (rpc (Printf.sprintf "ENGINE\nkernel=nope\nmachine=%s" m.Gpusim.Machine.name));
  let bad_layout =
    rpc (Printf.sprintf "PLAN\nmachine=%s\nsrc=bogus\ndst=bogus" m.Gpusim.Machine.name)
  in
  let prefix = "ERR LL913 bad layout src:" in
  check_string "bad layout literal" prefix
    (String.sub bad_layout 0 (min (String.length prefix) (String.length bad_layout)));
  (* PLAN golden: mechanism and certificate recomputed locally. *)
  let src, dst = List.nth (Plan_support.cta_pairs ()) 1 in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let cert = Analysis.Transval.certify_plan m plan in
  check_string "plan golden"
    (Printf.sprintf "OK mechanism=%s cert=%s points=%d"
       (Codegen.Conversion.mechanism_slug plan.Codegen.Conversion.mechanism)
       (Analysis.Transval.verdict_name cert.Analysis.Transval.verdict)
       cert.Analysis.Transval.points)
    (rpc
       (Printf.sprintf "PLAN\nmachine=%s\nsrc=%s\ndst=%s" m.Gpusim.Machine.name
          (Parse.to_string src) (Parse.to_string dst)));
  (* Malformed frame: a header claiming a frame past the limit gets one
     LL910 reply, then the server drops the connection.  The persistent
     client is closed first: each connection occupies a pool worker for
     its lifetime, and this daemon runs a single worker. *)
  Tir.Server.Client.close c;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let hdr = Bytes.of_string "\x7f\x00\x00\x00" in
  let (_ : int) = Unix.write fd hdr 0 4 in
  (match Tir.Server.recv_frame fd with
  | Some reply -> check_string "oversized frame" "ERR LL910 oversized frame" reply
  | None -> Alcotest.fail "no reply to the malformed frame");
  check_bool "connection dropped after the malformed frame" true
    (match Tir.Server.recv_frame fd with
    | None -> true
    | Some _ -> false
    | exception End_of_file -> true);
  Unix.close fd;
  let c2 = Tir.Server.Client.connect sock in
  check_string "shutdown" "OK bye" (Tir.Server.Client.rpc c2 "SHUTDOWN");
  Tir.Server.Client.close c2;
  Tir.Server.wait srv

(* {1 A served plan is certified once}

   Three identical PLAN requests on one connection: every reply is the
   locally computed golden, and the worker domain proves the plan once
   and reads its stored certificate twice.  The pool absorbs the
   worker's counters when the server stops. *)

let test_plan_certified_once () =
  let src, dst = List.nth (Plan_support.cta_pairs ()) 2 in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let cert = Analysis.Transval.certify_plan m plan in
  let golden =
    Printf.sprintf "OK mechanism=%s cert=%s points=%d"
      (Codegen.Conversion.mechanism_slug plan.Codegen.Conversion.mechanism)
      (Analysis.Transval.verdict_name cert.Analysis.Transval.verdict)
      cert.Analysis.Transval.points
  in
  let request =
    Printf.sprintf "PLAN\nmachine=%s\nsrc=%s\ndst=%s" m.Gpusim.Machine.name
      (Parse.to_string src) (Parse.to_string dst)
  in
  let checked () = Obs.Metrics.counter_value "transval.certificates.checked" in
  let sock = socket_path "certonce" in
  let replies, proofs =
    Obs.with_enabled (fun () ->
        let before = checked () in
        let srv = Tir.Server.start ~domains:1 ~reset:true ~socket:sock () in
        let c = Tir.Server.Client.connect sock in
        let replies = List.init 3 (fun _ -> Tir.Server.Client.rpc c request) in
        Tir.Server.Client.close c;
        Tir.Server.stop srv;
        (replies, checked () - before))
  in
  List.iteri (fun i got -> check_string (Printf.sprintf "reply %d" i) golden got) replies;
  check_int "one certificate for three requests" 1 proofs

(* {1 PLAN with an element width the planners cannot lay out} *)

let test_bad_byte_width () =
  let sock = socket_path "bytewidth" in
  let srv = Tir.Server.start ~domains:1 ~socket:sock () in
  let c = Tir.Server.Client.connect sock in
  let src, dst = List.nth (Plan_support.cta_pairs ()) 1 in
  let plan byte_width =
    Tir.Server.Client.rpc c
      (Printf.sprintf "PLAN\nmachine=%s\nsrc=%s\ndst=%s\nbyte_width=%d" m.Gpusim.Machine.name
         (Parse.to_string src) (Parse.to_string dst) byte_width)
  in
  check_string "non-power-of-two width" "ERR LL911 bad byte_width 3" (plan 3);
  check_string "width beyond one vector" "ERR LL911 bad byte_width 32" (plan 32);
  check_string "shutdown" "OK bye" (Tir.Server.Client.rpc c "SHUTDOWN");
  Tir.Server.Client.close c;
  Tir.Server.wait srv

(* {1 Concurrent clients} *)

let test_concurrent_clients () =
  let kernels = List.filteri (fun i _ -> i mod 3 = 0) Tir.Kernels.all in
  let expected = List.map (fun k -> expected_engine_reply k) kernels in
  let sock = socket_path "conc" in
  let srv = Tir.Server.start ~domains:4 ~socket:sock () in
  let run_client () =
    let c = Tir.Server.Client.connect sock in
    let replies = List.map (fun k -> Tir.Server.Client.rpc c (engine_request k)) kernels in
    Tir.Server.Client.close c;
    replies
  in
  let handles = List.init 4 (fun _ -> Domain.spawn run_client) in
  let all = List.map Domain.join handles in
  List.iteri
    (fun i replies ->
      List.iter2
        (fun exp got -> check_string (Printf.sprintf "client %d" i) exp got)
        expected replies)
    all;
  let c = Tir.Server.Client.connect sock in
  check_string "shutdown" "OK bye" (Tir.Server.Client.rpc c "SHUTDOWN");
  Tir.Server.Client.close c;
  Tir.Server.wait srv

let () =
  Alcotest.run "server"
    (Shuffle_support.maybe_shuffle
       [
         ( "service",
           [
             Alcotest.test_case "cold suite, restart, warm-start from store" `Quick
               test_cold_warm_restart;
             Alcotest.test_case "golden protocol and error replies" `Quick
               test_protocol_goldens;
             Alcotest.test_case "PLAN rejects a bad byte_width" `Quick test_bad_byte_width;
             Alcotest.test_case "three identical PLANs certify once" `Quick
               test_plan_certified_once;
             Alcotest.test_case "concurrent clients get identical replies" `Quick
               test_concurrent_clients;
           ] );
       ])
