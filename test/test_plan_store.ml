(* The disk plan store (Codegen.Plan_store): codec round-trips over both
   plan kinds (conversion plans of every mechanism, and operand-staging
   plans), and fault injection in the style of test_transval —
   truncated, bit-flipped and version-bumped files must load as misses
   with the right LL-coded warning, and a stored certificate that no
   longer verifies (checked here with the real Analysis.Transval) must
   be rejected rather than admitted. *)

open Linear_layout

let m = Gpusim.Machine.gh200
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pairs = Plan_support.cta_pairs ()
let mechanism_pairs = Plan_support.mechanism_pairs ()

let fresh_start () =
  Codegen.Plan_cache.clear ();
  Codegen.Shared_cache.clear ();
  Codegen.Shared_cache.reset_stats ()

let tmpfile () = Filename.temp_file "ll_plan_store" ".tsv"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let key ~src ~dst ~byte_width =
  { Codegen.Shared_cache.Key.machine = m.Gpusim.Machine.name; src; dst; byte_width }

let has_code code (r : Codegen.Plan_store.load_report) =
  List.exists (fun (d : Diagnostics.t) -> String.equal d.Diagnostics.code code)
    r.Codegen.Plan_store.diags

(* The lying certifier: stamps "proved" without looking. *)
let fake_proved ~machine:_ _ =
  Some { Codegen.Plan_store.method_ = "symbolic"; points = 0; verdict = "proved" }

(* The trusting verifier: admits whatever the stored certificate says
   was proved. *)
let trust ~machine:_ _ _ = true

(* The real thing, as the server uses it. *)
let transval_verify ~machine plan (_ : Codegen.Plan_store.cert) =
  match
    List.find_opt
      (fun mc -> String.equal mc.Gpusim.Machine.name machine)
      Gpusim.Machine.all_with_extras
  with
  | None -> false
  | Some mc -> (
      match (Analysis.Transval.certify_plan mc plan).Analysis.Transval.verdict with
      | Analysis.Transval.Proved -> true
      | _ -> false)

let transval_certify ~machine plan =
  match
    List.find_opt
      (fun mc -> String.equal mc.Gpusim.Machine.name machine)
      Gpusim.Machine.all_with_extras
  with
  | None -> None
  | Some mc ->
      let c = Analysis.Transval.certify_plan mc plan in
      Some
        {
          Codegen.Plan_store.method_ = Analysis.Transval.method_name c.Analysis.Transval.method_;
          points = c.Analysis.Transval.points;
          verdict = Analysis.Transval.verdict_name c.Analysis.Transval.verdict;
        }

(* Populate both kinds for a pair through the public cache API. *)
let populate (src, dst) byte_width =
  let p = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width in
  let st = Codegen.Plan_cache.staging m ~src ~dst ~byte_width in
  (p, st)

(* {1 Round trip} *)

(* Every pair of the mechanism pool at every byte width, in one file:
   each mechanism (and so both the shuffle and the swizzle codec) and
   each staging plan goes through its line and comes back field for
   field. *)
let test_roundtrip () =
  fresh_start ();
  let entries =
    List.concat_map
      (fun byte_width ->
        List.map
          (fun (src, dst) -> (key ~src ~dst ~byte_width, populate (src, dst) byte_width))
          mechanism_pairs)
      [ 2; 4; 8 ]
  in
  let slug (p : Codegen.Conversion.plan) =
    Codegen.Conversion.mechanism_slug p.Codegen.Conversion.mechanism
  in
  Alcotest.(check (list string))
    "the pool reaches every mechanism"
    [
      "global_roundtrip";
      "noop";
      "register_permute";
      "shared_memory";
      "warp_shuffle";
      "warp_shuffle_compressed";
    ]
    (List.sort_uniq compare (List.map (fun (_, (p, _)) -> slug p) entries));
  let n = Codegen.Shared_cache.length () in
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_int "one line per entry" n (Codegen.Plan_store.save ~certify:fake_proved path);
      Codegen.Shared_cache.clear ();
      let r = Codegen.Plan_store.load ~verify:trust path in
      check_int "every entry admitted" n r.Codegen.Plan_store.loaded;
      check_int "none rejected" 0 r.Codegen.Plan_store.rejected;
      check_int "no diagnostics" 0 (List.length r.Codegen.Plan_store.diags));
  List.iter
    (fun (k, (p, st)) ->
      check_bool (slug p ^ " plan restored") true
        (match Codegen.Shared_cache.find_conversion k with
        | Some p' -> Plan_support.plan_equal p p'
        | None -> false);
      check_bool "staging plan restored" true
        (match Codegen.Shared_cache.find_staging k with
        | Some st' -> Plan_support.staging_equal st st'
        | None -> false))
    entries

let test_missing_file_is_cold_start () =
  fresh_start ();
  let r = Codegen.Plan_store.load ~verify:trust "/nonexistent/ll_plan_store_missing.tsv" in
  check_int "loaded" 0 r.Codegen.Plan_store.loaded;
  check_int "rejected" 0 r.Codegen.Plan_store.rejected;
  check_int "no diagnostics" 0 (List.length r.Codegen.Plan_store.diags)

(* {1 Fault injection} *)

(* A saved store over a handful of pairs, certified by the liar (so
   certificate-sensitive tests control the verdict text). *)
let saved_store ?(certify = fake_proved) () =
  fresh_start ();
  List.iter
    (fun pr -> ignore (populate pr 4))
    [ List.nth pairs 0; List.nth pairs 3; List.nth pairs 6 ];
  let path = tmpfile () in
  let (_ : int) = Codegen.Plan_store.save ~certify path in
  Codegen.Shared_cache.clear ();
  path

let expect_whole_file_miss what code path =
  let r = Codegen.Plan_store.load ~verify:trust path in
  check_int (what ^ ": nothing loaded") 0 r.Codegen.Plan_store.loaded;
  check_bool (what ^ ": " ^ code ^ " warning") true (has_code code r);
  check_bool (what ^ ": warnings only") true
    (not (Diagnostics.has_errors r.Codegen.Plan_store.diags));
  check_int (what ^ ": cache stays empty") 0 (Codegen.Shared_cache.length ())

let test_truncated () =
  let path = saved_store () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents - 40));
      expect_whole_file_miss "truncated" "LL900" path)

let test_bit_flip () =
  let path = saved_store () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let contents = read_file path in
      let b = Bytes.of_string contents in
      let mid = String.index contents '\n' + ((Bytes.length b - String.index contents '\n') / 2) in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 1));
      write_file path (Bytes.to_string b);
      expect_whole_file_miss "bit-flipped" "LL900" path)

let test_version_bump () =
  let path = saved_store () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let contents = read_file path in
      let nl = String.index contents '\n' in
      let header = String.sub contents 0 nl in
      let rest = String.sub contents nl (String.length contents - nl) in
      (match String.split_on_char ' ' header with
      | [ magic; v; n; ck ] ->
          let bumped =
            String.concat " " [ magic; string_of_int (int_of_string v + 1); n; ck ]
          in
          write_file path (bumped ^ rest)
      | _ -> Alcotest.fail "unexpected store header");
      expect_whole_file_miss "version-bumped" "LL901" path)

let test_verify_rejects_all () =
  let path = saved_store () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = Codegen.Plan_store.load ~verify:(fun ~machine:_ _ _ -> false) path in
      (* Conversion plans are rejected; staging plans carry no
         certificate and pass on integrity + structure. *)
      check_int "every conversion rejected" 3 r.Codegen.Plan_store.rejected;
      check_bool "LL902 warning" true (has_code "LL902" r);
      check_bool "no conversion admitted" true
        (Codegen.Shared_cache.fold_conversions (fun _ _ _ -> false) true);
      check_int "staging plans admitted" 3 r.Codegen.Plan_store.loaded)

let test_uncertified_rejected_when_verifying () =
  fresh_start ();
  let (_ : _ * _) = populate (List.hd pairs) 4 in
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Saved by a certifier that declines every plan: even a trusting
         verifier must not admit an entry with no certificate. *)
      let (_ : int) = Codegen.Plan_store.save ~certify:(fun ~machine:_ _ -> None) path in
      Codegen.Shared_cache.clear ();
      let r = Codegen.Plan_store.load ~verify:trust path in
      check_bool "uncertified conversion rejected" true (r.Codegen.Plan_store.rejected > 0);
      check_bool "LL902 warning" true (has_code "LL902" r))

let test_transval_rejects_tampered_plan () =
  fresh_start ();
  (* A mechanism-tag swap: claim No_op for a pair whose conversion
     really moves data.  (Tampering a plan's layouts or shuffle rounds
     is self-healing — the lowering re-derives the wiring from the
     claimed layouts — so the tag is exactly the field whose corruption
     yields a wrong-but-plausible plan.)  The lying certifier stamps it
     "proved"; only Transval re-verification stands between the store
     and the wrong plan. *)
  let src, dst =
    List.find
      (fun (src, dst) ->
        match
          (Codegen.Conversion.plan m ~src ~dst ~byte_width:4).Codegen.Conversion.mechanism
        with
        | Codegen.Conversion.No_op | Codegen.Conversion.Register_permute -> false
        | _ -> true)
      pairs
  in
  Codegen.Shared_cache.add_conversion
    (key ~src ~dst ~byte_width:4)
    { Codegen.Conversion.src; dst; byte_width = 4; mechanism = Codegen.Conversion.No_op };
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (_ : int) = Codegen.Plan_store.save ~certify:fake_proved path in
      Codegen.Shared_cache.clear ();
      let r = Codegen.Plan_store.load ~verify:transval_verify path in
      check_int "tampered plan rejected" 1 r.Codegen.Plan_store.rejected;
      check_bool "LL902 warning" true (has_code "LL902" r);
      check_int "cache stays empty" 0 (Codegen.Shared_cache.length ()))

let test_transval_roundtrip_admits_good_plans () =
  fresh_start ();
  let (_ : _ * _) = populate (List.nth pairs 2) 4 in
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (_ : int) = Codegen.Plan_store.save ~certify:transval_certify path in
      Codegen.Shared_cache.clear ();
      let r = Codegen.Plan_store.load ~verify:transval_verify path in
      check_int "all entries re-proved and admitted" 2 r.Codegen.Plan_store.loaded;
      check_int "none rejected" 0 r.Codegen.Plan_store.rejected)

(* A daemon warm-started from a certified store and stopped at once:
   the warm start proves every loaded plan (each is a fresh value), the
   save at shutdown reads those certificates and proves nothing, and
   the rewritten store is the loaded one, byte for byte. *)
let test_save_after_warm_start () =
  fresh_start ();
  List.iter (fun pr -> ignore (populate pr 4)) [ List.nth pairs 0; List.nth pairs 2; List.nth pairs 5 ];
  let path = tmpfile () in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ll_test_plan_store_%d.sock" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (_ : int) = Codegen.Plan_store.save ~certify:transval_certify path in
      let loaded = read_file path in
      let checked () = Obs.Metrics.counter_value "transval.certificates.checked" in
      let at_load, at_save =
        Obs.with_enabled (fun () ->
            let before = checked () in
            let srv = Tir.Server.start ~domains:1 ~store:path ~reset:true ~socket:sock () in
            let at_load = checked () - before in
            check_int "warm start admits every entry" 0
              (Tir.Server.store_report srv).Codegen.Plan_store.rejected;
            let before = checked () in
            Tir.Server.stop srv;
            (at_load, checked () - before))
      in
      check_int "the warm start proves each conversion plan" 3 at_load;
      check_int "the save proves nothing" 0 at_save;
      Alcotest.(check string) "the rewritten store is the loaded one" loaded (read_file path))

let test_atomic_save_leaves_no_temp () =
  let path = saved_store () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let dir = Filename.dirname path in
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f >= 10
               && String.sub f 0 10 = "plan_store"
               && Filename.check_suffix f ".tmp")
      in
      check_int "no temp files left behind" 0 (List.length leftovers);
      (* And the rename really landed: the file loads clean. *)
      let r = Codegen.Plan_store.load ~verify:trust path in
      check_int "rejected" 0 r.Codegen.Plan_store.rejected;
      check_bool "loaded" true (r.Codegen.Plan_store.loaded > 0))

let () =
  Alcotest.run "plan_store"
    (Shuffle_support.maybe_shuffle
       [
         ( "codec",
           [
             Alcotest.test_case "save/load round-trips conversion and staging plans" `Quick
               test_roundtrip;
             Alcotest.test_case "missing file is a clean cold start" `Quick
               test_missing_file_is_cold_start;
             Alcotest.test_case "atomic save leaves no temp file" `Quick
               test_atomic_save_leaves_no_temp;
           ] );
         ( "fault-injection",
           [
             Alcotest.test_case "truncated file loads as a miss (LL900)" `Quick test_truncated;
             Alcotest.test_case "bit-flipped file loads as a miss (LL900)" `Quick test_bit_flip;
             Alcotest.test_case "version bump loads as a miss (LL901)" `Quick test_version_bump;
             Alcotest.test_case "verify callback rejects everything (LL902)" `Quick
               test_verify_rejects_all;
             Alcotest.test_case "uncertified entries rejected under verify (LL902)" `Quick
               test_uncertified_rejected_when_verifying;
           ] );
         ( "transval",
           [
             Alcotest.test_case "tampered plan with lying certificate is rejected" `Quick
               test_transval_rejects_tampered_plan;
             Alcotest.test_case "good plans re-prove and round-trip" `Quick
               test_transval_roundtrip_admits_good_plans;
             Alcotest.test_case "save after a warm start proves nothing" `Quick
               test_save_after_warm_start;
           ] );
       ])
