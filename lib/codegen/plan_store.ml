open Linear_layout

let version = 2
let magic = "LLPLANSTORE"

type cert = { method_ : string; points : int; verdict : string }
type load_report = { loaded : int; rejected : int; diags : Diagnostics.t list }

let empty_report = { loaded = 0; rejected = 0; diags = [] }

(* {1 Field codec}

   One entry per line, fields separated by tabs.  Layout literals (the
   {!Parse} grammar) contain neither tabs nor newlines; free-form
   strings (machine names, certificate fields) are percent-escaped so
   they cannot either. *)

let escape s =
  if String.for_all (fun c -> c <> '\t' && c <> '\n' && c <> '\r' && c <> '%') s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '%' -> Buffer.add_string b "%25"
        | '\t' -> Buffer.add_string b "%09"
        | '\n' -> Buffer.add_string b "%0A"
        | '\r' -> Buffer.add_string b "%0D"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape s =
  match String.index_opt s '%' with
  | None -> s
  | Some _ ->
      let b = Buffer.create (String.length s) in
      let n = String.length s in
      let i = ref 0 in
      while !i < n do
        if s.[!i] = '%' && !i + 2 < n then begin
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!i + 1) 2)));
          i := !i + 3
        end
        else begin
          Buffer.add_char b s.[!i];
          incr i
        end
      done;
      Buffer.contents b

type cursor = { fields : string array; mutable pos : int }

let next c =
  if c.pos >= Array.length c.fields then failwith "truncated entry";
  let f = c.fields.(c.pos) in
  c.pos <- c.pos + 1;
  f

let next_int c = int_of_string (next c)
let enc_ints = function [] -> "-" | l -> String.concat "," (List.map string_of_int l)
let dec_ints = function "-" -> [] | s -> List.map int_of_string (String.split_on_char ',' s)
let enc_layout l = escape (Parse.to_string l)

let dec_layout s =
  match Parse.of_string (unescape s) with
  | Ok l -> Layout.Memo.intern l
  | Error e -> failwith ("bad layout literal: " ^ e)

let enc_shuffle (sh : Shuffle.t) =
  [
    enc_layout sh.Shuffle.src;
    enc_layout sh.Shuffle.dst;
    enc_ints sh.Shuffle.vec;
    enc_ints sh.Shuffle.common_thr;
    enc_ints sh.Shuffle.g;
    enc_ints sh.Shuffle.ext;
    string_of_int sh.Shuffle.rounds;
    string_of_int sh.Shuffle.shuffles_per_round;
  ]

let dec_shuffle c =
  let src = dec_layout (next c) in
  let dst = dec_layout (next c) in
  let vec = dec_ints (next c) in
  let common_thr = dec_ints (next c) in
  let g = dec_ints (next c) in
  let ext = dec_ints (next c) in
  let rounds = next_int c in
  let shuffles_per_round = next_int c in
  { Shuffle.src; dst; vec; common_thr; g; ext; rounds; shuffles_per_round }

let enc_swizzle (sw : Swizzle_opt.t) =
  [
    enc_layout sw.Swizzle_opt.mem;
    enc_ints sw.Swizzle_opt.vec;
    enc_ints sw.Swizzle_opt.seg;
    enc_ints sw.Swizzle_opt.bank;
    string_of_int sw.Swizzle_opt.vec_bits;
    string_of_int sw.Swizzle_opt.store_wavefronts;
    string_of_int sw.Swizzle_opt.load_wavefronts;
  ]

let dec_swizzle c =
  let mem = dec_layout (next c) in
  let vec = dec_ints (next c) in
  let seg = dec_ints (next c) in
  let bank = dec_ints (next c) in
  let vec_bits = next_int c in
  let store_wavefronts = next_int c in
  let load_wavefronts = next_int c in
  { Swizzle_opt.mem; vec; seg; bank; vec_bits; store_wavefronts; load_wavefronts }

let enc_cost (c : Gpusim.Cost.t) =
  String.concat ","
    (List.map string_of_int
       [
         c.Gpusim.Cost.smem_wavefronts;
         c.Gpusim.Cost.smem_insts;
         c.Gpusim.Cost.shuffles;
         c.Gpusim.Cost.gmem_transactions;
         c.Gpusim.Cost.gmem_insts;
         c.Gpusim.Cost.ldmatrix;
         c.Gpusim.Cost.alu;
         c.Gpusim.Cost.mma;
         c.Gpusim.Cost.barriers;
       ])

let dec_cost s =
  match List.map int_of_string (String.split_on_char ',' s) with
  | [ wf; si; sh; gt; gi; ld; alu; mma; bar ] ->
      {
        Gpusim.Cost.smem_wavefronts = wf;
        smem_insts = si;
        shuffles = sh;
        gmem_transactions = gt;
        gmem_insts = gi;
        ldmatrix = ld;
        alu;
        mma;
        barriers = bar;
      }
  | _ -> failwith "bad cost vector"

let enc_mech = function
  | Conversion.No_op -> [ "noop" ]
  | Conversion.Register_permute -> [ "regperm" ]
  | Conversion.Global_roundtrip -> [ "globalrt" ]
  | Conversion.Warp_shuffle sh -> "shuffle" :: enc_shuffle sh
  | Conversion.Warp_shuffle_compressed sh -> "shuffle_c" :: enc_shuffle sh
  | Conversion.Shared_memory sw -> "smem" :: enc_swizzle sw

let dec_mech c =
  match next c with
  | "noop" -> Conversion.No_op
  | "regperm" -> Conversion.Register_permute
  | "globalrt" -> Conversion.Global_roundtrip
  | "shuffle" -> Conversion.Warp_shuffle (dec_shuffle c)
  | "shuffle_c" -> Conversion.Warp_shuffle_compressed (dec_shuffle c)
  | "smem" -> Conversion.Shared_memory (dec_swizzle c)
  | t -> failwith ("unknown mechanism tag " ^ t)

let enc_staging = function
  | None -> [ "none" ]
  | Some (s : Operand_staging.t) ->
      [
        "some";
        enc_layout s.Operand_staging.mem;
        string_of_int s.Operand_staging.vec;
        string_of_int s.Operand_staging.per_phase;
        string_of_int s.Operand_staging.max_phase;
        string_of_bool s.Operand_staging.uses_ldmatrix;
        enc_cost s.Operand_staging.staging_cost;
      ]

let dec_staging c =
  match next c with
  | "none" -> None
  | "some" ->
      let mem = dec_layout (next c) in
      let vec = next_int c in
      let per_phase = next_int c in
      let max_phase = next_int c in
      let uses_ldmatrix = bool_of_string (next c) in
      let staging_cost = dec_cost (next c) in
      Some { Operand_staging.mem; vec; per_phase; max_phase; uses_ldmatrix; staging_cost }
  | t -> failwith ("unknown staging tag " ^ t)

let enc_cert = function
  | None -> [ "nocert" ]
  | Some ct -> [ "cert"; escape ct.method_; string_of_int ct.points; escape ct.verdict ]

let dec_cert c =
  match next c with
  | "nocert" -> None
  | "cert" ->
      let method_ = unescape (next c) in
      let points = next_int c in
      let verdict = unescape (next c) in
      Some { method_; points; verdict }
  | t -> failwith ("unknown certificate tag " ^ t)

let key_fields (k : Shared_cache.Key.t) =
  [
    escape k.Shared_cache.Key.machine;
    string_of_int k.Shared_cache.Key.byte_width;
    enc_layout k.Shared_cache.Key.src;
    enc_layout k.Shared_cache.Key.dst;
  ]

let dec_key c =
  let machine = unescape (next c) in
  let byte_width = next_int c in
  let src = dec_layout (next c) in
  let dst = dec_layout (next c) in
  { Shared_cache.Key.machine; src; dst; byte_width }

(* {1 Integrity} *)

(* FNV-1a folded into OCaml's 63-bit int range; strong enough to catch
   the truncations and bit flips a cache file meets, cheap enough to
   run on every load. *)
let checksum s =
  let h = ref 0x1505 in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0x1FFFFFFFFFFFFFFF) s;
  !h

let atomic_write path contents =
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) "plan_store" ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
  Sys.rename tmp path

(* {1 Save} *)

let save ~certify path =
  (* Snapshot under the stripe locks first; certify (which may lower
     and symbolically execute plans) strictly outside them. *)
  let convs = Shared_cache.fold_conversions (fun k v acc -> (k, v) :: acc) [] in
  let stages = Shared_cache.fold_stagings (fun k v acc -> (k, v) :: acc) [] in
  let stamp (k : Shared_cache.Key.t) plan =
    enc_cert (certify ~machine:k.Shared_cache.Key.machine plan)
  in
  let buf = Buffer.create 4096 in
  let count = ref 0 in
  let line fields =
    Buffer.add_string buf (String.concat "\t" fields);
    Buffer.add_char buf '\n';
    incr count
  in
  List.iter
    (fun (k, (p : Conversion.plan)) ->
      line (("conv" :: key_fields k) @ enc_mech p.Conversion.mechanism @ stamp k p))
    convs;
  List.iter (fun (k, st) -> line (("stage" :: key_fields k) @ enc_staging st)) stages;
  let body = Buffer.contents buf in
  atomic_write path (Printf.sprintf "%s %d %d %x\n%s" magic version !count (checksum body) body);
  !count

(* {1 Load} *)

let warn900 path fmt = Diagnostics.warning ~code:"LL900" ("plan store %s: " ^^ fmt) path
let fail900 path fmt = Format.kasprintf (fun m -> { empty_report with diags = [ warn900 path "%s" m ] }) fmt

let decode_entry line =
  let c = { fields = Array.of_list (String.split_on_char '\t' line); pos = 0 } in
  let tag = next c in
  let k = dec_key c in
  let e =
    match tag with
    | "conv" ->
        let mech = dec_mech c in
        let ct = dec_cert c in
        `Conv
          ( k,
            {
              Conversion.src = k.Shared_cache.Key.src;
              dst = k.Shared_cache.Key.dst;
              byte_width = k.Shared_cache.Key.byte_width;
              mechanism = mech;
            },
            ct )
    | "stage" -> `Stage (k, dec_staging c)
    | t -> failwith ("unknown entry tag " ^ t)
  in
  if c.pos <> Array.length c.fields then failwith "trailing fields";
  e

let load ~verify path =
  if not (Sys.file_exists path) then empty_report
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> fail900 path "unreadable: %s" msg
    | contents -> (
        match String.index_opt contents '\n' with
        | None -> fail900 path "missing header"
        | Some nl -> (
            let header = String.sub contents 0 nl in
            let body = String.sub contents (nl + 1) (String.length contents - nl - 1) in
            match String.split_on_char ' ' header with
            | [ m; v; n; ck ] when m = magic -> (
                match
                  (int_of_string_opt v, int_of_string_opt n, int_of_string_opt ("0x" ^ ck))
                with
                | Some v, _, _ when v <> version ->
                    {
                      empty_report with
                      diags =
                        [
                          Diagnostics.warning ~code:"LL901"
                            "plan store %s: format version %d, this build reads %d; \
                             starting cold"
                            path v version;
                        ];
                    }
                | Some _, Some n, Some ck ->
                    if checksum body <> ck then fail900 path "checksum mismatch (corrupt file)"
                    else begin
                      let lines =
                        List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
                      in
                      if List.length lines <> n then
                        fail900 path "entry count mismatch (%d of %d; truncated?)"
                          (List.length lines) n
                      else begin
                        let loaded = ref 0 and rejected = ref 0 and diags = ref [] in
                        let reject d =
                          incr rejected;
                          diags := d :: !diags
                        in
                        let admit_cert (k : Shared_cache.Key.t) plan stored =
                          match stored with
                          | Some ct ->
                              ct.verdict = "proved"
                              && verify ~machine:k.Shared_cache.Key.machine plan ct
                          | None -> false
                        in
                        let ll902 k what =
                          Diagnostics.warning ~code:"LL902"
                            "plan store %s: %s for %s rejected: certificate missing or no \
                             longer verifies"
                            path what k.Shared_cache.Key.machine
                        in
                        List.iteri
                          (fun i line ->
                            match decode_entry line with
                            | exception Failure msg ->
                                reject (warn900 path "entry %d: %s" i msg)
                            | `Conv (k, plan, ct) ->
                                if admit_cert k plan ct then begin
                                  Shared_cache.add_conversion k plan;
                                  incr loaded
                                end
                                else reject (ll902 k "conversion plan")
                            | `Stage (k, st) ->
                                let structurally_ok =
                                  match st with
                                  | None -> true
                                  | Some s -> Layout.is_invertible s.Operand_staging.mem
                                in
                                if structurally_ok then begin
                                  Shared_cache.add_staging k st;
                                  incr loaded
                                end
                                else reject (ll902 k "staging plan"))
                          lines;
                        { loaded = !loaded; rejected = !rejected; diags = List.rev !diags }
                      end
                    end
                | _, _, _ -> fail900 path "unparseable header %S" header)
            | _ -> fail900 path "bad magic in header %S" header))
