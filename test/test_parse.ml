(* The layout parser against the former token-list parser
   (Parse_oracle): on every input, valid or malformed, both give the
   same layout ([Layout.equal]) or the same error text.  Valid inputs
   are [Parse.to_string] literals of random layouts; malformed ones are
   those literals with characters dropped, duplicated or replaced, or
   cut short. *)

open Linear_layout

(* {1 Random layouts} *)

let in_pool = [ Dims.register; Dims.lane; Dims.warp; Dims.block ]
let out_pool = [ Dims.dim 0; Dims.dim 1; Dims.dim 2 ]

(* A non-empty subset of [pool], each dimension with [0..max_bits] bits. *)
let gen_dims pool ~max_bits =
  QCheck.Gen.(
    let* picks = list_repeat (List.length pool) (pair bool (int_bound max_bits)) in
    let dims =
      List.concat (List.map2 (fun d (keep, bits) -> if keep then [ (d, bits) ] else []) pool picks)
    in
    let+ first = int_bound max_bits in
    if dims = [] then [ (List.hd pool, first) ] else dims)

let gen_layout =
  QCheck.Gen.(
    let* ins = gen_dims in_pool ~max_bits:3 in
    let* outs = gen_dims out_pool ~max_bits:4 in
    let rows = List.fold_left (fun a (_, b) -> a + b) 0 outs in
    let cols = List.fold_left (fun a (_, b) -> a + b) 0 ins in
    let+ cols = list_repeat cols (int_bound ((1 lsl rows) - 1)) in
    Layout.of_matrix ~ins ~outs (F2.Bitmatrix.make ~rows (Array.of_list cols)))

(* {1 Malformed literals} *)

(* Characters a replacement draws from: the grammar's own symbols,
   digits, name characters, whitespace and a few it rejects. *)
let alphabet = "=[](),:->0123456789 \n\tadimlnegrstwxz_$.>-+*\255"

let gen_mutation s =
  QCheck.Gen.(
    let n = String.length s in
    let* i = int_bound (max 0 (n - 1)) in
    let* c = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
    let* k = int_bound 3 in
    return
      (if n = 0 then String.make 1 c
       else
         match k with
         | 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
         | 1 -> String.sub s 0 (i + 1) ^ String.sub s i (n - i)
         | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
         | _ -> String.sub s 0 i))

(* One to three mutations of a random layout's literal. *)
let gen_malformed =
  QCheck.Gen.(
    let* l = gen_layout in
    let* times = int_range 1 3 in
    let rec go s k = if k = 0 then return s else gen_mutation s >>= fun s -> go s (k - 1) in
    go (Parse.to_string l) times)

(* {1 Agreement} *)

let outcome f s =
  match f s with
  | Ok l -> `Ok l
  | Error e -> `Error e
  | exception e -> `Raised (Printexc.to_string e)

let agree s =
  match (outcome Parse.of_string s, outcome Parse_oracle.of_string s) with
  | `Ok a, `Ok b -> Layout.equal a b
  | `Error a, `Error b -> String.equal a b
  | `Raised a, `Raised b -> String.equal a b
  | _ -> false

let show s =
  let side = function
    | `Ok l -> "Ok " ^ Parse.to_string l
    | `Error e -> "Error " ^ e
    | `Raised e -> "raised " ^ e
  in
  Printf.sprintf "%S\n  scanner: %s\n  oracle:  %s" s
    (side (outcome Parse.of_string s))
    (side (outcome Parse_oracle.of_string s))

let prop_valid =
  QCheck.Test.make ~name:"valid literals: same layout as the oracle" ~count:500
    (QCheck.make gen_layout ~print:Parse.to_string)
    (fun l ->
      let s = Parse.to_string l in
      agree s
      && match Parse.of_string s with Ok l' -> Layout.equal l l' | Error _ -> false)

let prop_malformed =
  QCheck.Test.make ~name:"malformed literals: same outcome as the oracle" ~count:3000
    (QCheck.make gen_malformed ~print:show)
    agree

(* Inputs the mutations rarely reach: each error the grammar names, a
   lexical error behind a grammar error, integers at and past
   [max_int], and a layout [Layout.make] refuses. *)
let fixed =
  [
    "";
    " ";
    "->";
    "-> dim0:16";
    "register=[] -> dim0:1";
    "register=[0] -> dim0:1";
    "register=[(dim0:1)] -> dim0:2";
    "register=[(dim0:1),(dim0:2)] -> dim0:4, dim1:1";
    "register=[(dim0:1),] -> dim0:4";
    "register=[(dim0:1)(dim0:2)] -> dim0:4";
    "register=[(dim0 1)] -> dim0:4";
    "register=[(dim0:1] -> dim0:4";
    "register=[1] -> dim0:4";
    "register=[00] -> dim0:4";
    "register=[(dim0:1)] -> dim0:3";
    "register=[(dim0:1)] -> dim0:0";
    "register=[(dim0:1)] -> dim0:2,";
    "register=[(dim0:1)] -> dim0:2 dim1:2";
    "register=[(dim0:1)] dim0:2";
    "register [(dim0:1)] -> dim0:2";
    "register=(dim0:1) -> dim0:2";
    "register=[(dim0:1)] -> dim0:2 $";
    "$ register=[(dim0:1)] -> dim0:2";
    "register=[(dim0:1)] -> dim0:2 - ";
    "register=[(dim0:1)] > dim0:2";
    "register=[(dim0:4611686018427387903)] -> dim0:2";
    "register=[(dim0:4611686018427387904)] -> dim0:2";
    "register=[(dim0:99999999999999999999)] -> dim0:2";
    "register=[(dim0:1)] -> dim0:4611686018427387904";
    "register=[(dim0:1)] -> dim0:1152921504606846976";
    "register=[(dim0:1)] -> dim0:000000000000000000002";
    "register=[(dim9:1)] -> dim0:2";
    "register=[(dim0:2)] -> dim0:2";
    "register=[(dim0:1)] register=[(dim0:1)] -> dim0:2";
    "register=[(dim0:1)] -> dim0:2, dim0:2";
    "lane=[(dim0:1)] -> dim0:2 \255";
    "_x9=[(d_0:1)]->d_0:2";
    "register=[(dim0:1,dim1:1)]\n\t-> dim0:2,\r dim1:2";
  ]

let test_fixed () =
  List.iter (fun s -> if not (agree s) then Alcotest.failf "disagreement on %s" (show s)) fixed

let () =
  Alcotest.run "parse"
    (Shuffle_support.maybe_shuffle
       [
         ( "differential",
           Alcotest.test_case "fixed inputs agree with the oracle" `Quick test_fixed
           :: List.map QCheck_alcotest.to_alcotest [ prop_valid; prop_malformed ] );
       ])
