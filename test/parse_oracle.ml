(* The former layout parser, kept as a differential oracle: the string
   is tokenized into a list first (a boxed token and a cons cell per
   symbol), then read by pattern-matching parsers over that list.  The
   library now scans the string in place; test_parse.ml asserts both
   give the same layout or the same error text on every input, since the
   error text reaches clients in the daemon's LL913 replies. *)

open Linear_layout

type token = Name of string | Int of int | Sym of char

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '0' .. '9' ->
          let j = ref i in
          while !j < n && match s.[!j] with '0' .. '9' -> true | _ -> false do
            incr j
          done;
          go !j (Int (int_of_string (String.sub s i (!j - i))) :: acc)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let j = ref i in
          while
            !j < n
            && match s.[!j] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
          do
            incr j
          done;
          go !j (Name (String.sub s i (!j - i)) :: acc)
      | '-' when i + 1 < n && s.[i + 1] = '>' -> go (i + 2) (Sym '>' :: acc)
      | ('=' | '[' | ']' | '(' | ')' | ',' | ':') as c -> go (i + 1) (Sym c :: acc)
      | c -> failwith (Printf.sprintf "unexpected character %C" c)
  in
  go 0 []

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_coord = function
  | Name d :: Sym ':' :: Int v :: rest -> ((d, v), rest)
  | _ -> fail "expected dim:coord"

let rec parse_coords acc toks =
  let coord, toks = parse_coord toks in
  match toks with
  | Sym ',' :: rest -> parse_coords (coord :: acc) rest
  | Sym ')' :: rest -> (List.rev (coord :: acc), rest)
  | _ -> fail "expected ',' or ')' in image"

let parse_image = function
  | Int 0 :: rest -> ([], rest)
  | Sym '(' :: rest -> parse_coords [] rest
  | _ -> fail "expected image '(dim:coord,...)' or '0'"

let rec parse_images acc toks =
  let img, toks = parse_image toks in
  match toks with
  | Sym ',' :: rest -> parse_images (img :: acc) rest
  | Sym ']' :: rest -> (List.rev (img :: acc), rest)
  | _ -> fail "expected ',' or ']' in image list"

let rec parse_indims acc toks =
  match toks with
  | Sym '>' :: rest -> (List.rev acc, rest)
  | Name d :: Sym '=' :: Sym '[' :: rest -> (
      match rest with
      | Sym ']' :: rest' -> parse_indims ((d, []) :: acc) rest'
      | _ ->
          let images, rest' = parse_images [] rest in
          parse_indims ((d, images) :: acc) rest')
  | _ -> fail "expected input dimension 'name=[...]' or '->'"

let rec parse_outdims acc toks =
  match toks with
  | Name d :: Sym ':' :: Int size :: rest -> (
      if not (Util.is_pow2 size) then fail "output size %d is not a power of two" size;
      let acc = (d, Util.log2 size) :: acc in
      match rest with
      | Sym ',' :: rest' -> parse_outdims acc rest'
      | [] -> List.rev acc
      | _ -> fail "expected ',' or end after output dimension")
  | _ -> fail "expected output dimension 'name:size'"

let of_string s =
  try
    let toks = tokenize s in
    let ins, rest = parse_indims [] toks in
    let outs = parse_outdims [] rest in
    let layout =
      Layout.make
        ~ins:(List.map (fun (d, images) -> (d, List.length images)) ins)
        ~outs ~bases:ins
    in
    Ok layout
  with
  | Parse_error e -> Error e
  | Failure e -> Error e
  | Layout.Error e -> Error e
