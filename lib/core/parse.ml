let to_string l =
  let buf = Buffer.create 256 in
  List.iter
    (fun (d, bits) ->
      Buffer.add_string buf d;
      Buffer.add_string buf "=[";
      for k = 0 to bits - 1 do
        if k > 0 then Buffer.add_char buf ',';
        match Layout.basis l d k with
        | [] -> Buffer.add_char buf '0'
        | coords ->
            Buffer.add_char buf '(';
            List.iteri
              (fun i (od, c) ->
                if i > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf (Printf.sprintf "%s:%d" od c))
              coords;
            Buffer.add_char buf ')'
      done;
      Buffer.add_string buf "] ")
    (Layout.in_dims l);
  Buffer.add_string buf "-> ";
  List.iteri
    (fun i (d, bits) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "%s:%d" d (1 lsl bits)))
    (Layout.out_dims l);
  Buffer.contents buf

(* {1 Parsing}

   One index-based scanner over the string.  The lexer keeps a single
   token of lookahead in a mutable cursor, so no token list is built;
   a name is copied out of the string only where the layout keeps it,
   and the layout is built by one [Layout.make].

   Errors are those of a tokenize-then-parse reading: a lexical error
   (an unexpected character, or an integer beyond [max_int]) anywhere
   in the string wins over a grammar error, so a grammar error is
   reported only once the whole string is known to lex. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type kind = Eof | Name | Int | Sym

type cursor = {
  s : string;
  mutable pos : int;  (** first character after the current token *)
  mutable kind : kind;
  mutable start : int;  (** the current token's first character *)
  mutable int : int;  (** an [Int]'s value *)
  mutable sym : char;  (** a [Sym]'s character; ['>'] stands for "->" *)
}

let is_digit = function '0' .. '9' -> true | _ -> false
let is_name_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* Read the next token into the cursor; raises [Failure] on a lexical
   error. *)
let advance c =
  let s = c.s in
  let n = String.length s in
  let i = ref c.pos in
  while !i < n && match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    incr i
  done;
  let i = !i in
  c.start <- i;
  if i >= n then begin
    c.kind <- Eof;
    c.pos <- i
  end
  else
    match s.[i] with
    | '0' .. '9' ->
        let j = ref i and v = ref 0 in
        while !j < n && is_digit s.[!j] do
          v := (10 * !v) + Char.code s.[!j] - Char.code '0';
          incr j
        done;
        (* Eighteen digits cannot overflow; longer runs take
           [int_of_string]'s verdict. *)
        if !j - i > 18 then v := int_of_string (String.sub s i (!j - i));
        c.kind <- Int;
        c.int <- !v;
        c.pos <- !j
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref (i + 1) in
        while !j < n && is_name_char s.[!j] do
          incr j
        done;
        c.kind <- Name;
        c.pos <- !j
    | '-' when i + 1 < n && s.[i + 1] = '>' ->
        c.kind <- Sym;
        c.sym <- '>';
        c.pos <- i + 2
    | ('=' | '[' | ']' | '(' | ')' | ',' | ':') as ch ->
        c.kind <- Sym;
        c.sym <- ch;
        c.pos <- i + 1
    | ch -> failwith (Printf.sprintf "unexpected character %C" ch)

let is_sym c ch = c.kind = Sym && c.sym = ch

(* The current [Name] token, copied out, then advance. *)
let name c =
  let d = String.sub c.s c.start (c.pos - c.start) in
  advance c;
  d

(* coord := name ":" int *)
let coord c =
  if c.kind <> Name then fail "expected dim:coord";
  let d = name c in
  if not (is_sym c ':') then fail "expected dim:coord";
  advance c;
  if c.kind <> Int then fail "expected dim:coord";
  let v = c.int in
  advance c;
  (d, v)

let rec coords c =
  let x = coord c in
  if is_sym c ',' then begin
    advance c;
    x :: coords c
  end
  else if is_sym c ')' then begin
    advance c;
    [ x ]
  end
  else fail "expected ',' or ')' in image"

(* image := "0" | "(" coord ("," coord)* ")" *)
let image c =
  if c.kind = Int && c.int = 0 then begin
    advance c;
    []
  end
  else if is_sym c '(' then begin
    advance c;
    coords c
  end
  else fail "expected image '(dim:coord,...)' or '0'"

let rec images c =
  let img = image c in
  if is_sym c ',' then begin
    advance c;
    img :: images c
  end
  else if is_sym c ']' then begin
    advance c;
    [ img ]
  end
  else fail "expected ',' or ']' in image list"

(* indim* "->": the bases, in order *)
let rec indims c =
  if is_sym c '>' then begin
    advance c;
    []
  end
  else begin
    let bad () = fail "expected input dimension 'name=[...]' or '->'" in
    if c.kind <> Name then bad ();
    let d = name c in
    if not (is_sym c '=') then bad ();
    advance c;
    if not (is_sym c '[') then bad ();
    advance c;
    let imgs =
      if is_sym c ']' then begin
        advance c;
        []
      end
      else images c
    in
    let basis = (d, imgs) in
    basis :: indims c
  end

(* outdims := name ":" int ("," name ":" int)* *)
let rec outdims c =
  let bad () = fail "expected output dimension 'name:size'" in
  if c.kind <> Name then bad ();
  let d = name c in
  if not (is_sym c ':') then bad ();
  advance c;
  if c.kind <> Int then bad ();
  let size = c.int in
  advance c;
  if not (Util.is_pow2 size) then fail "output size %d is not a power of two" size;
  let out = (d, Util.log2 size) in
  if is_sym c ',' then begin
    advance c;
    out :: outdims c
  end
  else if c.kind = Eof then [ out ]
  else fail "expected ',' or end after output dimension"

(* A cursor on the first token of [s]; raises [Failure] on a lexical
   error there. *)
let cursor s =
  let c = { s; pos = 0; kind = Eof; start = 0; int = 0; sym = ' ' } in
  advance c;
  c

(* The first lexical error in [s], if any. *)
let lex_error s =
  let rec skip c =
    if c.kind <> Eof then begin
      advance c;
      skip c
    end
  in
  match skip (cursor s) with () -> None | exception Failure e -> Some e

let of_string s =
  try
    let c = cursor s in
    let bases = indims c in
    let outs = outdims c in
    let ins = List.map (fun (d, images) -> (d, List.length images)) bases in
    Ok (Layout.make ~ins ~outs ~bases)
  with
  | Parse_error e -> Error (match lex_error s with Some l -> l | None -> e)
  | Failure e -> Error e
  | Layout.Error e -> Error e
