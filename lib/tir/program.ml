type id = int

type node =
  | Load of { name : string }
  | Iota of { axis : int }
  | Full of { value : float }
  | Store of { src : id }
  | Elementwise of { name : string; srcs : id list }
  | Dot of { a : id; b : id }
  | Reduce of { src : id; axis : int }
  | Expand_dims of { src : id; axis : int }
  | Broadcast of { src : id }
  | Trans of { src : id; perm : int array }
  | Reshape of { src : id }
  | Gather of { src : id; index : id; axis : int }
  | Join of { a : id; b : id }
  | Split of { src : id; half : int }
  | Scan of { src : id; axis : int; reverse : bool }
  | Convert of { src : id }

type instr = {
  node : node;
  shape : int array;
  dtype : Tensor_lib.Dtype.t;
  mutable layout : Linear_layout.Layout.t option;
  mutable kind : Legacy.Support.layout_kind;
}

type t = { mutable buf : instr option array; mutable len : int }

let create () = { buf = Array.make 8 None; len = 0 }

(* Nodes, shapes and dtypes are immutable and shared; only the mutable
   layout assignment is duplicated, so engine runs on the copy leave
   the original untouched (parallel strategy evaluation). *)
let copy t =
  {
    buf =
      Array.map
        (Option.map (fun i ->
             {
               node = i.node;
               shape = i.shape;
               dtype = i.dtype;
               layout = i.layout;
               kind = i.kind;
             }))
        t.buf;
    len = t.len;
  }
let length t = t.len
let instr t i = Option.get t.buf.(i)
let instrs t = Array.init t.len (instr t)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (instr t i)
  done

let add t node ~shape ~dtype =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) None in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- Some { node; shape; dtype; layout = None; kind = Legacy.Support.Blocked };
  t.len <- t.len + 1;
  t.len - 1

let load t ?(name = "x") ~shape ~dtype () = add t (Load { name }) ~shape ~dtype

let iota t ~shape ~axis =
  if axis < 0 || axis >= Array.length shape then invalid_arg "Program.iota: bad axis";
  add t (Iota { axis }) ~shape ~dtype:Tensor_lib.Dtype.I32

let full t ~shape ~dtype value = add t (Full { value }) ~shape ~dtype

let store t src =
  let s = instr t src in
  add t (Store { src }) ~shape:s.shape ~dtype:s.dtype

let elementwise t ?(name = "ew") srcs =
  match srcs with
  | [] -> invalid_arg "Program.elementwise: no sources"
  | first :: _ ->
      let s = instr t first in
      add t (Elementwise { name; srcs }) ~shape:s.shape ~dtype:s.dtype

let dot t ~a ~b ~acc =
  let sa = (instr t a).shape and sb = (instr t b).shape in
  (match (sa, sb) with
  | [| _; k |], [| k'; _ |] when k = k' -> ()
  | _ -> invalid_arg "Program.dot: shapes must be [m;k] x [k;n]");
  add t (Dot { a; b }) ~shape:[| sa.(0); sb.(1) |] ~dtype:acc

let reduce t src ~axis =
  let s = instr t src in
  let shape =
    Array.of_list (List.filteri (fun d _ -> d <> axis) (Array.to_list s.shape))
  in
  add t (Reduce { src; axis }) ~shape ~dtype:s.dtype

let expand_dims t src ~axis =
  let s = instr t src in
  let lst = Array.to_list s.shape in
  let rec ins i = function
    | rest when i = axis -> 1 :: rest
    | [] -> invalid_arg "Program.expand_dims: bad axis"
    | x :: rest -> x :: ins (i + 1) rest
  in
  add t (Expand_dims { src; axis }) ~shape:(Array.of_list (ins 0 lst)) ~dtype:s.dtype

let broadcast t src ~shape =
  let s = instr t src in
  if Array.length shape <> Array.length s.shape then
    invalid_arg "Program.broadcast: rank mismatch";
  Array.iteri
    (fun d sz ->
      if s.shape.(d) <> sz && s.shape.(d) <> 1 then
        invalid_arg "Program.broadcast: only size-1 dims can grow")
    shape;
  add t (Broadcast { src }) ~shape ~dtype:s.dtype

let trans t src ~perm =
  let s = instr t src in
  add t (Trans { src; perm }) ~shape:(Array.map (fun d -> s.shape.(d)) perm) ~dtype:s.dtype

let reshape t src ~shape =
  let s = instr t src in
  if Array.fold_left ( * ) 1 shape <> Array.fold_left ( * ) 1 s.shape then
    invalid_arg "Program.reshape: element count mismatch";
  add t (Reshape { src }) ~shape ~dtype:s.dtype

let gather t ~src ~index ~axis =
  let s = instr t src in
  add t (Gather { src; index; axis }) ~shape:s.shape ~dtype:s.dtype

let join t ~a ~b =
  let sa = (instr t a).shape and sb = (instr t b).shape in
  if sa <> sb then invalid_arg "Program.join: shape mismatch";
  add t (Join { a; b }) ~shape:(Array.append sa [| 2 |]) ~dtype:(instr t a).dtype

let split t src ~half =
  let s = instr t src in
  let n = Array.length s.shape in
  if n = 0 || s.shape.(n - 1) <> 2 then
    invalid_arg "Program.split: last dimension must have size 2";
  if half <> 0 && half <> 1 then invalid_arg "Program.split: half must be 0 or 1";
  add t (Split { src; half }) ~shape:(Array.sub s.shape 0 (n - 1)) ~dtype:s.dtype

let scan t src ~axis ~reverse =
  let s = instr t src in
  if axis < 0 || axis >= Array.length s.shape then invalid_arg "Program.scan: bad axis";
  add t (Scan { src; axis; reverse }) ~shape:s.shape ~dtype:s.dtype

let node_name = function
  | Load { name } -> "load:" ^ name
  | Iota { axis } -> Printf.sprintf "iota[%d]" axis
  | Full { value } -> Printf.sprintf "full(%g)" value
  | Store _ -> "store"
  | Elementwise { name; _ } -> "ew:" ^ name
  | Dot _ -> "dot"
  | Reduce { axis; _ } -> Printf.sprintf "reduce[%d]" axis
  | Expand_dims { axis; _ } -> Printf.sprintf "expand_dims[%d]" axis
  | Broadcast _ -> "broadcast"
  | Trans _ -> "trans"
  | Reshape _ -> "reshape"
  | Gather { axis; _ } -> Printf.sprintf "gather[%d]" axis
  | Join _ -> "join"
  | Split { half; _ } -> Printf.sprintf "split[%d]" half
  | Scan { axis; reverse; _ } ->
      Printf.sprintf "%scumsum[%d]" (if reverse then "reverse_" else "") axis
  | Convert _ -> "convert_layout"

let pp ppf t =
  Array.iteri
    (fun i ins ->
      Format.fprintf ppf "%%%d = %s : %s<%s>@." i (node_name ins.node)
        (Tensor_lib.Dtype.name ins.dtype)
        (String.concat "x" (Array.to_list (Array.map string_of_int ins.shape))))
    (instrs t)
