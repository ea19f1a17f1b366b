(** A miniature tile-level tensor IR mirroring Triton's op categories
    (Section 4.4): memory ops, computation ops, shape ops, and layout
    conversions.  Programs are SSA: an instruction is identified by its
    index. *)

type id = int

type node =
  | Load of { name : string }  (** global-memory load (anchor) *)
  | Iota of { axis : int }  (** [tl.arange]: the coordinate along [axis] *)
  | Full of { value : float }  (** a constant tensor *)
  | Store of { src : id }  (** global-memory store (anchor) *)
  | Elementwise of { name : string; srcs : id list }
  | Dot of { a : id; b : id }  (** [m,k] x [k,n] -> [m,n] *)
  | Reduce of { src : id; axis : int }
  | Expand_dims of { src : id; axis : int }
  | Broadcast of { src : id }  (** size-1 dims grown to the instr shape *)
  | Trans of { src : id; perm : int array }
  | Reshape of { src : id }
  | Gather of { src : id; index : id; axis : int }
  | Join of { a : id; b : id }
      (** stack two equal-shaped values along a new trailing dim of 2 *)
  | Split of { src : id; half : int }
      (** take half [0] or [1] of a trailing dimension of size 2 *)
  | Scan of { src : id; axis : int; reverse : bool }
      (** inclusive associative scan (cumsum) along [axis] *)
  | Convert of { src : id }  (** engine-inserted layout conversion *)

type instr = {
  node : node;
  shape : int array;
  dtype : Tensor_lib.Dtype.t;
  mutable layout : Linear_layout.Layout.t option;
  mutable kind : Legacy.Support.layout_kind;
      (** which legacy layout family would carry this value; used by the
          legacy baseline, which cannot compare across kinds *)
}

type t

val create : unit -> t

(** An independent copy of the layout assignment: nodes/shapes/dtypes
    are shared (immutable), the mutable [layout]/[kind] fields are
    duplicated, so engine runs on the copy leave the original
    untouched. *)
val copy : t -> t

val instrs : t -> instr array

(** [iteri f t] calls [f id instr] on every instruction in order,
    without copying them out as {!instrs} does. *)
val iteri : (id -> instr -> unit) -> t -> unit
val instr : t -> id -> instr
val length : t -> int

(** {1 Builders} — each returns the new instruction's [id] and infers
    shape and dtype. *)

val load : t -> ?name:string -> shape:int array -> dtype:Tensor_lib.Dtype.t -> unit -> id
val iota : t -> shape:int array -> axis:int -> id
val full : t -> shape:int array -> dtype:Tensor_lib.Dtype.t -> float -> id
val store : t -> id -> id
val elementwise : t -> ?name:string -> id list -> id
val dot : t -> a:id -> b:id -> acc:Tensor_lib.Dtype.t -> id
val reduce : t -> id -> axis:int -> id
val expand_dims : t -> id -> axis:int -> id
val broadcast : t -> id -> shape:int array -> id
val trans : t -> id -> perm:int array -> id
val reshape : t -> id -> shape:int array -> id
val gather : t -> src:id -> index:id -> axis:int -> id
val join : t -> a:id -> b:id -> id
val split : t -> id -> half:int -> id
val scan : t -> id -> axis:int -> reverse:bool -> id

val pp : Format.formatter -> t -> unit
