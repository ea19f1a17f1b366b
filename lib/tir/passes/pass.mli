(** The typed pipeline state shared by the layout-engine passes, and
    the uniform signature every pass implements.

    The engine of Section 4.4 is staged as a pass pipeline (see
    {!Passes} for the registry and {!Pass_manager} for the driver):
    passes communicate exclusively through {!state} — the program with
    its in-place layout assignment, the pending conversion work-list,
    the recorded global/register access events, accumulated cost and
    statistics, and diagnostics. *)

open Linear_layout

type mode = Linear | Legacy_mode

type conversion_info = {
  at : Program.id;
  mechanism : string;
  conv_cost : Gpusim.Cost.t;
  plan : Codegen.Conversion.plan option;
}

type result = {
  cost : Gpusim.Cost.t;
  conversions : conversion_info list;
  converts : int;
  noop_converts : int;
  local_loads : int;
  local_stores : int;
  remats : int;
  unsupported : string list;
}

type request = {
  at : Program.id;  (** instruction requiring the converted value *)
  src : Program.id;
  src_layout : Layout.t;
      (** snapshot of [src]'s layout when the request was created: the
          dot pass and legacy normalization mutate layouts in place
          after requests referring to the old value were issued *)
  src_kind : Legacy.Support.layout_kind;  (** snapshot, like [src_layout] *)
  dst : Layout.t;
  dst_kind : Legacy.Support.layout_kind;
  ldmatrix_ok : bool;  (** feeds a tensor-core operand (Section 5.3) *)
  smem_resident : bool;  (** wgmma reads the operand from shared memory *)
  foldable : bool;
      (** equal-layout requests may be dropped by [simplify]; legacy
          normalization requests are unconditional and not foldable *)
  remat_candidate : bool;
      (** eligible for backward rematerialization (Section 4.4) *)
}

type store_candidate = {
  store_at : Program.id;
  store_src : Program.id;
  store_src_layout : Layout.t;  (** snapshot, as in {!request} *)
  store_src_kind : Legacy.Support.layout_kind;
  store_anchor : Layout.t;  (** the coalesced blocked anchor layout *)
}

type pending =
  | Convert of request
  | Store_decision of store_candidate
      (** resolved by [backward_remat] into a direct store or a
          [Convert] to the anchor *)
  | Remat of { remat_at : Program.id; remat_src : Program.id }
      (** a conversion replaced by recomputing [remat_src]'s cheap
          load/elementwise chain in the consumer's layout *)

type access_kind = Global_load | Global_store | Register_materialize

type access = {
  access_at : Program.id;
  access_kind : access_kind;
  access_layout : Layout.t;
      (** snapshot at anchor/decision time (dot may re-layout the
          instruction later; the access was planned against this) *)
  access_byte_width : int;
}

type state = {
  machine : Gpusim.Machine.t;
  mode : mode;
  num_warps : int;
  chooser : Strategy.t;
      (** commits one candidate per layout-assignment decision site
          (see {!Strategy}); {!Assign_greedy.strategy} by default *)
  prog : Program.t;
  total : Gpusim.Cost.t;
  chain_cost : (Program.id, Gpusim.Cost.t) Hashtbl.t;
      (** per-instruction cost of recomputing the value from loads
          through elementwise ops, when such a cheap chain exists *)
  mutable pending : pending list;  (** reverse creation order *)
  mutable accesses : access list;  (** reverse creation order *)
  mutable convs : conversion_info list;  (** reverse creation order *)
  mutable converts : int;
  mutable noops : int;
  mutable local_loads : int;
  mutable local_stores : int;
  mutable remats : int;
  mutable folded : int;  (** requests dropped by [simplify] *)
  mutable unsupported : string list;  (** reverse creation order *)
  mutable saw_reduce : bool;
  mutable decisions : (Strategy.site * int) list;
      (** every decision site observed this run with the committed
          choice, reverse site order *)
  mutable diags : Diagnostics.t list;  (** emission order *)
}

(** The uniform pass interface. [run] mutates the {!state}; the
    {!Pass_manager} provides instrumentation around it. *)
module type PASS = sig
  val name : string
  val description : string
  val run : state -> unit
end

type t = (module PASS)

(** [init machine ~mode prog] resets the program's layout assignment
    (making engine reruns idempotent) and returns a fresh state.
    [num_warps] defaults to 4.  [chooser] selects the layout-assignment
    strategy (greedy by default). *)
val init :
  Gpusim.Machine.t ->
  mode:mode ->
  ?num_warps:int ->
  ?chooser:Strategy.t ->
  Program.t ->
  state

(** Ask the state's strategy to commit a candidate for [site],
    recording the decision in {!state.decisions}. *)
val decide : state -> Strategy.site -> int

(** Package the accumulated statistics (restoring creation order of the
    conversion and unsupported lists). *)
val result : state -> result

(** Layout of instruction [i]; raises if no pass assigned one yet. *)
val layout_of : state -> Program.id -> Layout.t

val kind_of : state -> Program.id -> Legacy.Support.layout_kind
val set : state -> Program.id -> Layout.t -> Legacy.Support.layout_kind -> unit

(** Append a warning diagnostic to the state (tagged with the running
    pass's name by the {!Pass_manager}). *)
val warn :
  state ->
  code:string ->
  ?loc:Diagnostics.loc ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
