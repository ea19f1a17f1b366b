(** Event counters and the abstract cost model.

    The benchmark harness accumulates data-movement events (shared
    memory wavefronts and instructions, warp shuffles, global-memory
    transactions, ...) and converts them to abstract time with the
    per-machine weights of {!Machine.t}.  Relative costs — who wins and
    by how much — are what the paper's figures report; absolute times
    are not meaningful in a simulator. *)

type t = {
  mutable smem_wavefronts : int;
  mutable smem_insts : int;
  mutable shuffles : int;
  mutable gmem_transactions : int;
  mutable gmem_insts : int;
  mutable ldmatrix : int;
  mutable alu : int;
  mutable mma : int;
  mutable barriers : int;
}

val zero : unit -> t
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val copy : t -> t
(** [copy x] is a fresh record with [x]'s counts. *)

val scale : t -> int -> t
(** [scale t k] multiplies every counter by [k] (e.g. loop trip count). *)

val estimate : Machine.t -> t -> float
(** Abstract time units. *)

val pp : Format.formatter -> t -> unit
