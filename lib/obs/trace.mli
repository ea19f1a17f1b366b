(** An in-memory ring buffer of span events, and the global sink the
    instrumentation writes to.

    Recording is domain-safe: the sink is shared by all domains (so
    [Autotune.best ?domains] workers land in the same trace) and guarded
    by a mutex that is only touched while instrumentation is enabled. *)

type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  ts : float;  (** seconds, read through {!Clock} *)
  tid : int;  (** recording domain id *)
  attrs : (string * string) list;
}

type t

(** [capacity] defaults to 65536 events; older events are overwritten. *)
val create : ?capacity:int -> unit -> t

val record : t -> event -> unit

(** Surviving events, oldest first. *)
val events : t -> event list

(** Number of surviving events. *)
val length : t -> int

(** Events lost to ring overwrite. *)
val dropped : t -> int

val clear : t -> unit

(** Install [t] as the global sink and enable instrumentation. *)
val install : t -> unit

val current : unit -> t option

(** Run [f] with [t] installed (and instrumentation enabled), restoring
    the previous sink and enabled flag afterwards, also on exceptions. *)
val with_sink : t -> (unit -> 'a) -> 'a

(** Record to the current sink, if any. *)
val emit : event -> unit
