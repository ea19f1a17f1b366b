(** Hierarchical timed regions with key/value attributes.

    A span is a [Begin]/[End] event pair in the installed {!Trace};
    nesting is implied by event order within a domain.  With
    instrumentation disabled, {!enter} returns a preallocated dummy and
    {!exit} reduces to a branch — no allocation on the fast path. *)

type t

(** Open a span; [attrs] are attached to the begin event. *)
val enter : ?attrs:(string * string) list -> string -> t

(** Close a span; [attrs] (e.g. results computed during the region) are
    attached to the end event and merged into the span's attributes by
    {!Export.tree_of_events}. *)
val exit : ?attrs:(string * string) list -> t -> unit

(** Whether the span records: false for the dummy {!enter} returns
    while instrumentation is off.  Guard attribute rendering on it so a
    disabled site builds nothing. *)
val live : t -> bool

(** A zero-duration marker event. *)
val instant : ?attrs:(string * string) list -> string -> unit

(** [with_ name f] wraps [f] in a span; on exception the span is closed
    with an ["error"] attribute and the exception re-raised. *)
val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
