(** Trace export: Chrome [trace_event] JSON (loadable in
    [chrome://tracing] and Perfetto), a minimal JSON parser for
    round-trip tests and schema checks, and span-tree reconstruction. *)

(** Serialize events as a Chrome trace: duration events ["B"]/["E"] and
    instants ["i"], timestamps in microseconds, attributes in ["args"]. *)
val chrome_json : Trace.event list -> string

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result

(** Parse a Chrome trace produced by {!chrome_json} back into events
    (timestamps return to seconds; non-string args are dropped). *)
val parse_chrome : string -> (Trace.event list, string) result

type tree = { name : string; attrs : (string * string) list; children : tree list }

(** Rebuild the span forest from event order per tid (ascending tid),
    nesting [Begin]/[End] pairs the way the Chrome viewer does.
    End-event attributes are appended to the node's attributes.
    Unbalanced traces degrade gracefully. *)
val tree_of_events : Trace.event list -> tree list

(** Inverse of {!tree_of_events} for well-formed forests, with synthetic
    strictly-increasing timestamps. *)
val events_of_trees : ?tid:int -> tree list -> Trace.event list

(** ["root(child leaf(grand)) root2"] rendering, for golden tests. *)
val render_forest : tree list -> string
