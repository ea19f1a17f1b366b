(** Unified compiler diagnostics.

    Every analysis in the system — the layout well-formedness checks of
    {!Check}, the TIR verifier, and the static-analysis passes over
    lowered instruction streams and conversion plans — reports issues
    through this one type, so renderers, severity filters and the CLI
    see a single format.

    Diagnostic codes are stable identifiers of the form [LLxyz]:

    - [LL1xx] layout well-formedness (distributed / memory /
      convertible characterizations, Definitions 4.10 and 4.14);
    - [LL2xx] races and barriers in lowered instruction streams;
    - [LL3xx] bank-conflict certification of shared-memory plans
      (Lemma 9.4 vs. the brute-force bank simulator);
    - [LL4xx] global-memory coalescing / vectorization lints;
    - [LL5xx] broadcast-redundancy lints (duplicated compute);
    - [LL6xx] TIR layout-assignment verification and translation
      validation ([LL62x] pass-level semantic certificates, [LL65x]
      symbolic certification of lowered conversion plans);
    - [LL7xx] engine pass-pipeline consistency (skipped/misordered
      passes leaving the cost model incomplete). *)

type severity = Error | Warning

(** Where a diagnostic points. *)
type loc =
  | No_loc
  | Tir_instr of int  (** a TIR instruction id ([%3]) *)
  | Isa_instr of int  (** an index into a lowered instruction stream *)
  | Plan of string  (** a named conversion/staging plan *)

type t = {
  code : string;
  severity : severity;
  loc : loc;
  message : string;
  pass : string option;
      (** the engine pass that emitted the diagnostic, when it was
          produced under the pass manager *)
}

val error : code:string -> ?loc:loc -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : code:string -> ?loc:loc -> ('a, Format.formatter, unit, t) format4 -> 'a

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

(** [with_loc loc d] replaces [d]'s location when [d] has none. *)
val with_loc : loc -> t -> t

(** [with_pass name d] attributes [d] to a pass when it has no
    attribution yet (the pass manager tags every diagnostic a pass
    appends). *)
val with_pass : string -> t -> t

val pp : Format.formatter -> t -> unit

(** Renders ["ok"] for the empty list, one diagnostic per line
    otherwise. *)
val pp_list : Format.formatter -> t list -> unit

(** JSON rendering (an array of objects with [code], [severity], [loc],
    [message], [pass] fields) for machine consumers, e.g. the CI
    artifact. *)
val to_json : t list -> string

(** JSON string-content escaping, shared with other JSON emitters. *)
val json_escape : string -> string
