(** Shared-memory bank-conflict simulation.

    This is the brute-force ground truth against which the algebraic
    wavefront prediction of Lemma 9.4 is checked: a warp access is split
    into 128-byte phases, and within each phase the number of wavefronts
    is the maximum, over banks, of the number of distinct 4-byte words
    requested from that bank (a word requested by many lanes broadcasts
    and counts once). *)

(** One lane's access: starting byte address and width in bytes. *)
type access = { addr : int; bytes : int }

(** [wavefronts machine accesses] simulates one warp-wide shared-memory
    instruction.  The list gives the active lanes' accesses in lane
    order. *)
val wavefronts : Machine.t -> access list -> int

(** [wavefronts_row machine ~byte_width ~bytes row] is {!wavefronts} on
    the accesses [{addr = row.(l) * byte_width; bytes}] for every lane
    [l], without building them: [row] holds one warp's per-lane element
    offsets, as an ISA shared-memory instruction's address table does.
    Both functions run the same bank model, whose counters and word
    array are one per-domain scratch: [wavefronts_row] allocates
    nothing once that scratch has grown to the domain's largest phase. *)
val wavefronts_row : Machine.t -> byte_width:int -> bytes:int -> int array -> int

(** [conflict_free machine accesses] holds when each 128-byte phase
    completes in a single wavefront. *)
val conflict_free : Machine.t -> access list -> bool
