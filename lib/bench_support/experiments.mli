(** Reproductions of every table and figure in the paper's evaluation
    (Section 6), driven by the cost model of {!Gpusim} — see
    EXPERIMENTS.md for the paper-vs-measured record.

    Each function prints its table/figure and returns the underlying
    data so tests can assert the qualitative shape (who wins, by
    roughly what factor, where crossovers fall). *)

(** Table 1: the bit-level mapping of Layout A (Figure 1a). Returns the
    [(location, (register, thread, warp))] rows. *)
val table1 : unit -> ((int * int) * (int * int * int)) list

(** Table 2: the simulated hardware platforms. *)
val table2 : unit -> Gpusim.Machine.t list

(** Figure 2: f8 transpose — speedup of the optimal swizzle over the
    padding heuristic across tensor shapes. Returns
    [(label, speedup)]. *)
val figure2 : unit -> (string * float) list

(** Table 3: load/store instruction and bitwidth comparison across
    shapes and dtypes. Returns rows
    [(shape_label, legacy_inst, linear_inst, legacy_bits, linear_bits)]. *)
val table3 : unit -> (string * string * string * int * int) list

(** Table 4: reduction support and shared-memory instruction counts per
    layout family. Returns
    [(kind, legacy_pass, total, legacy_smem, linear_smem)]. *)
val table4 : unit -> (string * int * int * int option * int) list

(** Table 5: mixed-precision matmul pass rates per dtype pair. Returns
    [(pair_label, legacy_pass, linear_pass, total)]. *)
val table5 : unit -> (string * int * int * int) list

(** Figure 6: MXFP4 matmul speedups (data-shuffling optimization). *)
val figure6 : unit -> (string * float) list

(** Figure 7: layout conversion via warp shuffles vs shared memory. *)
val figure7 : unit -> (string * float) list

(** Figure 8: gather via warp shuffles vs shared memory. *)
val figure8 : unit -> (string * float) list

(** Figure 9: kernel-level speedups on the three platforms. Returns
    [(machine, kernel, size, speedup)] for every case. *)
val figure9 : unit -> (string * string * int * float) list

(** Table 6: distribution of local_load / local_store / convert_layout
    ops per kernel (linear engine, GH200). Returns
    [(kernel, loads, stores, converts)]. *)
val table6 : unit -> (string * int * int * int) list

(** Ablations: swizzling strategies (unswizzled / padded / Def 4.11 /
    optimal) and the effect of the vectorization cap. *)
val ablation_swizzle : unit -> (string * float) list

val run_ablations : unit -> unit

(** Supplementary: per-kernel autotuning gains over the 4-warp default. *)
val extra_autotune : unit -> (string * float) list

val run_all : unit -> unit
