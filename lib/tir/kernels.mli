(** Tile-level models of the 21 TritonBench kernels evaluated in
    Section 6.2 (Figure 9, Table 6).

    Each builder produces the mini-IR of one program instance (one CTA
    tile) of the kernel; [trip] scales the per-tile cost by the number
    of tile iterations (e.g. the K loop of a GEMM) so that relative
    costs between the two layout systems reflect whole-kernel
    behaviour. *)

type kernel = {
  name : string;
  sizes : int list;  (** problem sizes (power-of-two edge length) *)
  build : size:int -> Program.t;
  trip : size:int -> int;  (** loop iterations the tile cost is scaled by *)
  needs_wgmma : bool;  (** skipped on machines without wgmma (e.g. TMA-class kernels) *)
  needs_large_smem : bool;
}

val all : kernel list
val find : string -> kernel

(** [runs_on machine k]: the machine has every feature [k] needs —
    wgmma if [needs_wgmma], at least 128 KiB of shared memory if
    [needs_large_smem].  The experiment harness and the serve trace
    skip the pairs for which it is false.  The server's ENGINE verb
    checks only the wgmma half, because its replies are pinned by the
    serve golden. *)
val runs_on : Gpusim.Machine.t -> kernel -> bool
