(** MXFP4 microscaling emulation (Section 5.2).

    A quantized block format per the OCP MX specification: groups of
    [block_size = 32] fp4 (e2m1) elements share one 8-bit power-of-two
    scale (e8m0).  New GPUs support it natively; everywhere else Triton
    upcasts to bf16 in software, which is the path the paper's Figure 6
    benchmarks — and the path we emulate. *)

val block_size : int

type t = {
  length : int;
  nibbles : int array;  (** one fp4 (e2m1) code per element *)
  scales : int array;  (** one e8m0 exponent per 32-element block *)
}

(** Quantize a float vector: per block, pick the largest power-of-two
    scale keeping the max magnitude representable in e2m1, then encode
    each element. *)
val quantize : float array -> t

val dequantize : t -> float array

(** Decode a single element. *)
val get : t -> int -> float

(** [upcast_to t dtype] dequantizes and re-quantizes each element into
    [dtype] — the software-emulation upcast (e.g. to bf16). *)
val upcast_to : t -> Dtype.t -> float array
