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

let zero () =
  {
    smem_wavefronts = 0;
    smem_insts = 0;
    shuffles = 0;
    gmem_transactions = 0;
    gmem_insts = 0;
    ldmatrix = 0;
    alu = 0;
    mma = 0;
    barriers = 0;
  }

let copy x = { x with alu = x.alu }

let add acc x =
  acc.smem_wavefronts <- acc.smem_wavefronts + x.smem_wavefronts;
  acc.smem_insts <- acc.smem_insts + x.smem_insts;
  acc.shuffles <- acc.shuffles + x.shuffles;
  acc.gmem_transactions <- acc.gmem_transactions + x.gmem_transactions;
  acc.gmem_insts <- acc.gmem_insts + x.gmem_insts;
  acc.ldmatrix <- acc.ldmatrix + x.ldmatrix;
  acc.alu <- acc.alu + x.alu;
  acc.mma <- acc.mma + x.mma;
  acc.barriers <- acc.barriers + x.barriers

let scale x k =
  {
    smem_wavefronts = x.smem_wavefronts * k;
    smem_insts = x.smem_insts * k;
    shuffles = x.shuffles * k;
    gmem_transactions = x.gmem_transactions * k;
    gmem_insts = x.gmem_insts * k;
    ldmatrix = x.ldmatrix * k;
    alu = x.alu * k;
    mma = x.mma * k;
    barriers = x.barriers * k;
  }

let estimate (m : Machine.t) c =
  (float_of_int c.smem_wavefronts *. m.cost_smem_wavefront)
  +. (float_of_int c.smem_insts *. m.cost_smem_inst)
  +. (float_of_int c.shuffles *. m.cost_shuffle)
  +. (float_of_int c.gmem_transactions *. m.cost_gmem_transaction)
  +. (float_of_int c.gmem_insts *. m.cost_gmem_inst)
  +. (float_of_int c.ldmatrix *. m.cost_ldmatrix)
  +. (float_of_int c.alu *. m.cost_alu)
  +. (float_of_int c.mma *. m.cost_mma)
  +. (float_of_int c.barriers *. m.cost_barrier)

let pp ppf c =
  Format.fprintf ppf
    "{smem_wf=%d smem_inst=%d shfl=%d gmem_tx=%d gmem_inst=%d ldmatrix=%d alu=%d mma=%d bar=%d}"
    c.smem_wavefronts c.smem_insts c.shuffles c.gmem_transactions c.gmem_insts c.ldmatrix c.alu
    c.mma c.barriers
