open Linear_layout

(* Addresses the program touches: [0, smem_elems) plus any out-of-range
   address an ill-formed program uses, so the history below is a flat
   array over that window. *)
let addr_window (p : Gpusim.Isa.program) =
  let lo = ref 0 and hi = ref p.Gpusim.Isa.smem_elems in
  List.iter
    (function
      | Gpusim.Isa.St_shared { slots; addr; _ } | Gpusim.Isa.Ld_shared { slots; addr; _ } ->
          let n = List.length slots in
          Gpusim.Isa.iter_addresses p addr (fun _ a ->
              lo := min !lo a;
              hi := max !hi (a + n))
      | _ -> ())
    p.Gpusim.Isa.body;
  (!lo, !hi)

let check ?(duplicate_stores_benign = false) (p : Gpusim.Isa.program) =
  (* Per-address access history since the last barrier, as flat arrays
     indexed by [addr - lo]: the last writer (instruction, warp, lane),
     the first reader (instruction, warp) and the first reader from
     another warp than that one; instruction [-1] = none.  A store
     races with a read of the cell unless every reader is its own warp,
     and the two readers name a reader of another warp whenever there is
     one.  A barrier clears only the cells touched since the previous
     one. *)
  let lo, hi = addr_window p in
  let n = hi - lo in
  let w_idx = Array.make n (-1) and w_warp = Array.make n 0 and w_lane = Array.make n 0 in
  let r_idx = Array.make n (-1) and r_warp = Array.make n 0 in
  let r2_idx = Array.make n (-1) and r2_warp = Array.make n 0 in
  let touched = Array.make n 0 and n_touched = ref 0 in
  let touch c =
    if w_idx.(c) < 0 && r_idx.(c) < 0 then begin
      touched.(!n_touched) <- c;
      incr n_touched
    end
  in
  let diags = ref [] in
  (* One report per (kind, instruction pair): a single missing barrier
     would otherwise repeat once per lane. *)
  let seen = Hashtbl.create 16 in
  let add key d =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      diags := d () :: !diags
    end
  in
  let smem_since_bar = ref false in
  List.iteri
    (fun idx instr ->
      match instr with
      | Gpusim.Isa.Bar_sync ->
          if not !smem_since_bar then
            add (`Bar idx) (fun () ->
                Diagnostics.warning ~code:"LL210" ~loc:(Diagnostics.Isa_instr idx)
                  "redundant bar.sync: no shared-memory traffic since the previous \
                   synchronization point");
          for i = 0 to !n_touched - 1 do
            w_idx.(touched.(i)) <- -1;
            r_idx.(touched.(i)) <- -1;
            r2_idx.(touched.(i)) <- -1
          done;
          n_touched := 0;
          smem_since_bar := false
      | Gpusim.Isa.St_shared { slots; addr; byte_width = _ } ->
          smem_since_bar := true;
          let width = List.length slots and lanes = p.Gpusim.Isa.lanes in
          Gpusim.Isa.iter_addresses p addr (fun t a0 ->
              let warp = t / lanes and lane = t mod lanes in
              for i = 0 to width - 1 do
                let a = a0 + i in
                let c = a - lo in
                let idx' = w_idx.(c) in
                if idx' >= 0 && not duplicate_stores_benign then begin
                  let warp' = w_warp.(c) and lane' = w_lane.(c) in
                  if warp' <> warp then
                    add
                      (`Ww (idx', idx))
                      (fun () ->
                        Diagnostics.error ~code:"LL202" ~loc:(Diagnostics.Isa_instr idx)
                          "write-write race on smem[%d]: warp %d (instr %d) and warp %d both \
                           store with no intervening bar.sync"
                          a warp' idx' warp)
                  else if idx' = idx && lane' <> lane then
                    add (`Wwl idx) (fun () ->
                        Diagnostics.error ~code:"LL203" ~loc:(Diagnostics.Isa_instr idx)
                          "lanes %d and %d of warp %d store to smem[%d] in the same \
                           instruction: the committed value is undefined"
                          lane' lane warp a)
                end;
                let first = r_warp.(c) <> warp in
                let ridx = if first then r_idx.(c) else r2_idx.(c) in
                if ridx >= 0 then begin
                  let warp' = if first then r_warp.(c) else r2_warp.(c) in
                  add
                    (`War (ridx, idx))
                    (fun () ->
                      Diagnostics.error ~code:"LL204" ~loc:(Diagnostics.Isa_instr idx)
                        "write-after-read race on smem[%d]: warp %d stores over a value \
                         warp %d loaded at instr %d with no intervening bar.sync"
                        a warp warp' ridx)
                end;
                touch c;
                w_idx.(c) <- idx;
                w_warp.(c) <- warp;
                w_lane.(c) <- lane
              done)
      | Gpusim.Isa.Ld_shared { slots; addr; byte_width = _ } ->
          smem_since_bar := true;
          let width = List.length slots and lanes = p.Gpusim.Isa.lanes in
          Gpusim.Isa.iter_addresses p addr (fun t a0 ->
              let warp = t / lanes in
              for i = 0 to width - 1 do
                let a = a0 + i in
                let c = a - lo in
                let idx' = w_idx.(c) in
                if idx' >= 0 && w_warp.(c) <> warp then begin
                  let warp' = w_warp.(c) in
                  add
                    (`Raw (idx', idx))
                    (fun () ->
                      Diagnostics.error ~code:"LL201" ~loc:(Diagnostics.Isa_instr idx)
                        "read-after-write race on smem[%d]: warp %d loads a value stored \
                         by warp %d (instr %d) with no intervening bar.sync"
                        a warp warp' idx')
                end;
                if r_idx.(c) < 0 then begin
                  touch c;
                  r_idx.(c) <- idx;
                  r_warp.(c) <- warp
                end
                else if r2_idx.(c) < 0 && r_warp.(c) <> warp then begin
                  r2_idx.(c) <- idx;
                  r2_warp.(c) <- warp
                end
              done)
      | Gpusim.Isa.Mov _ | Gpusim.Isa.Sel _ | Gpusim.Isa.Scatter _ | Gpusim.Isa.Shfl_idx _
      | Gpusim.Isa.Bin _ ->
          ())
    p.Gpusim.Isa.body;
  List.rev !diags

let span_of_map l =
  F2.Subspace.echelon_basis
    (List.concat_map (fun (d, _) -> Layout.flat_columns l d) (Layout.in_dims l))

(* [alias_dim ~mem ~src ~dst] decides algebraically whether the
   store-side (from [src]) and load-side (into [dst]) shared-memory
   address sets of a round trip through memory layout [mem] can
   overlap: both sets are images of linear maps, so they are subspaces
   of the offset space and always intersect (at least in address 0).
   Returns the dimension of the intersection — [>= 0] always, i.e. a
   barrier is always required between the phases. *)
let alias_dim ~mem ~src ~dst =
  let mem_inv = Layout.Memo.invert (Layout.flatten_outs mem) in
  let addr_span layout =
    span_of_map (Layout.Memo.compose mem_inv (Layout.flatten_outs layout))
  in
  F2.Subspace.dim (F2.Subspace.intersection (addr_span src) (addr_span dst))

(* Plan-level phase check: from the layouts alone, the store and load
   address images are subspaces and always intersect, so any store
   phase followed by a load phase must be separated by a barrier. *)
let phase_check ~alias (p : Gpusim.Isa.program) =
  let rec scan idx last_store = function
    | [] -> []
    | Gpusim.Isa.Bar_sync :: rest -> scan (idx + 1) None rest
    | Gpusim.Isa.St_shared _ :: rest -> scan (idx + 1) (Some idx) rest
    | Gpusim.Isa.Ld_shared _ :: rest -> (
        match last_store with
        | Some st ->
            [
              Diagnostics.error ~code:"LL205" ~loc:(Diagnostics.Isa_instr idx)
                "store phase (instr %d) and load phase share a %d-dimensional set of \
                 shared-memory addresses but no bar.sync separates them"
                st alias;
            ]
        | None -> scan (idx + 1) last_store rest)
    | _ :: rest -> scan (idx + 1) last_store rest
  in
  scan 0 None p.Gpusim.Isa.body

let check_lowered (plan : Codegen.Conversion.plan) program =
  match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Shared_memory sw ->
      let alias =
        alias_dim ~mem:sw.Codegen.Swizzle_opt.mem ~src:plan.Codegen.Conversion.src
          ~dst:plan.Codegen.Conversion.dst
      in
      (* The memory layout is invertible, so two stores colliding on an
         address provably hold the same logical element — i.e. the same
         value (the source layout replicates it across the colliding
         warps/lanes).  Such collisions are redundant, not racy; the
         broadcast lint reports the redundancy at the value's source. *)
      let duplicate_stores_benign = Layout.is_invertible sw.Codegen.Swizzle_opt.mem in
      phase_check ~alias program @ check ~duplicate_stores_benign program
  | _ -> check program
