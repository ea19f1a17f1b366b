open Linear_layout
module Isa = Gpusim.Isa

type region = {
  first_elem : int;
  last_elem : int;
  first_def : int option;
  last_use : int option;
}

type report = {
  diagnostics : Diagnostics.t list;
  footprint_bytes : int;
  regions : region list;
  peak_live_slots : int;
}

(* Iterate the shared-memory element offsets of a well-formed
   store/load, warp by warp, lane by lane, slot by slot. *)
let iter_elems (p : Isa.program) ~slots ~addr f =
  let n = List.length slots in
  Isa.iter_addresses p addr (fun _ a0 ->
      for i = 0 to n - 1 do
        f (a0 + i)
      done)

(* The error-severity checks: each instruction's {!Isa.fault}, the
   interpreter's own malformation rule, run once.  [skip] marks
   malformed instructions, which the dataflow of [program] excludes;
   [structural] holds LL800/LL807 in instruction order; [oob.(i)] is
   instruction [i]'s LL801, kept per instruction so [program] can emit
   it where the shared-memory walk reaches [i]. *)
type error_pass = {
  skip : bool array;
  structural : Diagnostics.t list;
  oob : Diagnostics.t option array;
}

let error_pass (p : Isa.program) body =
  let n = Array.length body in
  let loc i = Diagnostics.Isa_instr i in
  let skip = Array.make n false in
  let oob = Array.make n None in
  let structural = ref [] in
  let emit d = structural := d :: !structural in
  Array.iteri
    (fun i instr ->
      match Isa.fault p instr with
      | None -> ()
      | Some f -> (
          skip.(i) <- true;
          match f with
          | Isa.Shape ->
              emit
                (Diagnostics.error ~code:"LL800" ~loc:(loc i)
                   "%s: per-warp/lane table has wrong shape (expected %dx%d)"
                   (Isa.instr_class instr) p.Isa.warps p.Isa.lanes)
          | Isa.Source_lane s ->
              emit
                (Diagnostics.error ~code:"LL807" ~loc:(loc i)
                   "shuffle source lane %d out of range (program has %d lanes)" s p.Isa.lanes)
          | Isa.Address a ->
              oob.(i) <-
                Some
                  (Diagnostics.error ~code:"LL801" ~loc:(loc i)
                     "%s: element offset %d out of range (program declares %d elements)"
                     (match instr with Isa.St_shared _ -> "st.shared" | _ -> "ld.shared")
                     a p.Isa.smem_elems)))
    body;
  { skip; structural = List.rev !structural; oob }

let errors (p : Isa.program) =
  let e = error_pass p (Array.of_list p.Isa.body) in
  e.structural @ List.filter_map Fun.id (Array.to_list e.oob)

(* Per-(instruction, slot) verdict of the register dataflow, one byte
   per cell at [i * nslots + s]: [unseen] until some lane observes the
   cell, [all_flagged] while every observing lane flagged it, [mixed]
   once one did not.  A finding fires exactly on [all_flagged].  Each
   cell enters [all_flagged] from [unseen] at most once; [cands] lists
   those cells, so the report reads them instead of scanning the
   table. *)
let unseen = '\000'
let all_flagged = '\001'
let mixed = '\002'

let bump tbl cands k flagged =
  if not flagged then Bytes.set tbl k mixed
  else if Bytes.get tbl k = unseen then begin
    Bytes.set tbl k all_flagged;
    cands := k :: !cands
  end

let rec iter_slots f i = function
  | [] -> ()
  | s :: tl ->
      f i s;
      iter_slots f i tl

let program machine ?(live_in = []) ?live_out (p : Isa.program) =
  let body = Array.of_list p.Isa.body in
  let n = Array.length body in
  let loc i = Diagnostics.Isa_instr i in
  (* LL800 / LL807 / LL801: the error checks, shared with [errors];
     malformed instructions are excluded from the dataflow below. *)
  let e = error_pass p body in
  let skip = e.skip in
  let diags = ref (List.rev e.structural) in
  let emit d = diags := d :: !diags in
  (* Shared memory, forward: footprint, read-before-store, region
     def/use extents, with each instruction's LL801 in place. *)
  let stored = Array.make (max 1 p.Isa.smem_elems) false in
  let touched = Array.make (max 1 p.Isa.smem_elems) false in
  (* Per element: the first storing and the last loading instruction,
     [max_int] / [-1] when there is none. *)
  let first_def = Array.make (max 1 p.Isa.smem_elems) max_int in
  let last_use = Array.make (max 1 p.Isa.smem_elems) (-1) in
  let footprint = ref 0 in
  Array.iteri
    (fun i instr ->
      Option.iter emit e.oob.(i);
      if not skip.(i) then begin
        match instr with
        | Isa.St_shared { slots; addr; byte_width } ->
            iter_elems p ~slots ~addr (fun a ->
                stored.(a) <- true;
                touched.(a) <- true;
                if first_def.(a) = max_int then first_def.(a) <- i;
                footprint := max !footprint ((a + 1) * byte_width))
        | Isa.Ld_shared { slots; addr; byte_width } ->
            let unwritten = ref None in
            iter_elems p ~slots ~addr (fun a ->
                touched.(a) <- true;
                last_use.(a) <- i;
                footprint := max !footprint ((a + 1) * byte_width);
                if (not stored.(a)) && !unwritten = None then unwritten := Some a);
            Option.iter
              (fun a ->
                emit
                  (Diagnostics.warning ~code:"LL803" ~loc:(loc i)
                     "ld.shared reads element %d before any store has written it \
                      (interpreter state is zero-initialised)"
                     a))
              !unwritten
        | _ -> ()
      end)
    body;
  if !footprint > machine.Gpusim.Machine.smem_bytes then
    emit
      (Diagnostics.warning ~code:"LL802"
         "shared-memory footprint %d bytes exceeds the machine budget %d bytes" !footprint
         machine.Gpusim.Machine.smem_bytes);
  (* Dead stores, backward: a store none of whose elements is loaded
     again before being overwritten (or before program end) is dead. *)
  let will_read = Array.make (max 1 p.Isa.smem_elems) false in
  for i = n - 1 downto 0 do
    if not skip.(i) then
      match body.(i) with
      | Isa.Ld_shared { slots; addr; _ } ->
          iter_elems p ~slots ~addr (fun a -> will_read.(a) <- true)
      | Isa.St_shared { slots; addr; _ } ->
          let read = ref false in
          iter_elems p ~slots ~addr (fun a -> if will_read.(a) then read := true);
          if not !read then
            emit
              (Diagnostics.warning ~code:"LL804" ~loc:(loc i)
                 "st.shared is dead: no element it writes is loaded again");
          iter_elems p ~slots ~addr (fun a -> will_read.(a) <- false)
      | _ -> ()
  done;
  (* Registers.  Per-lane exact dataflow; LL805/LL806 fire only when
     every lane using (resp. defining) the slot at that instruction
     agrees, so per-lane predication never false-positives. *)
  let nslots =
    let m = ref (-1) in
    let see s = if s > !m then m := s in
    List.iter see live_in;
    Option.iter (List.iter see) live_out;
    Array.iteri
      (fun i instr ->
        if not skip.(i) then
          match instr with
          | Isa.Mov { dst; src } ->
              see dst;
              see src
          | Isa.Sel { dst; src_slot } ->
              see dst;
              Array.iter (Array.iter (fun s -> if s >= 0 then see s)) src_slot
          | Isa.Scatter { src; dst_slot } ->
              see src;
              Array.iter (Array.iter (fun s -> if s >= 0 then see s)) dst_slot
          | Isa.Shfl_idx { dst; src; _ } ->
              see dst;
              see src
          | Isa.St_shared { slots; _ } | Isa.Ld_shared { slots; _ } -> List.iter see slots
          | Isa.Bin { dst; a; b; _ } ->
              see dst;
              see a;
              see b
          | Isa.Bar_sync -> ())
      body;
    !m + 1
  in
  (* served.(i).(w).(l): does some lane of warp [w] receive shuffle [i]'s
     value from source lane [l]?  That is the condition under which lane
     [l]'s published slot is used. *)
  let served =
    Array.mapi
      (fun i instr ->
        if skip.(i) then None
        else
          match instr with
          | Isa.Shfl_idx { src_lane; keep; _ } ->
              let t = Array.make_matrix p.Isa.warps p.Isa.lanes false in
              for w = 0 to p.Isa.warps - 1 do
                for l = 0 to p.Isa.lanes - 1 do
                  let s = src_lane.(w).(l) in
                  if keep.(w).(l) then t.(w).(s) <- true
                done
              done;
              Some t
          | _ -> None)
      body
  in
  (* [f i s] for every slot instruction [i] reads (resp. writes) in lane
     [l] of warp [w]; the callbacks are built once, outside the lane
     loops. *)
  let iter_uses i w l f =
    match body.(i) with
    | Isa.Mov { src; _ } -> f i src
    | Isa.Sel { src_slot; _ } ->
        let s = src_slot.(w).(l) in
        if s >= 0 then f i s
    | Isa.Scatter { src; dst_slot } -> if dst_slot.(w).(l) >= 0 then f i src
    | Isa.Shfl_idx { src; _ } -> (
        match served.(i) with Some t when t.(w).(l) -> f i src | _ -> ())
    | Isa.St_shared { slots; _ } -> iter_slots f i slots
    | Isa.Ld_shared _ -> ()
    | Isa.Bin { a; b; _ } ->
        f i a;
        f i b
    | Isa.Bar_sync -> ()
  in
  let iter_defs i w l f =
    match body.(i) with
    | Isa.Mov { dst; _ } -> f i dst
    | Isa.Sel { dst; src_slot } -> if src_slot.(w).(l) >= 0 then f i dst
    | Isa.Scatter { dst_slot; _ } ->
        let s = dst_slot.(w).(l) in
        if s >= 0 then f i s
    | Isa.Shfl_idx { dst; keep; _ } -> if keep.(w).(l) then f i dst
    | Isa.Ld_shared { slots; _ } -> iter_slots f i slots
    | Isa.St_shared _ | Isa.Bar_sync -> ()
    | Isa.Bin { dst; _ } -> f i dst
  in
  let undef_uses = Bytes.make (n * nslots) unseen and undef_cands = ref [] in
  let dead_defs = Bytes.make (n * nslots) unseen and dead_cands = ref [] in
  let defined = Array.make (max 1 nslots) false in
  let live = Array.make (max 1 nslots) false in
  let count = ref 0 and peak = ref 0 in
  let set_live s v =
    if live.(s) <> v then begin
      live.(s) <- v;
      count := !count + if v then 1 else -1
    end
  in
  let use_fwd i s = bump undef_uses undef_cands ((i * nslots) + s) (not defined.(s)) in
  let def_fwd _ s = defined.(s) <- true in
  let def_dead i s = bump dead_defs dead_cands ((i * nslots) + s) (not live.(s)) in
  let def_bwd _ s = set_live s false in
  let use_bwd _ s = set_live s true in
  for w = 0 to p.Isa.warps - 1 do
    for l = 0 to p.Isa.lanes - 1 do
      (* Forward: use before def (LL805). *)
      Array.fill defined 0 nslots false;
      List.iter (fun s -> defined.(s) <- true) live_in;
      for i = 0 to n - 1 do
        if not skip.(i) then begin
          iter_uses i w l use_fwd;
          iter_defs i w l def_fwd
        end
      done;
      (* Backward: dead writes (LL806) + peak pressure. *)
      Array.fill live 0 nslots false;
      count := 0;
      Option.iter (List.iter (fun s -> set_live s true)) live_out;
      if !count > !peak then peak := !count;
      for i = n - 1 downto 0 do
        if not skip.(i) then begin
          if live_out <> None then iter_defs i w l def_dead;
          iter_defs i w l def_bwd;
          iter_uses i w l use_bwd;
          if !count > !peak then peak := !count
        end
      done
    done
  done;
  (* Findings in (instruction, slot) order, the order of [i * nslots + s]. *)
  let collect tbl cands make =
    List.sort compare !cands
    |> List.iter (fun k ->
           if Bytes.get tbl k = all_flagged then emit (make (k / nslots) (k mod nslots)))
  in
  collect undef_uses undef_cands (fun i s ->
      Diagnostics.warning ~code:"LL805" ~loc:(loc i)
        "slot r%d is read before any definition (interpreter registers are \
         zero-initialised)"
        s);
  collect dead_defs dead_cands (fun i s ->
      Diagnostics.warning ~code:"LL806" ~loc:(loc i)
        "write to slot r%d is dead: never read before overwrite or program end" s);
  (* Maximal contiguous touched runs, with def/use extents. *)
  let regions = ref [] in
  let flush lo hi =
    let fd = ref max_int and lu = ref (-1) in
    for a = lo to hi do
      fd := min !fd first_def.(a);
      lu := max !lu last_use.(a)
    done;
    let first_def = if !fd = max_int then None else Some !fd in
    let last_use = if !lu < 0 then None else Some !lu in
    regions := { first_elem = lo; last_elem = hi; first_def; last_use } :: !regions
  in
  let run_start = ref None in
  for a = 0 to p.Isa.smem_elems - 1 do
    match (!run_start, touched.(a)) with
    | None, true -> run_start := Some a
    | Some lo, false ->
        flush lo (a - 1);
        run_start := None
    | _ -> ()
  done;
  Option.iter (fun lo -> flush lo (p.Isa.smem_elems - 1)) !run_start;
  if Obs.enabled () then begin
    Obs.Metrics.incr "analysis.resource_check.programs";
    Obs.Metrics.incr ~by:(List.length !diags) "analysis.resource_check.diagnostics"
  end;
  {
    diagnostics = List.rev !diags;
    footprint_bytes = !footprint;
    regions = List.rev !regions;
    peak_live_slots = !peak;
  }

let lowered machine (prog, (sm : Codegen.Lower.slot_map)) =
  let live_in = List.init sm.Codegen.Lower.src_regs Fun.id in
  let live_out =
    List.init sm.Codegen.Lower.dst_regs (fun r -> sm.Codegen.Lower.dst_base + r)
  in
  program machine ~live_in ~live_out prog

let pp ppf r =
  Format.fprintf ppf "footprint %d B, peak %d live slots" r.footprint_bytes
    r.peak_live_slots;
  List.iter
    (fun rg ->
      Format.fprintf ppf "@,  smem [%d..%d] def@%s use@%s" rg.first_elem rg.last_elem
        (match rg.first_def with Some i -> string_of_int i | None -> "-")
        (match rg.last_use with Some i -> string_of_int i | None -> "-"))
    r.regions;
  if r.diagnostics <> [] then Format.fprintf ppf "@,%a" Diagnostics.pp_list r.diagnostics
