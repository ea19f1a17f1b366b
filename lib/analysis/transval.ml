open Linear_layout

(* Translation validation of lowered plans (the paper's Section 4 claim
   made operational): every layout is a linear map over F2, so the map a
   lowered ISA program *actually implements* can be recovered by
   symbolic execution and compared against the map the plan *claims* by
   comparing the two maps point by point.  Equality of affine F2 maps is
   decidable, and a disagreement always has a counterexample of Hamming
   weight <= 1 (the zero vector if the constants differ, a basis vector
   otherwise). *)

(* {1 Symbolic provenance evaluator}

   Every register slot and shared-memory cell holds either the flattened
   source hardware index whose value it contains, or [bot] (undefined /
   opaque).  The evaluator is the interpreter itself, {!Gpusim.Isa.exec},
   run on this domain: [Bin] writes [bot], because arithmetic destroys
   provenance and a conversion plan must never route payload data
   through it.  The domain is exact for data-movement programs: with the
   injective test payload [value(hw) = hw], the concrete interpreter and
   the provenance evaluator compute the same function, so a plan is
   correct iff every destination point's provenance maps to the required
   logical element. *)

let bot = -1
let opaque _ _ _ = bot

(* A state whose cells all hold [bot]: fresh, or the prefix of this
   domain's grow-only buffers.  A fresh state for a PLAN-sized program
   is tens of kilowords, allocated directly in the major heap;
   allocating it per certificate paces a serving daemon's major
   collections into its certifying requests.  The interpreter bounds
   every access by the program's [warps * lanes * slots] and
   [smem_elems], never by the buffer length, so cells beyond the prefix
   are unreachable. *)
type scratch = { mutable regs_buf : int array; mutable smem_buf : int array }

let scratch_key = Domain.DLS.new_key (fun () -> { regs_buf = [||]; smem_buf = [||] })

(* [n] cells holding [bot]: [buf]'s prefix when [reuse] and it is long
   enough, else a fresh array. *)
let bot_cells ~reuse buf n =
  if (not reuse) || n < 0 || Array.length buf < n then Array.make n bot
  else begin
    Array.fill buf 0 n bot;
    buf
  end

let bot_state ~reuse (p : Gpusim.Isa.program) ~slots =
  let sc = Domain.DLS.get scratch_key in
  let regs = bot_cells ~reuse sc.regs_buf (p.Gpusim.Isa.warps * p.Gpusim.Isa.lanes * slots) in
  let smem = bot_cells ~reuse sc.smem_buf p.Gpusim.Isa.smem_elems in
  if reuse then begin
    sc.regs_buf <- regs;
    sc.smem_buf <- smem
  end;
  { Gpusim.Isa.slots; regs; smem }

(* Run [program] from the canonical conversion pre-state — every source
   slot holds its own hardware point ({!Codegen.Lower.fill_src}). *)
let run_provenance ~reuse ~(map : Codegen.Lower.slot_map) (program : Gpusim.Isa.program) =
  let st = bot_state ~reuse program ~slots:map.Codegen.Lower.total_slots in
  Codegen.Lower.fill_src program map st Fun.id;
  Gpusim.Isa.exec ~bin:opaque program st;
  st

(* The public lookup may outlive the call, so it owns a fresh state;
   destination points are read back with {!Codegen.Lower.read_dst}. *)
let provenance ~map program =
  Codegen.Lower.read_dst program map (run_provenance ~reuse:false ~map program)

(* {1 Certificates} *)

type refutation = { counterexample : int; got : int option; want : int }
type verdict = Proved | Refuted of refutation | Failed of string
type method_ = Symbolic | Algebraic

type cert = {
  mechanism : string;
  method_ : method_;
  points : int;  (** destination hardware points covered by the proof *)
  verdict : verdict;
}

let method_name = function Symbolic -> "symbolic" | Algebraic -> "algebraic"

(* [image_table m ~lo n] holds the images under [m] of [x lsl lo] for
   every [x < n]: split at a power of two [2^lo], a linear map's value
   at [h] is [lo_table.(h land (2^lo - 1)) lxor hi_table.(h lsr lo)],
   two lookups and one XOR.  Each entry is filled by linearity from the
   entry without its lowest bit.  Input bits at or above the column
   count select nothing, as in {!F2.Bitmatrix.apply}. *)
let image_table m ~lo n =
  let cols = F2.Bitmatrix.cols m in
  let t = Array.make n 0 in
  for x = 1 to n - 1 do
    let k = lo + F2.Bitvec.ntz x in
    t.(x) <- (t.(x land (x - 1)) lxor if k < cols then F2.Bitmatrix.column m k else 0)
  done;
  t

(* A map's split tables at [regs] registers (a power of two) and
   [threads] threads: its value at [r + t * regs] is
   [reg.(r) lxor thr.(t)]. *)
let split_tables m ~regs ~threads =
  (image_table m ~lo:0 regs, image_table m ~lo:(Util.log2 regs) threads)

(* The shared core: require, for every destination hardware point
   [h = r + t * dst_regs] (slot [dst_base + r] of thread [t]), that its
   provenance [p] satisfies [src_flat p = want h].  [want] is the
   logical element [h] must hold; broadcasting sources are handled for
   free because any source point of the same element is acceptable.
   The source map is split at the source register count, as
   {!Codegen.Lower.fill_src} lays points out, so [src_flat p] is one
   lookup per half.

   An unwritten point anywhere outranks a wrong one.  Otherwise the
   first [h] with [got h <> want h] is the answer, and it is also the
   minimal-weight witness whenever both maps are affine: [d = got +
   want] is then affine, so [d 0 <> 0] makes [0] the first mismatch,
   and otherwise the first mismatch is [2^k] for the lowest [k] with
   [d (2^k) <> 0] — every [h < 2^k] lies in the span of lower basis
   vectors, where [d] vanishes.  One walk over the destination slots,
   threads outer and slots inner, visits [h] in increasing order and
   decides both. *)
let check_program ~src ~(map : Codegen.Lower.slot_map) ~want ~mechanism
    (program : Gpusim.Isa.program) =
  let threads = program.Gpusim.Isa.warps * program.Gpusim.Isa.lanes in
  let dst_regs = map.Codegen.Lower.dst_regs and src_regs = map.Codegen.Lower.src_regs in
  let points = dst_regs * threads in
  let cert verdict = { mechanism; method_ = Symbolic; points; verdict } in
  (* The state is the domain's reused one, so it is consumed before this
     function returns and nothing below certifies re-entrantly. *)
  match run_provenance ~reuse:true ~map program with
  | exception Failure msg -> cert (Failed msg)
  | st ->
      (* Applied for its slot-range check only. *)
      let (_ : int -> int) = Codegen.Lower.read_dst program map st in
      let gr, gt = split_tables (Layout.to_matrix src) ~regs:src_regs ~threads in
      let rb = Util.log2 src_regs in
      let got p = gr.(p land (src_regs - 1)) lxor gt.(p lsr rb) in
      let slots = st.Gpusim.Isa.slots and regs = st.Gpusim.Isa.regs in
      let unwritten = ref (-1) and wrong = ref (-1) and wrong_p = ref 0 in
      (try
         for t = 0 to threads - 1 do
           let base = (t * slots) + map.Codegen.Lower.dst_base and h = t * dst_regs in
           for r = 0 to dst_regs - 1 do
             let p = regs.(base + r) in
             if p < 0 then begin
               unwritten := h + r;
               raise Exit
             end
             else if !wrong < 0 && got p <> want (h + r) then begin
               wrong := h + r;
               wrong_p := p
             end
           done
         done
       with Exit -> ());
      if !unwritten >= 0 then
        cert (Refuted { counterexample = !unwritten; got = None; want = want !unwritten })
      else if !wrong >= 0 then
        cert (Refuted { counterexample = !wrong; got = Some (got !wrong_p); want = want !wrong })
      else cert Proved

(* {1 Proof in closed form}

   The two program shapes {!Codegen.Lower.conversion} emits for
   shared-memory round trips and warp shuffles are proved from their
   tables, without running them: every immediate is checked against
   the split tables of the two layouts.  A failed check proves nothing
   either way — the prover answers [false] and {!certify_isa} runs the
   scan, the only path that refutes and the only source of witnesses.
   A [true] answer implies the scan proves the program too; the
   argument is in DESIGN.md, section Translation validation. *)

exception Unproved

let need b = if not b then raise Unproved

(* [St_shared+ ; Bar_sync* ; Ld_shared+].  The witness [cell] is a
   linear map from logical element to shared-memory element, solved on
   a basis: one source point per logical unit vector, whose cell is
   read off the store that writes it.  [cell] must be injective.  A
   store of slots [s_0 .. s_(k-1)] then writes every source element to
   its cell when, with [base = cell_reg s_0], [cell_reg s_i = base lxor
   i] for every position [i] and its address map is [base] plus, for
   every thread bit [j], the column [cell_thr e_j], all aligned to [k]:
   thread [t] then writes slot [s_i] to [addr t + i = addr t lxor i =
   cell (src (s_i, t))], since both sides are affine in [t] and agree
   on a basis.  The loads are checked the same way against the
   destination's tables, so each reads its element's cell.  That cell
   was written: every unit vector was solved inside the source's
   points, so the source is surjective, and every source slot is
   stored by every thread.  Every access then lies in [cell]'s image,
   whose largest element is found from an echelon basis, so no address
   is out of range when that element is below [smem_elems]: with the
   maps' shapes checked here, {!Gpusim.Isa.fault} finds nothing.  The
   checks cost one comparison per slot and per thread bit, none per
   thread. *)
let round_trip ~src ~dst ~(map : Codegen.Lower.slot_map) (program : Gpusim.Isa.program) =
  let threads = program.Gpusim.Isa.warps * program.Gpusim.Isa.lanes in
  let tb = Util.log2 threads in
  let src_regs = map.Codegen.Lower.src_regs in
  let rec stores acc = function
    | Gpusim.Isa.St_shared { slots; addr; _ } :: rest ->
        stores ((Array.of_list slots, addr) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec bars = function Gpusim.Isa.Bar_sync :: rest -> bars rest | rest -> rest in
  let rec loads acc = function
    | Gpusim.Isa.Ld_shared { slots; addr; _ } :: rest ->
        loads ((Array.of_list slots, addr) :: acc) rest
    | [] -> List.rev acc
    | _ :: _ -> raise Unproved
  in
  let stores, rest = stores [] program.Gpusim.Isa.body in
  let loads = loads [] (bars rest) in
  need (stores <> [] && loads <> []);
  let ms = Layout.to_matrix src and md = Layout.to_matrix dst in
  let n = F2.Bitmatrix.rows ms in
  need (F2.Bitmatrix.rows md = n);
  (* The first store of each source slot: its address map and the
     slot's position in it. *)
  let first_store = Array.make src_regs None in
  List.iter
    (fun (slots, addr) ->
      Array.iteri
        (fun i s ->
          if s >= 0 && s < src_regs && first_store.(s) = None then first_store.(s) <- Some (addr, i))
        slots)
    stores;
  let ech = Layout.Memo.echelon src and rb = Util.log2 src_regs in
  let cell_of_unit j =
    match F2.Bitmatrix.solve_with ech (1 lsl j) with
    | Some x when x < src_regs * threads && F2.Bitmatrix.apply ms x = 1 lsl j -> (
        match first_store.(x land (src_regs - 1)) with
        | Some ({ Gpusim.Isa.base; cols }, i) ->
            let a = base lxor F2.Bitmatrix.apply cols (x lsr rb) in
            need (a >= 0);
            a + i
        | None -> raise Unproved)
    | _ -> raise Unproved
  in
  let cols = Array.init n cell_of_unit in
  (* [cell] is injective iff its columns are independent; the largest
     element of its image is built greedily over the pivots, in
     decreasing most-significant-bit order. *)
  let pivots = F2.Subspace.echelon_basis (Array.to_list cols) in
  need (List.length pivots = n);
  need (List.fold_left (fun x b -> max x (x lxor b)) 0 pivots < program.Gpusim.Isa.smem_elems);
  let cell =
    F2.Bitmatrix.make ~rows:(Array.fold_left (fun w c -> max w (F2.Bitvec.width c)) 0 cols) cols
  in
  (* One side: every slot of [accesses] lies in [first, first + regs),
     every one of those slots is accessed, and every access is at its
     element's cell under the layout [m]. *)
  let side m ~regs ~first accesses =
    let cm = F2.Bitmatrix.mul cell m and rb = Util.log2 regs in
    let covered = Array.make regs false in
    List.iter
      (fun (slots, { Gpusim.Isa.base; cols }) ->
        let k = Array.length slots in
        let aligned v = v land (k - 1) = 0 in
        need (Util.is_pow2 k && F2.Bitmatrix.cols cols = tb);
        let cell_reg i =
          let r = slots.(i) - first in
          need (r >= 0 && r < regs);
          covered.(r) <- true;
          F2.Bitmatrix.apply cm r
        in
        need (aligned base && cell_reg 0 = base);
        for i = 1 to k - 1 do
          need (cell_reg i lxor base = i)
        done;
        for j = 0 to tb - 1 do
          let c = F2.Bitmatrix.column cols j in
          need (aligned c && c = F2.Bitmatrix.apply cm (1 lsl (rb + j)))
        done)
      accesses;
    need (Array.for_all Fun.id covered)
  in
  side ms ~regs:src_regs ~first:0 stores;
  side md ~regs:map.Codegen.Lower.dst_regs ~first:map.Codegen.Lower.dst_base loads

(* [(Sel ; Shfl_idx ; Scatter)+], each round staging through a slot
   pair [send <> recv] outside the data slots, which do not overlap.
   Source slots are then never written.  A lane [l] that scatters to
   destination slot [r] must be kept by the round's shuffle and read a
   lane [l'] whose Sel picks a source slot [s] in the same round, so it
   scatters the provenance [(s, t')] of its source thread [t']; that
   point holds [r]'s element of thread [t] when
   [gr s lxor gt t' = wr r lxor wt t].  Every scatter writes a correct
   element, so the last one to a point does, and a bitmap over the
   destination points confirms that every point is written. *)
let shuffle_rounds ~src ~dst ~(map : Codegen.Lower.slot_map) (program : Gpusim.Isa.program) =
  let lanes = program.Gpusim.Isa.lanes in
  let threads = program.Gpusim.Isa.warps * lanes in
  let src_regs = map.Codegen.Lower.src_regs and dst_base = map.Codegen.Lower.dst_base in
  let dst_regs = map.Codegen.Lower.dst_regs and total = map.Codegen.Lower.total_slots in
  need (dst_base >= src_regs);
  let stage s = s >= src_regs && s < total && (s < dst_base || s >= dst_base + dst_regs) in
  let gr, gt = split_tables (Layout.to_matrix src) ~regs:src_regs ~threads in
  let wr, wt = split_tables (Layout.to_matrix dst) ~regs:dst_regs ~threads in
  let sc = Domain.DLS.get scratch_key in
  let written = bot_cells ~reuse:true sc.regs_buf (dst_regs * threads) in
  sc.regs_buf <- written;
  let round ~send ~recv ~sel ~src_lane ~keep ~scat =
    need (stage send && stage recv && send <> recv);
    for w = 0 to Array.length sel - 1 do
      let sel = sel.(w) and src_lane = src_lane.(w) and keep = keep.(w) and scat = scat.(w) in
      for l = 0 to lanes - 1 do
        need (sel.(l) < src_regs);
        let d = scat.(l) in
        if d >= 0 then begin
          let r = d - dst_base and l' = src_lane.(l) in
          let s = sel.(l') and t = (w * lanes) + l in
          need (r >= 0 && r < dst_regs && keep.(l) && s >= 0 && s < src_regs);
          need (gr.(s) lxor gt.((w * lanes) + l') = wr.(r) lxor wt.(t));
          written.((t * dst_regs) + r) <- 0
        end
      done
    done
  in
  let rec rounds = function
    | [] -> ()
    | (Gpusim.Isa.Sel { dst = send; src_slot = sel } as i1)
      :: (Gpusim.Isa.Shfl_idx { dst = recv; src = send'; src_lane; keep } as i2)
      :: (Gpusim.Isa.Scatter { src = recv'; dst_slot = scat } as i3)
      :: rest
      when send' = send && recv' = recv ->
        List.iter (fun i -> need (Gpusim.Isa.fault program i = None)) [ i1; i2; i3 ];
        round ~send ~recv ~sel ~src_lane ~keep ~scat;
        rounds rest
    | _ :: _ -> raise Unproved
  in
  rounds program.Gpusim.Isa.body;
  for h = 0 to (dst_regs * threads) - 1 do
    need (written.(h) <> bot)
  done

(* The conditions under which the scan's loader and reader raise
   nothing, then the shape's own checks, which include the
   interpreter's.  [Invalid_argument] from an array access or a
   factorization counts as a failed check. *)
let proves_in_closed_form ~src ~dst ~(map : Codegen.Lower.slot_map) (program : Gpusim.Isa.program) =
  let src_regs = map.Codegen.Lower.src_regs and dst_regs = map.Codegen.Lower.dst_regs in
  let dst_base = map.Codegen.Lower.dst_base and total = map.Codegen.Lower.total_slots in
  let pow2 = Util.is_pow2 in
  match
    need (pow2 program.Gpusim.Isa.lanes && pow2 program.Gpusim.Isa.warps);
    need (pow2 src_regs && pow2 dst_regs);
    need (src_regs <= total && dst_base >= 0 && dst_base + dst_regs <= total);
    match program.Gpusim.Isa.body with
    | Gpusim.Isa.St_shared _ :: _ -> round_trip ~src ~dst ~map program
    | Gpusim.Isa.Sel _ :: _ -> shuffle_rounds ~src ~dst ~map program
    | _ -> raise Unproved
  with
  | () -> true
  | exception (Unproved | Invalid_argument _) -> false

let certify_isa ~src ~dst ~(map : Codegen.Lower.slot_map) (program : Gpusim.Isa.program) =
  let dst_regs = map.Codegen.Lower.dst_regs in
  let threads = program.Gpusim.Isa.warps * program.Gpusim.Isa.lanes in
  let closed = proves_in_closed_form ~src ~dst ~map program in
  if Obs.enabled () then
    Obs.Metrics.incr (if closed then "transval.route.closed_form" else "transval.route.scan");
  if closed then
    { mechanism = "isa"; method_ = Symbolic; points = dst_regs * threads; verdict = Proved }
  else
    let wr, wt = split_tables (Layout.to_matrix dst) ~regs:dst_regs ~threads in
    let rb = Util.log2 dst_regs in
    check_program ~src ~map
      ~want:(fun h -> wr.(h land (dst_regs - 1)) lxor wt.(h lsr rb))
      ~mechanism:"isa" program

(* Cross-CTA conversions spill through global memory, which the
   warp-level ISA does not model, so the plan itself is the artifact:
   destination point [h] reads source point
   [pseudo_invert(src_flat)(dst_flat h)].
   That is correct by construction whenever the two layouts cover the
   same logical space and the source is surjective onto it — both
   decidable by elimination on the F2 matrices.  The logical spaces are
   compared with their labels ({!Layout.logical_space}): equal bit
   totals are not enough, as an 8x4 and a 4x8 tensor show. *)
let certify_algebraic ~src ~dst ~mechanism =
  let points = 1 lsl Layout.total_in_bits dst in
  let space = Layout.logical_space in
  if space src <> space dst then
    let show l =
      String.concat "x" (List.map (fun (d, n) -> Printf.sprintf "%s:%d" d n) (space l))
    in
    {
      mechanism;
      method_ = Algebraic;
      points;
      verdict =
        Failed
          (Printf.sprintf "layouts cover different logical spaces (%s vs %s)" (show src)
             (show dst));
    }
  else
    (* Keyed on the flattened map, so sources that differ only in
       their output labels share one factorization. *)
    let ech = Layout.Memo.echelon (Layout.flatten_outs src) in
    (* A surjective source solves every right-hand side, so the
       unit-vector scan below cannot refute — prove in O(1) from the
       factorization's rank (the verdict is identical by construction). *)
    if F2.Bitmatrix.is_surjective_with ech then
      { mechanism; method_ = Algebraic; points; verdict = Proved }
    else
      (* The destination points whose logical image the source reaches
         form a subspace, so the first point outside it is the first
         unit vector outside it: every smaller point is an XOR of
         earlier unit vectors. *)
      let n = Layout.total_in_bits dst in
      let rec go j =
        if j >= n then { mechanism; method_ = Algebraic; points; verdict = Proved }
        else
          let want = Layout.apply_flat dst (1 lsl j) in
          match F2.Bitmatrix.solve_with ech want with
          | Some _ -> go (j + 1)
          | None ->
              {
                mechanism;
                method_ = Algebraic;
                points;
                verdict = Refuted { counterexample = 1 lsl j; got = None; want };
              }
      in
      go 0

let certify_plan machine (plan : Codegen.Conversion.plan) =
  let mechanism = Codegen.Conversion.mechanism_name plan.Codegen.Conversion.mechanism in
  let src = plan.Codegen.Conversion.src and dst = plan.Codegen.Conversion.dst in
  let cert =
    if not (Codegen.Lower.lowerable plan) then
      (* Global round trips, and plans whose CTA shapes differ (e.g. a
         post-reduction layout with fewer live lane bits), have no
         warp-level lowering: the conversion map itself is the
         artifact to certify. *)
      certify_algebraic ~src ~dst ~mechanism
    else
      match Codegen.Lower.conversion machine plan with
      | exception Failure msg ->
          {
            mechanism;
            method_ = Symbolic;
            points = 1 lsl Layout.total_in_bits dst;
            verdict = Failed ("lowering failed: " ^ msg);
          }
      | program, map -> { (certify_isa ~src ~dst ~map program) with mechanism }
  in
  if Obs.enabled () then begin
    Obs.Metrics.incr "transval.certificates.checked";
    Obs.Metrics.incr
      (match cert.verdict with
      | Proved -> "transval.certificates.proved"
      | Refuted _ | Failed _ -> "transval.certificates.refuted")
  end;
  cert

(* Gather plans are index-dependent: destination point [h] must hold the
   source element at [h]'s logical coordinates with the gathered axis
   replaced by the index tensor's value there.  The spec is not linear
   in general (it depends on the index data), so it has no split tables:
   the scan asks for it point by point. *)
let certify_gather_isa ~src ~index ~axis ~map program =
  let to_logical = Layout.apply_flat src in
  let out_dims = Layout.out_dims src in
  let axis_size = Layout.out_size src (Dims.dim axis) in
  let t_idx =
    match Gpusim.Dist.to_logical index with
    | Ok t -> t
    | Error e -> failwith ("Transval.certify_gather: " ^ e)
  in
  let want h =
    let logical = to_logical h in
    let coords = Layout.unflatten_value out_dims logical in
    let idx = t_idx.(logical) land (axis_size - 1) in
    let coords' = List.map (fun (d, c) -> (d, if d = Dims.dim axis then idx else c)) coords in
    Layout.flatten_value out_dims coords'
  in
  check_program ~src ~map ~want ~mechanism:"gather" program

let certify_gather machine ~src ~index ~axis =
  match Codegen.Lower.gather machine ~src ~index ~axis with
  | Error msg -> { mechanism = "gather"; method_ = Symbolic; points = 0; verdict = Failed msg }
  | exception Failure msg ->
      { mechanism = "gather"; method_ = Symbolic; points = 0; verdict = Failed msg }
  | Ok (program, map) ->
      certify_gather_isa ~src:src.Gpusim.Dist.layout ~index ~axis ~map program

(* {1 Diagnostics} *)

let pp_point ~bits ppf h = F2.Bitvec.pp ~width:(max 1 bits) ppf h

let diagnostics ?(loc = Diagnostics.No_loc) cert =
  let bits = Util.log2 (max 1 cert.points) in
  match cert.verdict with
  | Proved -> []
  | Refuted { counterexample; got = Some got; want } ->
      [
        Diagnostics.error ~code:"LL650" ~loc
          "plan certificate refuted (%s, %s): destination hw point %a holds logical element \
           %d, the conversion map requires %d"
          cert.mechanism (method_name cert.method_) (pp_point ~bits) counterexample got want;
      ]
  | Refuted { counterexample; got = None; want } ->
      [
        Diagnostics.error ~code:"LL651" ~loc
          "plan certificate refuted (%s, %s): destination hw point %a is never written \
           (required logical element %d)"
          cert.mechanism (method_name cert.method_) (pp_point ~bits) counterexample want;
      ]
  | Failed msg ->
      [
        Diagnostics.error ~code:"LL652" ~loc "plan could not be certified (%s): %s"
          cert.mechanism msg;
      ]

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Failed _ -> "failed"
