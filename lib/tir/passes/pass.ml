open Linear_layout

type mode = Linear | Legacy_mode

type conversion_info = {
  at : Program.id;
  mechanism : string;
  conv_cost : Gpusim.Cost.t;
  plan : Codegen.Conversion.plan option;
}

type result = {
  cost : Gpusim.Cost.t;
  conversions : conversion_info list;
  converts : int;
  noop_converts : int;
  local_loads : int;
  local_stores : int;
  remats : int;
  unsupported : string list;
}

type request = {
  at : Program.id;
  src : Program.id;
  src_layout : Layout.t;
  src_kind : Legacy.Support.layout_kind;
  dst : Layout.t;
  dst_kind : Legacy.Support.layout_kind;
  ldmatrix_ok : bool;
  smem_resident : bool;
  foldable : bool;
  remat_candidate : bool;
}

type store_candidate = {
  store_at : Program.id;
  store_src : Program.id;
  store_src_layout : Layout.t;
  store_src_kind : Legacy.Support.layout_kind;
  store_anchor : Layout.t;
}

type pending =
  | Convert of request
  | Store_decision of store_candidate
  | Remat of { remat_at : Program.id; remat_src : Program.id }

type access_kind = Global_load | Global_store | Register_materialize

type access = {
  access_at : Program.id;
  access_kind : access_kind;
  access_layout : Layout.t;
  access_byte_width : int;
}

type state = {
  machine : Gpusim.Machine.t;
  mode : mode;
  num_warps : int;
  chooser : Strategy.t;
      (* commits one candidate per decision site; greedy by default *)
  prog : Program.t;
  total : Gpusim.Cost.t;
  chain_cost : (Program.id, Gpusim.Cost.t) Hashtbl.t;
  mutable pending : pending list;  (* reverse creation order *)
  mutable accesses : access list;  (* reverse creation order *)
  mutable convs : conversion_info list;  (* reverse creation order *)
  mutable converts : int;
  mutable noops : int;
  mutable local_loads : int;
  mutable local_stores : int;
  mutable remats : int;
  mutable folded : int;
  mutable unsupported : string list;  (* reverse creation order *)
  mutable saw_reduce : bool;
  mutable decisions : (Strategy.site * int) list;  (* reverse site order *)
  mutable diags : Diagnostics.t list;  (* emission order *)
}

module type PASS = sig
  val name : string
  val description : string
  val run : state -> unit
end

type t = (module PASS)

let init machine ~mode ?(num_warps = 4) ?(chooser = Assign_greedy.strategy) prog =
  (* Engine reruns must be idempotent: the passes mutate the program's
     layout fields in place, so start every run from the unassigned
     state rather than whatever a previous run (possibly in the other
     mode) left behind. *)
  for i = 0 to Program.length prog - 1 do
    let ins = Program.instr prog i in
    ins.Program.layout <- None;
    ins.Program.kind <- Legacy.Support.Blocked
  done;
  {
    machine;
    mode;
    num_warps;
    chooser;
    prog;
    total = Gpusim.Cost.zero ();
    chain_cost = Hashtbl.create 32;
    pending = [];
    accesses = [];
    convs = [];
    converts = 0;
    noops = 0;
    local_loads = 0;
    local_stores = 0;
    remats = 0;
    folded = 0;
    unsupported = [];
    saw_reduce = false;
    decisions = [];
    diags = [];
  }

let decide st site =
  let c = st.chooser.Strategy.choose site in
  st.decisions <- (site, c) :: st.decisions;
  c

let result st =
  {
    cost = st.total;
    conversions = List.rev st.convs;
    converts = st.converts;
    noop_converts = st.noops;
    local_loads = st.local_loads;
    local_stores = st.local_stores;
    remats = st.remats;
    unsupported = List.rev st.unsupported;
  }

let layout_of st i =
  match (Program.instr st.prog i).Program.layout with
  | Some l -> l
  | None -> failwith "Engine: source instruction has no layout (use-before-def?)"

let kind_of st i = (Program.instr st.prog i).Program.kind

let set st i layout kind =
  let ins = Program.instr st.prog i in
  ins.Program.layout <- Some layout;
  ins.Program.kind <- kind

let warn st ~code ?loc fmt =
  Format.kasprintf
    (fun message ->
      st.diags <- st.diags @ [ Diagnostics.warning ~code ?loc "%s" message ])
    fmt
