(* Spans recorded by the benchmark around its calls into each layer.
   They stay in memory (name, start, end, parent, request id) and are
   written once, at the end of a traced run, as a Chrome trace_event
   file through [Obs.Export.chrome_json]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** request sequence number, -1 outside requests *)
  start : float;
  mutable stop : float;
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_req = ref (-1)

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  current_req := -1

let enter name =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; name; parent; req = !current_req; start = Util.now (); stop = nan } in
  incr next_id;
  stack := s :: !stack;
  spans := s :: !spans;
  s

let exit s =
  s.stop <- Util.now ();
  match !stack with
  | top :: rest when top == s -> stack := rest
  | _ -> failwith ("Spans.exit: unbalanced span " ^ s.name)

let with_ name f =
  let s = enter name in
  match f () with
  | r ->
      exit s;
      r
  | exception e ->
      exit s;
      raise e

(* A request root: its children inherit the request id. *)
let request ~req name f =
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := -1) (fun () -> with_ name f)

let all () = List.rev !spans
let dur s = s.stop -. s.start

(* Self time per span: its duration minus what its children cover
   (children never overlap: spans nest on one domain). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) (all ())

(* Self time summed by span name over the spans under request roots. *)
let self_by_name () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.req >= 0 then
        Hashtbl.replace tbl s.name (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (_, a) (_, b) -> compare b a)

let chrome_json () =
  let children = Hashtbl.create 1024 in
  let roots = ref [] in
  List.iter
    (fun s -> if s.parent < 0 then roots := s :: !roots else Hashtbl.add children s.parent s)
    (List.rev (all ()));
  let attrs s =
    [ ("id", string_of_int s.id); ("parent", string_of_int s.parent); ("req", string_of_int s.req) ]
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let rec walk s =
    emit { Obs.Trace.phase = Obs.Trace.Begin; name = s.name; ts = s.start; tid = 0; attrs = attrs s };
    List.iter walk (List.sort (fun a b -> compare a.start b.start) (Hashtbl.find_all children s.id));
    emit { Obs.Trace.phase = Obs.Trace.End; name = s.name; ts = s.stop; tid = 0; attrs = [] }
  in
  List.iter walk (List.sort (fun a b -> compare a.start b.start) !roots);
  Obs.Export.chrome_json (List.rev !events)
