(* Hierarchical timed regions.  A span is a Begin/End event pair in the
   trace; nesting is implied by event order within a domain (the Chrome
   trace viewer and Export.tree_of_events both rebuild the tree from
   that order).

   When instrumentation is disabled, [enter] returns a preallocated
   dummy and [exit] is a branch on it — no allocation on the fast
   path. *)

type t = { name : string; t0 : float; tid : int; live : bool }

let dummy = { name = ""; t0 = 0.; tid = 0; live = false }

let enter ?(attrs = []) name =
  if not (Control.enabled ()) then dummy
  else begin
    let tid = (Domain.self () :> int) in
    let ts = Clock.now () in
    Trace.emit { Trace.phase = Trace.Begin; name; ts; tid; attrs };
    { name; t0 = ts; tid; live = true }
  end

let exit ?(attrs = []) s =
  if s.live then
    Trace.emit { Trace.phase = Trace.End; name = s.name; ts = Clock.now (); tid = s.tid; attrs }

let live s = s.live

let instant ?(attrs = []) name =
  if Control.enabled () then
    Trace.emit
      {
        Trace.phase = Trace.Instant;
        name;
        ts = Clock.now ();
        tid = (Domain.self () :> int);
        attrs;
      }

let with_ ?attrs name f =
  let s = enter ?attrs name in
  match f () with
  | v ->
      exit s;
      v
  | exception e ->
      exit ~attrs:[ ("error", Printexc.to_string e) ] s;
      raise e
