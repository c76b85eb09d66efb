(* GC pause time from OCaml's runtime_events ring (traced run only).

   Every runtime phase the ring reports is GC or stop-the-world work; the
   pause time is the union of the outermost phase intervals. The ring is
   polled only right before and after a timed region, so polling never
   allocates inside it (the allocation count is pinned); run.sh sizes the
   ring (OCAMLRUNPARAM=e=16) so one rep's events fit, and any that wrapped
   are counted in [lost]. Without [start], [take] returns 0. *)

let depth = ref 0
let opened = ref 0L
let pause_ns = ref 0L
let lost = ref 0
let cursor = ref None

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _dom ts _phase ->
      if !depth = 0 then opened := Runtime_events.Timestamp.to_int64 ts;
      incr depth)
    ~runtime_end:(fun _dom ts _phase ->
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          pause_ns :=
            Int64.add !pause_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !opened)
      end)
    ~lost_events:(fun _dom n -> lost := !lost + n)
    ()

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Pause seconds recorded since the previous call. *)
let take () =
  poll ();
  let s = Int64.to_float !pause_ns /. 1e9 in
  pause_ns := 0L;
  s

let stop () =
  poll ();
  Option.iter Runtime_events.free_cursor !cursor;
  cursor := None;
  Runtime_events.pause ()
