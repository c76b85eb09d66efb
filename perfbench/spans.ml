(* In-memory spans for the traced run.

   A span is recorded around each call from the benchmark into a layer's
   public function: name, start, end (ns), the enclosing span and a request
   id shared by the spans of one transaction. Spans stay in memory and are
   written out once, at exit. When tracing is off, [with_span] is a plain
   call. *)

let enabled = ref false

type span = {
  mutable name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  req : int;
}

let buf : span array ref = ref [||]
let len = ref 0
let stack = ref []
let requests = ref 0

let push s =
  if !len = Array.length !buf then begin
    let nb = Array.make (max 1024 (2 * !len)) s in
    Array.blit !buf 0 nb 0 !len;
    buf := nb
  end;
  !buf.(!len) <- s;
  incr len;
  !len - 1

(* A top-level span starts a new request id; nested spans inherit their
   parent's. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    let req =
      if parent >= 0 then !buf.(parent).req
      else begin
        incr requests;
        !requests
      end
    in
    let i = push { name; start = Common.now_ns (); stop = 0.; parent; req } in
    stack := i :: !stack;
    Fun.protect
      ~finally:(fun () ->
        !buf.(i).stop <- Common.now_ns ();
        stack := List.tl !stack)
      f
  end

(* Rename the innermost open span. *)
let rename_current name =
  match !stack with i :: _ when !enabled -> !buf.(i).name <- name | _ -> ()

(* Per span name: (calls, total self time in µs). A span's self time is its
   duration minus the time its child spans cover. *)
let self_times () =
  let child = Array.make !len 0. in
  for i = 0 to !len - 1 do
    let s = !buf.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to !len - 1 do
    let s = !buf.(i) in
    let self = (s.stop -. s.start -. child.(i)) /. 1e3 in
    let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (n + 1, t +. self)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Mean self time per call of [name], µs (0 when never called). *)
let mean_self times name =
  match List.assoc_opt name times with
  | Some (n, t) when n > 0 -> t /. float_of_int n
  | _ -> 0.

let total_self times name =
  match List.assoc_opt name times with Some (_, t) -> t | None -> 0.

(* Chrome trace-event JSON, one complete event per span. *)
let write ~file =
  let oc = open_out file in
  output_string oc "{\"traceEvents\":[";
  let t0 = if !len > 0 then !buf.(0).start else 0. in
  for i = 0 to !len - 1 do
    let s = !buf.(i) in
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
      s.name ((s.start -. t0) /. 1e3) ((s.stop -. s.start) /. 1e3) i s.parent s.req
  done;
  output_string oc "\n]}\n";
  close_out oc
