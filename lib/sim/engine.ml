type state = Pending | Fired | Cancelled

type event = {
  mutable time : float;
  mutable seq : int;
  action : unit -> unit;
  mutable state : state;
  (* Index in the heap array, -1 once popped: lets [reschedule] re-key a
     queued event in place instead of leaving a cancelled copy behind. *)
  mutable slot : int;
}

type handle = event

(* The event queue is a monomorphic binary heap inlined here rather than an
   instance of the generic {!Binheap}: comparisons compile to two float/int
   tests instead of a closure call, and popped slots are cleared so fired
   events (and the closures they capture) are collectable. At millions of
   events per run this is the hottest loop in the simulator. *)
type t = {
  mutable now : float;
  mutable seq : int;
  mutable live : int;
  mutable fired : int;
  mutable data : event array;
  mutable size : int;
}

(* Placeholder for empty heap slots; never compared or fired. *)
let dummy =
  { time = neg_infinity; seq = -1; action = ignore; state = Cancelled; slot = -1 }

let create () =
  { now = 0.; seq = 0; live = 0; fired = 0; data = [||]; size = 0 }

let now t = t.now
let events_processed t = t.fired

(* [a] fires strictly before [b]: earlier time, FIFO on ties. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let sift_up t i =
  let ev = t.data.(i) in
  let i = ref i in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before ev t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let moved = t.data.(parent) in
    t.data.(!i) <- moved;
    moved.slot <- !i;
    i := parent
  done;
  t.data.(!i) <- ev;
  ev.slot <- !i

let sift_down t i =
  let ev = t.data.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    if left >= t.size then continue := false
    else begin
      let child =
        if right < t.size && before t.data.(right) t.data.(left) then right
        else left
      in
      let moved = t.data.(child) in
      if before moved ev then begin
        t.data.(!i) <- moved;
        moved.slot <- !i;
        i := child
      end
      else continue := false
    end
  done;
  t.data.(!i) <- ev;
  ev.slot <- !i

let push t ev =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let fresh = Array.make (max 64 (2 * capacity)) dummy in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- dummy;
    sift_down t 0
  end
  else t.data.(0) <- dummy;
  top.slot <- -1;
  top

let check_delay op delay =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg ("Engine." ^ op ^ ": delay must be finite and non-negative")

let schedule t ~delay action =
  check_delay "schedule" delay;
  let ev =
    { time = t.now +. delay; seq = t.seq; action; state = Pending; slot = -1 }
  in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  push t ev;
  ev

(* A fresh [seq], exactly as [schedule] would draw, keeps the firing order
   that of cancel-plus-schedule. A queued event (pending or cancelled) moves
   to its new place in the heap; a popped one is pushed again. *)
let reschedule t ev ~delay =
  check_delay "reschedule" delay;
  ev.time <- t.now +. delay;
  ev.seq <- t.seq;
  t.seq <- t.seq + 1;
  (match ev.state with
  | Pending -> ()
  | Fired | Cancelled -> t.live <- t.live + 1);
  ev.state <- Pending;
  let i = ev.slot in
  if i < 0 then push t ev
  else begin
    sift_up t i;
    if ev.slot = i then sift_down t i
  end

let cancel t ev =
  match ev.state with
  | Pending ->
    ev.state <- Cancelled;
    t.live <- t.live - 1
  | Fired | Cancelled -> ()

let rec step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    match ev.state with
    | Cancelled | Fired -> step t
    | Pending ->
      ev.state <- Fired;
      t.live <- t.live - 1;
      t.now <- ev.time;
      t.fired <- t.fired + 1;
      ev.action ();
      true
  end

let run ?until t =
  let within time =
    match until with None -> true | Some limit -> time <= limit
  in
  let rec loop () =
    if t.size > 0 then begin
      let ev = t.data.(0) in
      if ev.state <> Pending then begin
        ignore (pop t);
        loop ()
      end
      else if within ev.time then begin
        if step t then loop ()
      end
    end
  in
  loop ();
  match until with
  | Some limit -> t.now <- max t.now limit
  | None -> ()

let pending t = t.live
