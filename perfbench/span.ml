(* Self-time span accumulator for one benchmark run.

   Spans are opened and closed around calls that cross a layer boundary.
   Time is charged to the innermost open span only, so a span's total is
   its self time and the totals of all spans opened inside one phase add
   up, together with the phase's own residue, to the phase's wall time
   exactly. High-frequency boundaries are aggregated per (phase, name) as
   a count, a self-time total and the largest inclusive duration; nothing
   is written until the run ends.

   A disabled accumulator still tracks phase switches (two clock reads per
   run), which is what the untraced end-to-end timings rely on. *)

type acc = { mutable count : int; mutable self_ns : int; mutable max_ns : int }

type t = {
  enabled : bool;
  table : (string * string, acc) Hashtbl.t;
  mutable stack : (string * int) list;  (** open spans: name, start ns *)
  mutable mark : int;  (** last instant self time was charged *)
  mutable phase : string;
  mutable switches : (string * int) list;  (** phase, entered at (newest first) *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ~enabled =
  let t0 = now_ns () in
  {
    enabled;
    table = Hashtbl.create 64;
    stack = [];
    mark = t0;
    phase = "setup";
    switches = [ ("setup", t0) ];
  }

let acc t name =
  let key = (t.phase, name) in
  match Hashtbl.find_opt t.table key with
  | Some a -> a
  | None ->
      let a = { count = 0; self_ns = 0; max_ns = 0 } in
      Hashtbl.add t.table key a;
      a

let charge t now =
  let name = match t.stack with (name, _) :: _ -> name | [] -> "self" in
  let a = acc t name in
  a.self_ns <- a.self_ns + (now - t.mark);
  t.mark <- now

let enter t name =
  if t.enabled then begin
    let now = now_ns () in
    charge t now;
    t.stack <- (name, now) :: t.stack
  end

let leave t =
  if t.enabled then
    match t.stack with
    | [] -> invalid_arg "Span.leave: no open span"
    | (name, start) :: rest ->
        let now = now_ns () in
        charge t now;
        let a = acc t name in
        a.count <- a.count + 1;
        a.max_ns <- max a.max_ns (now - start);
        t.stack <- rest

let time t name f =
  enter t name;
  let r = f () in
  leave t;
  r

(* Phases switch only between calls, never inside an open span. *)
let switch t phase =
  if not (String.equal phase t.phase) then begin
    let now = now_ns () in
    if t.enabled then charge t now;
    t.mark <- now;
    t.phase <- phase;
    t.switches <- (phase, now) :: t.switches
  end

let entered t phase = List.assoc_opt phase t.switches

(* Sorted so that reports and the written trace are stable. *)
let entries t =
  List.sort compare
    (Hashtbl.fold
       (fun (phase, name) a l -> (phase, name, a.count, a.self_ns, a.max_ns) :: l)
       t.table [])

let self_ns t ~phase name =
  match Hashtbl.find_opt t.table (phase, name) with
  | Some a -> a.self_ns
  | None -> 0
