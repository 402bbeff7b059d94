(* Hierarchical timing wheel with a calendar-style overflow list, a
   drop-in replacement for the binary [Event_heap] inside [Engine].

   Entries are bucketed by the first 8-bit digit of their timestamp
   that differs from [cur] (the prefix scheme): level 0 buckets are
   exact timestamps within the current 256 µs page, level 1 buckets
   span 256 µs, and so on up to level 3 (~71 min). Times beyond the
   level-3 horizon go to the [overflow] list and are folded back in
   when the wheel drains — the calendar-queue fallback for far-future
   timers. Push and pop are O(1) amortized (each entry cascades at
   most [levels - 1] times), against the heap's O(log n).

   An entry is two ints, a timestamp and an opaque payload (the
   engine's encoded event), stored in a bucket's parallel [times] and
   [payloads] arrays: there is no entry record, so [add] allocates
   nothing once a bucket has grown. Bucket storage is recycled: a
   cascade empties a bucket by resetting its length, and draining a
   level-0 slot swaps the slot's arrays with the spent ready buffer's.
   Int arrays pin nothing for the GC, so consumed ranges need no
   clearing.

   Every insertion path appends in push order (a cascade walks its
   source bucket in array order; a page's lower-level buckets are empty
   until its cascade runs, so cascaded entries always precede later
   direct pushes), and a level-0 slot holds exactly one timestamp, so
   the drained bucket is already in (time, push order) — no sort, and
   no sequence number stored per entry.

   The observable order is the exact (time, push order) lexicographic
   total order the engine's determinism contract requires: FIFO within a
   timestamp, globally sorted by timestamp. The equivalence property
   test in test_sim.ml drains random schedules through this structure
   and the heap side by side and asserts identical output.

   Contract (engine-shaped): a push's [time] must be no earlier than
   the time of the most recently taken entry. [Engine.schedule_at]
   already enforces the stronger [time >= clock]. *)

let bits = 8

let slots = 256 (* 1 lsl bits *)

let mask = slots - 1

let levels = 4 (* horizon: 2^32 µs, ~71 simulated minutes *)

(* A bucket is an index into the flat [lens]/[times]/[payloads]
   arrays: slot [idx] of level [l] is bucket [l * slots + idx], and
   bucket [ready] is the ready buffer. Entries are push-ordered (not
   time-ordered) and valid on [0, lens.(b)); spent buckets keep their
   storage for reuse. The flat arrays exceed the minor heap's object
   limit, so [create] allocates three arrays in the major heap and no
   per-bucket record. *)
let ready = levels * slots

type t = {
  (* Floor on every stored entry's time; advanced by taking an entry
     to its timestamp and by cascades to the cascaded page's base. *)
  mutable cur : int;
  lens : int array;
  times : int array array;
  payloads : int array array;
  occ : int array; (* stored entries per level *)
  mutable overflow : (int * int) list; (* (time, payload), newest first *)
  mutable n_overflow : int;
  (* The ready buffer holds entries of one timestamp [ready_time], in
     push order, served from [ready_pos]. Filled by draining the next
     non-empty level-0 slot (an array swap, not a copy). *)
  mutable ready_pos : int;
  mutable ready_time : int;
  (* Entries legally pushed at a time in [last-taken, cur): [cur] may
     run ahead of the engine clock after a cascade, and [Engine.run
     ~until] stops the clock between events. Sorted by (time, push
     order); always served before the wheel ([cur] floors the wheel).
     Rarely populated, so a list is fine. *)
  mutable early : (int * int) list;
  mutable size : int;
  mutable last_time : int;
}

let create () =
  {
    cur = 0;
    lens = Array.make (ready + 1) 0;
    times = Array.make (ready + 1) [||];
    payloads = Array.make (ready + 1) [||];
    occ = Array.make levels 0;
    overflow = [];
    n_overflow = 0;
    ready_pos = 0;
    ready_time = 0;
    early = [];
    size = 0;
    last_time = 0;
  }

let size t = t.size

let is_empty t = Int.equal t.size 0

let last_time t = t.last_time

let bucket_push t b time p =
  let len = t.lens.(b) in
  let cap = Array.length t.times.(b) in
  if Int.equal len cap then begin
    let grown = if cap = 0 then 8 else 2 * cap in
    let times = Array.make grown 0 and payloads = Array.make grown 0 in
    Array.blit t.times.(b) 0 times 0 len;
    Array.blit t.payloads.(b) 0 payloads 0 len;
    t.times.(b) <- times;
    t.payloads.(b) <- payloads
  end;
  t.times.(b).(len) <- time;
  t.payloads.(b).(len) <- p;
  t.lens.(b) <- len + 1

(* Level of [time] relative to [cur]: the highest 8-bit digit where the
   two differ, or [levels] when the difference lies beyond the horizon
   (overflow). The xor isolates the differing digits, so shifting it
   away level by level finds the highest one branch-cheaply.
   Precondition: time >= cur. *)
let level_of t time =
  let diff = time lxor t.cur in
  if diff lsr bits = 0 then 0
  else if diff lsr (2 * bits) = 0 then 1
  else if diff lsr (3 * bits) = 0 then 2
  else if diff lsr (4 * bits) = 0 then 3
  else levels

let insert_wheel t time p =
  let l = level_of t time in
  if Int.equal l levels then begin
    t.overflow <- (time, p) :: t.overflow;
    t.n_overflow <- t.n_overflow + 1
  end
  else begin
    bucket_push t ((l * slots) + ((time lsr (bits * l)) land mask)) time p;
    t.occ.(l) <- t.occ.(l) + 1
  end

(* Put a premature ready buffer back into the wheel so an earlier push
   can take its place. The walk is in push order, so the target level-0
   slot (empty: it was drained, and same-time pushes went to [ready])
   stays in push order. *)
let unwind_ready t =
  let times = t.times.(ready) and payloads = t.payloads.(ready) in
  for i = t.ready_pos to t.lens.(ready) - 1 do
    insert_wheel t times.(i) payloads.(i)
  done;
  t.lens.(ready) <- 0;
  t.ready_pos <- 0

let ready_count t = t.lens.(ready) - t.ready_pos

let add t ~time p =
  t.size <- t.size + 1;
  if time < t.cur then begin
    (* Legal only between the last take and [cur] (see [early]). The
       new entry is the latest inserted, so it goes after every entry
       of its timestamp. *)
    let rec ins = function
      | [] -> [ (time, p) ]
      | ((et, _) as e) :: rest as l ->
          if time < et then (time, p) :: l else e :: ins rest
    in
    t.early <- ins t.early
  end
  else if ready_count t = 0 then insert_wheel t time p
  else if Int.equal time t.ready_time then
    (* The newest entry of its timestamp: appending keeps [ready] in order. *)
    bucket_push t ready time p
  else if time < t.ready_time then begin
    unwind_ready t;
    insert_wheel t time p
  end
  else insert_wheel t time p

(* First non-empty slot of level [l] at digit >= cur's digit, or -1. *)
let scan_level t l =
  let base = l * slots in
  let idx = ref ((t.cur lsr (bits * l)) land mask) in
  while !idx < slots && Int.equal t.lens.(base + !idx) 0 do
    incr idx
  done;
  if !idx < slots then !idx else -1

(* Stage the level-0 slot as the ready buffer by swapping storage:
   the slot takes the spent ready arrays, the ready buffer takes the
   slot's entries — already in push order (see the ordering invariant
   above), all of one timestamp. *)
let drain_l0_slot t idx =
  let len = t.lens.(idx) in
  if len > 0 then begin
    t.occ.(0) <- t.occ.(0) - len;
    (* lens.(ready) = 0: ready is only refilled once fully consumed. *)
    let times = t.times.(idx) and payloads = t.payloads.(idx) in
    t.times.(idx) <- t.times.(ready);
    t.payloads.(idx) <- t.payloads.(ready);
    t.lens.(idx) <- 0;
    t.times.(ready) <- times;
    t.payloads.(ready) <- payloads;
    t.lens.(ready) <- len;
    t.ready_pos <- 0;
    t.ready_time <- times.(0)
  end

(* Cascade the level-l bucket at [idx] down: advance [cur] to the
   bucket's page base (safe: every stored entry is at or past it) and
   re-insert in array order, which lands each entry at a strictly
   lower level and preserves push order per target bucket. *)
let cascade t l idx =
  let page = bits * (l + 1) in
  let base = ((t.cur lsr page) lsl page) lor (idx lsl (bits * l)) in
  let b = (l * slots) + idx in
  let n = t.lens.(b) in
  t.occ.(l) <- t.occ.(l) - n;
  t.cur <- base;
  t.lens.(b) <- 0;
  let times = t.times.(b) and payloads = t.payloads.(b) in
  for i = 0 to n - 1 do
    insert_wheel t times.(i) payloads.(i)
  done

(* Fold the overflow calendar back in once the wheel proper is empty:
   jump [cur] to the earliest far-future entry and re-insert everything
   that now fits under the horizon. The list holds newest first, so the
   reversed walk keeps per-bucket push order. *)
let refill_from_overflow t =
  match t.overflow with
  | [] -> ()
  | (first, _) :: rest ->
      t.cur <- List.fold_left (fun m (time, _) -> Int.min m time) first rest;
      let all = List.rev t.overflow in
      t.overflow <- [];
      t.n_overflow <- 0;
      List.iter (fun (time, p) -> insert_wheel t time p) all

let in_wheel t =
  t.occ.(0) + t.occ.(1) + t.occ.(2) + t.occ.(3) + t.n_overflow

(* Ensure [ready] holds the earliest wheel timestamp (when the wheel
   side is non-empty). Cascades mutate placement, never order. *)
let rec refill t =
  if Int.equal (ready_count t) 0 && in_wheel t > 0 then begin
    let l = ref 0 and idx = ref (-1) in
    while !idx < 0 && !l < levels do
      if t.occ.(!l) > 0 then idx := scan_level t !l;
      if !idx < 0 then incr l
    done;
    if !idx < 0 then refill_from_overflow t
    else if Int.equal !l 0 then drain_l0_slot t !idx
    else cascade t !l !idx;
    refill t
  end

let head_time t =
  match t.early with
  | (time, _) :: _ -> time
  | [] ->
      if Int.equal (ready_count t) 0 then refill t;
      if ready_count t > 0 then t.ready_time else max_int

let take t =
  if Int.equal t.size 0 then invalid_arg "Timing_wheel.take: empty";
  t.size <- t.size - 1;
  match t.early with
  | (time, p) :: rest ->
      t.early <- rest;
      t.last_time <- time;
      p
  | [] ->
      if Int.equal (ready_count t) 0 then refill t;
      let p = t.payloads.(ready).(t.ready_pos) in
      t.ready_pos <- t.ready_pos + 1;
      if Int.equal t.ready_pos t.lens.(ready) then begin
        t.lens.(ready) <- 0;
        t.ready_pos <- 0
      end;
      t.cur <- t.ready_time;
      t.last_time <- t.ready_time;
      p
