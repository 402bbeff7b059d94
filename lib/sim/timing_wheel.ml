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

   Buckets are growable arrays whose storage is recycled: a cascade
   empties a bucket by resetting its length, and draining a level-0
   slot swaps the slot's array with the spent ready buffer, so the
   steady state allocates one entry record per push — the same as the
   heap — instead of a cons cell per entry per level.

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
   the time of the most recently popped entry. [Engine.schedule_at]
   already enforces the stronger [time >= clock].

   The entry record is also the engine's event: it carries an opaque
   [kind] tag and a liveness flag, and [add] hands it back as the
   cancellation handle. A cancelled entry stays where it is and is
   discarded when it reaches the head, so cancelling is O(1). The
   consuming side ([head_time], [take]) allocates nothing: no option,
   no tuple per event. *)

let bits = 8

let slots = 256 (* 1 lsl bits *)

let mask = slots - 1

let levels = 4 (* horizon: 2^32 µs, ~71 simulated minutes *)

type 'a entry = {
  time : int;
  kind : int;
  payload : 'a;
  (* True from [add] until the entry is taken or cancelled. *)
  mutable live : bool;
  (* The wheel holding the entry, so [cancel] can keep [size] exact
     without a lookup. *)
  owner : 'a t;
}

(* Unordered-by-time, push-ordered growable bucket; [arr] is valid on
   [0, len). Spent slots keep their storage for reuse. *)
and 'a bucket = { mutable arr : 'a entry array; mutable len : int }

and 'a t = {
  (* Floor on every stored entry's time; advanced by consuming an entry
     to its timestamp and by cascades to the cascaded page's base. *)
  mutable cur : int;
  buckets : 'a bucket array array; (* levels x slots *)
  occ : int array; (* stored entries per level *)
  mutable overflow : 'a entry list; (* newest first *)
  mutable n_overflow : int;
  (* Entries of one timestamp [ready_time], in push order, served from
     [ready_pos]. Filled by draining the next non-empty level-0 slot
     (an array swap, not a copy). *)
  mutable ready : 'a bucket;
  mutable ready_pos : int;
  mutable ready_time : int;
  (* Entries legally pushed at a time in [last-popped, cur): [cur] may
     run ahead of the engine clock after a cascade, and [Engine.run
     ~until] stops the clock between events. Sorted by (time, push order);
     always served before the wheel ([cur] floors the wheel). Rarely
     populated, so a list is fine. *)
  mutable early : 'a entry list;
  (* Entries stored, cancelled ones included; [cancelled] of them are
     dead and wait to be discarded at the head. *)
  mutable stored : int;
  mutable cancelled : int;
  (* Filler for consumed array slots: recycled bucket storage must not
     pin popped entries (and whatever their payloads reference) for the
     GC. Set to the first entry that ever grows a bucket. *)
  mutable dummy : 'a entry option;
}

let new_bucket () = { arr = [||]; len = 0 }

let create () =
  {
    cur = 0;
    buckets = Array.init levels (fun _ -> Array.init slots (fun _ -> new_bucket ()));
    occ = Array.make levels 0;
    overflow = [];
    n_overflow = 0;
    ready = new_bucket ();
    ready_pos = 0;
    ready_time = 0;
    early = [];
    stored = 0;
    cancelled = 0;
    dummy = None;
  }

let size t = t.stored - t.cancelled

let is_empty t = Int.equal (size t) 0

let bucket_push t b entry =
  let cap = Array.length b.arr in
  if Int.equal b.len cap then begin
    (match t.dummy with None -> t.dummy <- Some entry | Some _ -> ());
    let grown = Array.make (if cap = 0 then 8 else 2 * cap) entry in
    Array.blit b.arr 0 grown 0 b.len;
    b.arr <- grown
  end;
  b.arr.(b.len) <- entry;
  b.len <- b.len + 1

(* Overwrite a consumed range with the dummy so the storage stops
   pinning dead entries. *)
let clear_range t arr lo len =
  if len > 0 then
    match t.dummy with
    | Some d -> Array.fill arr lo len d
    | None -> () (* no bucket ever grew, so [arr] is empty anyway *)

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

let insert_wheel t entry =
  let l = level_of t entry.time in
  if Int.equal l levels then begin
    t.overflow <- entry :: t.overflow;
    t.n_overflow <- t.n_overflow + 1
  end
  else begin
    let idx = (entry.time lsr (bits * l)) land mask in
    bucket_push t t.buckets.(l).(idx) entry;
    t.occ.(l) <- t.occ.(l) + 1
  end

(* Put a premature ready buffer back into the wheel so an earlier push
   can take its place. The walk is in push order, so the target level-0
   slot (empty: it was drained, and same-time pushes went to [ready])
   stays in push order. *)
let unwind_ready t =
  let b = t.ready in
  for i = t.ready_pos to b.len - 1 do
    insert_wheel t b.arr.(i)
  done;
  clear_range t b.arr 0 b.len;
  b.len <- 0;
  t.ready_pos <- 0

let ready_count t = t.ready.len - t.ready_pos

let add t ~time ~kind payload =
  let entry = { time; kind; payload; live = true; owner = t } in
  t.stored <- t.stored + 1;
  if time < t.cur then begin
    (* Legal only between the last pop and [cur] (see [early]). The new
       entry is the latest inserted, so it goes after every entry of
       its timestamp. *)
    let rec ins = function
      | [] -> [ entry ]
      | e :: rest as l -> if time < e.time then entry :: l else e :: ins rest
    in
    t.early <- ins t.early
  end
  else if ready_count t = 0 then insert_wheel t entry
  else if Int.equal time t.ready_time then
    (* The newest entry of its timestamp: appending keeps [ready] in order. *)
    bucket_push t t.ready entry
  else if time < t.ready_time then begin
    unwind_ready t;
    insert_wheel t entry
  end
  else insert_wheel t entry;
  entry

let push t ~time payload = ignore (add t ~time ~kind:0 payload : _ entry)

let cancel e =
  if e.live then begin
    e.live <- false;
    e.owner.cancelled <- e.owner.cancelled + 1
  end

(* First non-empty slot of level [l] at digit >= cur's digit, or -1. *)
let scan_level t l =
  let row = t.buckets.(l) in
  let idx = ref ((t.cur lsr (bits * l)) land mask) in
  while !idx < slots && Int.equal row.(!idx).len 0 do
    incr idx
  done;
  if !idx < slots then !idx else -1

(* Stage the level-0 slot as the ready buffer by swapping arrays: the
   slot takes the spent ready storage, the ready buffer takes the
   slot's entries — already in push order (see the ordering invariant
   above), all of one timestamp. *)
let drain_l0_slot t idx =
  let b = t.buckets.(0).(idx) in
  if b.len > 0 then begin
    t.occ.(0) <- t.occ.(0) - b.len;
    let spent = t.ready in
    (* spent.len = 0: ready is only refilled once fully consumed. *)
    t.ready <- b;
    t.buckets.(0).(idx) <- spent;
    t.ready_pos <- 0;
    t.ready_time <- b.arr.(0).time
  end

(* Cascade the level-l bucket at [idx] down: advance [cur] to the
   bucket's page base (safe: every stored entry is at or past it) and
   re-insert in array order, which lands each entry at a strictly
   lower level and preserves push order per target bucket. *)
let cascade t l idx =
  let page = bits * (l + 1) in
  let base = ((t.cur lsr page) lsl page) lor (idx lsl (bits * l)) in
  let b = t.buckets.(l).(idx) in
  t.occ.(l) <- t.occ.(l) - b.len;
  t.cur <- base;
  let n = b.len in
  b.len <- 0;
  for i = 0 to n - 1 do
    insert_wheel t b.arr.(i)
  done;
  clear_range t b.arr 0 n

(* Fold the overflow calendar back in once the wheel proper is empty:
   jump [cur] to the earliest far-future entry and re-insert everything
   that now fits under the horizon. The list holds newest first, so the
   reversed walk keeps per-bucket push order. *)
let refill_from_overflow t =
  match t.overflow with
  | [] -> ()
  | first :: rest ->
      t.cur <- List.fold_left (fun m e -> Int.min m e.time) first.time rest;
      let all = List.rev t.overflow in
      t.overflow <- [];
      t.n_overflow <- 0;
      List.iter (insert_wheel t) all

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

(* Remove the next entry in (time, push) order, live or not. Requires
   one to exist: [early] non-empty or [ready] staged. *)
let consume t =
  t.stored <- t.stored - 1;
  match t.early with
  | e :: rest ->
      t.early <- rest;
      e
  | [] ->
      let b = t.ready in
      let e = b.arr.(t.ready_pos) in
      t.ready_pos <- t.ready_pos + 1;
      if Int.equal t.ready_pos b.len then begin
        clear_range t b.arr 0 b.len;
        b.len <- 0;
        t.ready_pos <- 0
      end;
      t.cur <- e.time;
      e

(* Stage the head and discard cancelled entries sitting there; true iff
   a live head remains. Time-bound checks must never see a timestamp
   nothing will fire at, or skipping a dead head inside a step could
   carry execution past the bound. *)
let rec settle t =
  match t.early with
  | e :: _ -> e.live || discard t
  | [] ->
      if Int.equal (ready_count t) 0 then refill t;
      ready_count t > 0 && (t.ready.arr.(t.ready_pos).live || discard t)

(* Drop the cancelled entry at the head, then settle again. *)
and discard t =
  ignore (consume t : _ entry);
  t.cancelled <- t.cancelled - 1;
  settle t

(* The staged head; valid right after [settle] returned true. *)
let head t = match t.early with e :: _ -> e | [] -> t.ready.arr.(t.ready_pos)

let head_time t = if settle t then (head t).time else max_int

let take_head t =
  let e = consume t in
  e.live <- false;
  e

let take t =
  if not (settle t) then invalid_arg "Timing_wheel.take: empty";
  take_head t

let pop t =
  if settle t then begin
    let e = take_head t in
    Some (e.time, e.payload)
  end
  else None

let peek t =
  if settle t then begin
    let e = head t in
    Some (e.time, e.payload)
  end
  else None

let peek_time t = if settle t then Some (head t).time else None
