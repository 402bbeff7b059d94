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
   engine's encoded event), stored side by side in its bucket's one
   int array (time at [2i], payload at [2i + 1]): there is no entry
   record, so [add] allocates nothing once a bucket has grown, and a
   drain or cascade reads one array. Bucket storage is recycled: a
   cascade empties a bucket by resetting its length, and draining a
   level-0 slot swaps the slot's array with the spent ready buffer's.
   Int arrays pin nothing for the GC, so consumed ranges need no
   clearing.

   Each level keeps an occupancy bitmap, one bit per slot in eight
   32-bit words, so finding the next non-empty slot reads at most
   eight words and takes the lowest set bit by a de Bruijn multiply:
   real runs are sparse, with a few thousand entries spread over
   hundreds of milliseconds, so most slots are empty.

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

(* A bucket is an index into the flat [lens]/[buckets] arrays: slot
   [idx] of level [l] is bucket [l * slots + idx], and bucket [ready] is
   the ready buffer. Entries are push-ordered (not time-ordered) and
   valid on [0, lens.(b)); spent buckets keep their storage for reuse.

   The occupancy bitmap lives in [lens] after the ready buffer's
   length: bucket [b]'s bit is bit [b land 31] of word
   [occ + b lsr 5], so level [l]'s eight words are [occ + 8l ..
   occ + 8l + 7]. Keeping it there makes [create] allocate two
   major-heap arrays (both exceed the minor heap's object limit) and
   nothing else but the record. *)
let ready = levels * slots

let occ = ready + 1

let words = slots / 32 (* bitmap words per level *)

(* Lowest set bit of a non-zero word below 2^32: isolate it, multiply by
   a de Bruijn sequence, and look up the product's top five bits (of
   32). The product stays below 2^58, so no native-int overflow. *)
let de_bruijn = 0x077CB531

let lsb_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * de_bruijn) lsr 27) land 31) <- i
  done;
  tbl

let lowest_bit x = lsb_table.((((x land -x) * de_bruijn) lsr 27) land 31)

type t = {
  (* Floor on every stored entry's time; advanced by taking an entry
     to its timestamp and by cascades to the cascaded page's base. *)
  mutable cur : int;
  lens : int array; (* bucket lengths, then the occupancy bitmap *)
  buckets : int array array; (* interleaved (time, payload) pairs *)
  mutable overflow : (int * int) list; (* (time, payload), newest first *)
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
    lens = Array.make (occ + (levels * words)) 0;
    buckets = Array.make (ready + 1) [||];
    overflow = [];
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
  let a = t.buckets.(b) in
  let a =
    if Int.equal (2 * len) (Array.length a) then begin
      let grown = Array.make (if len = 0 then 16 else 4 * len) 0 in
      Array.blit a 0 grown 0 (2 * len);
      t.buckets.(b) <- grown;
      grown
    end
    else a
  in
  a.(2 * len) <- time;
  a.((2 * len) + 1) <- p;
  t.lens.(b) <- len + 1

let set_occ t b =
  let w = occ + (b lsr 5) in
  t.lens.(w) <- t.lens.(w) lor (1 lsl (b land 31))

let clear_occ t b =
  let w = occ + (b lsr 5) in
  t.lens.(w) <- t.lens.(w) land lnot (1 lsl (b land 31))

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
  if Int.equal l levels then t.overflow <- (time, p) :: t.overflow
  else begin
    let b = (l * slots) + ((time lsr (bits * l)) land mask) in
    if Int.equal t.lens.(b) 0 then set_occ t b;
    bucket_push t b time p
  end

(* Put a premature ready buffer back into the wheel so an earlier push
   can take its place. The walk is in push order, so the target level-0
   slot (empty: it was drained, and same-time pushes went to [ready])
   stays in push order. *)
let unwind_ready t =
  let a = t.buckets.(ready) in
  for i = t.ready_pos to t.lens.(ready) - 1 do
    insert_wheel t a.(2 * i) a.((2 * i) + 1)
  done;
  t.lens.(ready) <- 0;
  t.ready_pos <- 0

let add t ~time p =
  if p < 0 then invalid_arg "Timing_wheel.add: negative payload";
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
  (* [lens.(ready)] is 0 exactly when the ready buffer is empty: it is
     reset as soon as its last entry is taken. *)
  else if Int.equal t.lens.(ready) 0 then insert_wheel t time p
  else if Int.equal time t.ready_time then
    (* The newest entry of its timestamp: appending keeps [ready] in order. *)
    bucket_push t ready time p
  else if time < t.ready_time then begin
    unwind_ready t;
    insert_wheel t time p
  end
  else insert_wheel t time p

(* First occupied slot of level [l] at digit >= cur's digit, or -1:
   the current word masked below that digit, then whole words up to
   the level's last. *)
let scan_level t l =
  let d = (t.cur lsr (bits * l)) land mask in
  let first = occ + (l * words) in
  let w = ref (d lsr 5) in
  let x = ref (t.lens.(first + !w) land (-1 lsl (d land 31))) in
  while Int.equal !x 0 && !w < words - 1 do
    incr w;
    x := t.lens.(first + !w)
  done;
  if Int.equal !x 0 then -1 else (!w lsl 5) lor lowest_bit !x

(* Stage the level-0 slot as the ready buffer by swapping storage:
   the slot takes the spent ready array, the ready buffer takes the
   slot's entries — already in push order (see the ordering invariant
   above), all of one timestamp. *)
let drain_l0_slot t idx =
  (* lens.(ready) = 0: ready is only refilled once fully consumed. *)
  let a = t.buckets.(idx) in
  t.buckets.(idx) <- t.buckets.(ready);
  t.buckets.(ready) <- a;
  t.lens.(ready) <- t.lens.(idx);
  t.lens.(idx) <- 0;
  clear_occ t idx;
  t.ready_pos <- 0;
  t.ready_time <- a.(0)

(* Cascade the level-l bucket at [idx] down: advance [cur] to the
   bucket's page base (safe: every stored entry is at or past it) and
   re-insert in array order, which lands each entry at a strictly
   lower level and preserves push order per target bucket. *)
let cascade t l idx =
  let page = bits * (l + 1) in
  let base = ((t.cur lsr page) lsl page) lor (idx lsl (bits * l)) in
  let b = (l * slots) + idx in
  let n = t.lens.(b) in
  t.cur <- base;
  t.lens.(b) <- 0;
  clear_occ t b;
  let a = t.buckets.(b) in
  for i = 0 to n - 1 do
    insert_wheel t a.(2 * i) a.((2 * i) + 1)
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
      List.iter (fun (time, p) -> insert_wheel t time p) all

(* With the ready buffer empty, fill it with the earliest wheel
   timestamp, if the wheel side holds any entry. Cascades mutate
   placement, never order. *)
let rec refill t =
  let l = ref 0 and idx = ref (-1) in
  while !idx < 0 && !l < levels do
    idx := scan_level t !l;
    if !idx < 0 then incr l
  done;
  if !idx >= 0 then
    if Int.equal !l 0 then drain_l0_slot t !idx
    else begin
      cascade t !l !idx;
      refill t
    end
  else
    match t.overflow with
    | [] -> ()
    | _ :: _ ->
        refill_from_overflow t;
        refill t

let pop_until t ~until =
  match t.early with
  | (time, p) :: rest ->
      if time > until then -1
      else begin
        t.early <- rest;
        t.size <- t.size - 1;
        t.last_time <- time;
        p
      end
  | [] ->
      if Int.equal t.lens.(ready) 0 && t.size > 0 then refill t;
      if Int.equal t.lens.(ready) 0 || t.ready_time > until then -1
      else begin
        let i = t.ready_pos in
        let p = t.buckets.(ready).((2 * i) + 1) in
        if Int.equal (i + 1) t.lens.(ready) then begin
          t.lens.(ready) <- 0;
          t.ready_pos <- 0
        end
        else t.ready_pos <- i + 1;
        t.size <- t.size - 1;
        t.cur <- t.ready_time;
        t.last_time <- t.ready_time;
        p
      end
