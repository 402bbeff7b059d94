(* Hierarchical timing wheel with a calendar-style overflow list, a
   drop-in replacement for the binary event heap inside [Engine] (now
   bench/event_heap.ml).

   Entries are bucketed by the first 8-bit digit of their timestamp
   that differs from [cur] (the prefix scheme): level 0 buckets are
   exact timestamps within the current 256 µs page, level 1 buckets
   span 256 µs, and so on up to level 3 (~71 min). Times beyond the
   level-3 horizon go to the [overflow] list and are folded back in
   when the wheel drains — the calendar-queue fallback for far-future
   timers. Push and pop are O(1) amortized (each entry cascades at
   most [levels - 1] times), against the heap's O(log n).

   Every entry lives in one pool of fixed-size blocks: a flat int
   array of (time, payload) pairs, [block] entries per block, grown
   lazily by doubling, whose unused blocks form a LIFO free stack.
   Each bucket, the ready buffer, the [early] list and the overflow
   list is a chain of blocks, filled in order from its head entry to
   its tail entry, so [add] writes at a tail, a cascade reads its
   source a block at a time and frees each block once read, and
   draining a level-0 slot moves a head. A list's entries sit side by
   side within a block, so walking a list costs a cache miss per block,
   not per entry. Storage is the fixed heads, tails and bitmap plus
   [block_words + 1] words per pool block; a list wastes at most the
   unused part of its first and last blocks, so the pool follows the
   pending population. Int arrays pin nothing for the GC, so freed
   blocks need no clearing.

   Each level keeps an occupancy bitmap, one bit per slot in eight
   32-bit words, so finding the next non-empty slot reads at most
   eight words and takes the lowest set bit by a de Bruijn multiply:
   real runs are sparse, with a few thousand entries spread over
   hundreds of milliseconds, so most slots are empty.

   Every insertion path appends in push order (a cascade walks its
   source bucket in list order; a page's lower-level buckets are empty
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

(* Entries per pool block, and the words they take (a block's link to
   the next block of its list lives in [links]). *)
let log_block = 4

let block = 1 lsl log_block

let block_mask = block - 1

let block_words = 2 * block

(* A list is an index into [meta]: slot [idx] of level [l] is list
   [l * slots + idx], then come the ready buffer, the [early] list and
   the overflow list. List [b]'s head is [meta.(b)], the index of its
   first entry (-1 when empty), and its tail [meta.(lists + b)], the
   index of its last; a tail is only read while its list is non-empty.
   Entry [e] is in block [e lsr log_block].

   The occupancy bitmap follows the tails: wheel bucket [b]'s bit is
   bit [b land 31] of word [occ + b lsr 5], so level [l]'s eight words
   are [occ + 8l .. occ + 8l + 7]. One array keeps [create] at a
   single major-heap allocation besides the record; the pool starts
   empty. *)
let ready = levels * slots

let early = ready + 1

let overflow = early + 1

let lists = overflow + 1

let occ = 2 * lists

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
  (* Floor on every wheel entry's time; advanced by taking an entry to
     its timestamp and by cascades to the cascaded page's base. *)
  mutable cur : int;
  meta : int array; (* list heads, list tails, then the occupancy bitmap *)
  mutable pool : int array; (* entry [e]: time at [2e], payload at [2e + 1] *)
  (* Per block: the next block of its list or of the free stack, -1 at
     the end. *)
  mutable links : int array;
  mutable free : int; (* top of the free stack, -1 when empty *)
  mutable size : int;
  mutable last_time : int;
}

(* The [early] list holds entries legally pushed at a time in
   [last-taken, cur): [cur] may run ahead of the engine clock after a
   cascade, and [Engine.run ~until] stops the clock between events.
   It is sorted by (time, push order) and always served before the
   wheel ([cur] floors the wheel). Rarely populated, so an insert that
   rebuilds it is fine. *)

let create () =
  let meta = Array.make (occ + (levels * words)) 0 in
  Array.fill meta 0 lists (-1);
  { cur = 0; meta; pool = [||]; links = [||]; free = -1; size = 0; last_time = 0 }

let size t = t.size

let is_empty t = Int.equal t.size 0

let last_time t = t.last_time

let storage_words t =
  Array.length t.meta + Array.length t.pool + Array.length t.links

(* Double the pool. The stack was empty, so every old block is in use;
   the new ones are pushed so the lowest is taken first. *)
let grow t =
  let cap = Array.length t.links in
  let cap' = Int.max 1 (2 * cap) in
  let pool = Array.make (block_words * cap') 0 in
  Array.blit t.pool 0 pool 0 (block_words * cap);
  let links = Array.make cap' (-1) in
  Array.blit t.links 0 links 0 cap;
  t.pool <- pool;
  t.links <- links;
  for c = cap' - 1 downto cap do
    links.(c) <- t.free;
    t.free <- c
  done

(* A fresh block's first entry. *)
let alloc t =
  if t.free < 0 then grow t;
  let c = t.free in
  t.free <- t.links.(c);
  t.links.(c) <- -1;
  c lsl log_block

let release t c =
  t.links.(c) <- t.free;
  t.free <- c

(* Append an entry to list [b]. *)
let append t b time p =
  let m = t.meta in
  let e =
    if m.(b) < 0 then begin
      let e = alloc t in
      m.(b) <- e;
      e
    end
    else
      let last = m.(lists + b) in
      if Int.equal (last land block_mask) block_mask then begin
        let e = alloc t in
        t.links.(last lsr log_block) <- e lsr log_block;
        e
      end
      else last + 1
  in
  m.(lists + b) <- e;
  t.pool.(2 * e) <- time;
  t.pool.((2 * e) + 1) <- p

(* The entry after [e] in a list whose tail is [tl], or -1. *)
let succ t e tl =
  if Int.equal e tl then -1
  else if Int.equal (e land block_mask) block_mask then
    t.links.(e lsr log_block) lsl log_block
  else e + 1

(* [succ], for a list being consumed: [e]'s block is released once [e]
   is the last entry of it that the list holds. *)
let step t e tl =
  let n = succ t e tl in
  if Int.equal e tl || Int.equal (e land block_mask) block_mask then
    release t (e lsr log_block);
  n

let set_occ t b =
  let w = occ + (b lsr 5) in
  t.meta.(w) <- t.meta.(w) lor (1 lsl (b land 31))

let clear_occ t b =
  let w = occ + (b lsr 5) in
  t.meta.(w) <- t.meta.(w) land lnot (1 lsl (b land 31))

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
  if Int.equal l levels then append t overflow time p
  else begin
    let b = (l * slots) + ((time lsr (bits * l)) land mask) in
    if t.meta.(b) < 0 then set_occ t b;
    append t b time p
  end

(* Re-insert a detached list, entries [first] to [tl], in list order,
   releasing each block once read. *)
let reinsert t first tl =
  let e = ref first in
  while !e >= 0 do
    let i = 2 * !e in
    insert_wheel t t.pool.(i) t.pool.(i + 1);
    e := step t !e tl
  done

(* Put a premature ready buffer back into the wheel so an earlier push
   can take its place. The walk is in push order, so the target level-0
   slot (empty: it was drained, and same-time pushes went to [ready])
   stays in push order. *)
let unwind_ready t =
  let first = t.meta.(ready) in
  t.meta.(ready) <- -1;
  reinsert t first t.meta.(lists + ready)

(* Insert an entry into the [early] list after every entry of its
   timestamp or earlier: it is the latest pushed. Past the list's last
   timestamp it is appended; otherwise the list is rebuilt in order. *)
let insert_early t time p =
  let m = t.meta in
  let first = m.(early) and tl = m.(lists + early) in
  if first < 0 || t.pool.(2 * tl) <= time then append t early time p
  else begin
    m.(early) <- -1;
    let e = ref first and placed = ref false in
    while !e >= 0 do
      let i = 2 * !e in
      let et = t.pool.(i) in
      if (not !placed) && et > time then begin
        append t early time p;
        placed := true
      end;
      append t early et t.pool.(i + 1);
      e := step t !e tl
    done
  end

let add t ~time p =
  if p < 0 then invalid_arg "Timing_wheel.add: negative payload";
  t.size <- t.size + 1;
  let r = t.meta.(ready) in
  (* Legal only between the last take and [cur] (see [early]). *)
  if time < t.cur then insert_early t time p
  else if r < 0 then insert_wheel t time p
  else
    let ready_time = t.pool.(2 * r) in
    if Int.equal time ready_time then
      (* The newest entry of its timestamp: appending keeps [ready] in order. *)
      append t ready time p
    else begin
      if time < ready_time then unwind_ready t;
      insert_wheel t time p
    end

(* First occupied slot of level [l] at digit >= cur's digit, or -1:
   the current word masked below that digit, then whole words up to
   the level's last. *)
let scan_level t l =
  let d = (t.cur lsr (bits * l)) land mask in
  let first = occ + (l * words) in
  let w = ref (d lsr 5) in
  let x = ref (t.meta.(first + !w) land (-1 lsl (d land 31))) in
  while Int.equal !x 0 && !w < words - 1 do
    incr w;
    x := t.meta.(first + !w)
  done;
  if Int.equal !x 0 then -1 else (!w lsl 5) lor lowest_bit !x

(* Stage the level-0 slot as the ready buffer by moving its list: its
   entries are already in push order (see the ordering invariant
   above), all of one timestamp. The ready buffer is empty here: it is
   only refilled once fully consumed. *)
let drain_l0_slot t idx =
  let m = t.meta in
  m.(ready) <- m.(idx);
  m.(lists + ready) <- m.(lists + idx);
  m.(idx) <- -1;
  clear_occ t idx

(* Cascade the level-l bucket at [idx] down: advance [cur] to the
   bucket's page base (safe: every stored entry is at or past it) and
   re-insert its entries in list order, which lands each at a strictly
   lower level and preserves push order per target bucket. *)
let cascade t l idx =
  let page = bits * (l + 1) in
  let b = (l * slots) + idx in
  let first = t.meta.(b) in
  t.cur <- ((t.cur lsr page) lsl page) lor (idx lsl (bits * l));
  t.meta.(b) <- -1;
  clear_occ t b;
  reinsert t first t.meta.(lists + b)

(* Fold the overflow calendar back in once the wheel proper is empty:
   jump [cur] to the earliest far-future entry and re-insert everything,
   in push order; what now fits under the horizon lands in the wheel,
   the rest goes back to [overflow]. *)
let refill_from_overflow t =
  let first = t.meta.(overflow) and tl = t.meta.(lists + overflow) in
  let m = ref max_int and e = ref first in
  while !e >= 0 do
    m := Int.min !m t.pool.(2 * !e);
    e := succ t !e tl
  done;
  t.cur <- !m;
  t.meta.(overflow) <- -1;
  reinsert t first tl

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
  else if t.meta.(overflow) >= 0 then begin
    refill_from_overflow t;
    refill t
  end

(* Take the head entry [e] of list [b] and return its payload. *)
let take t b e time =
  let p = t.pool.((2 * e) + 1) in
  t.meta.(b) <- step t e t.meta.(lists + b);
  t.size <- t.size - 1;
  t.last_time <- time;
  p

let pop_until t ~until =
  let e = t.meta.(early) in
  if e >= 0 then begin
    let time = t.pool.(2 * e) in
    if time > until then -1 else take t early e time
  end
  else begin
    if t.meta.(ready) < 0 && t.size > 0 then refill t;
    let e = t.meta.(ready) in
    if e < 0 then -1
    else
      let time = t.pool.(2 * e) in
      if time > until then -1
      else begin
        t.cur <- time;
        take t ready e time
      end
  end
