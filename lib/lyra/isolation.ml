type t = {
  id : int;
  quorum : int;
  last_rx : int array;  (** per peer; [min_int] at [id], never read *)
  scratch : int array;
  mutable heard_until : int;  (** the check passes while [now] ≤ this *)
}

let create ~n ~id ~quorum =
  let last_rx = Array.make n 0 in
  last_rx.(id) <- min_int;
  { id; quorum; last_rx; scratch = Array.make n 0; heard_until = min_int }

(* This node always counts, so the check passes iff quorum − 1 peers
   were heard at or after now − gap, i.e. iff now ≤ T + gap for T the
   (quorum − 1)-th most recent peer receive. Receive times only grow,
   so T does too, and a T computed earlier stays a valid bound. *)
let receive t ~src ~now =
  if not (Int.equal src t.id) then t.last_rx.(src) <- now;
  if now > t.heard_until then
    t.heard_until <-
      (if t.quorum <= 1 then max_int
       else
         Order_stat.kth_largest ~scratch:t.scratch t.last_rx (t.quorum - 2)
         + Config.isolation_gap_us);
  now <= t.heard_until
