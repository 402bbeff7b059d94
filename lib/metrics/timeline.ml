type t = {
  bucket_us : int;
  mutable data : float array;
  mutable hi : int;  (** highest bucket index touched; -1 when empty *)
}

let create ?(bucket_us = 100_000) () =
  if bucket_us <= 0 then invalid_arg "Timeline.create: bucket_us must be > 0";
  { bucket_us; data = Array.make 64 0.0; hi = -1 }

let ensure t idx =
  if idx >= Array.length t.data then begin
    let cap = max (2 * Array.length t.data) (idx + 1) in
    let data = Array.make cap 0.0 in
    Array.blit t.data 0 data 0 (Array.length t.data);
    t.data <- data
  end;
  if idx > t.hi then t.hi <- idx

let add t ~at_us v =
  if at_us < 0 then invalid_arg "Timeline.add: negative time";
  let idx = at_us / t.bucket_us in
  ensure t idx;
  t.data.(idx) <- t.data.(idx) +. v

(* Spread [v] over [from_us, until_us) proportionally to each bucket's
   overlap with the interval, so a job spanning a bucket boundary
   charges each side its actual share. *)
let add_range t ~from_us ~until_us v =
  if from_us < 0 || until_us < from_us then
    invalid_arg "Timeline.add_range: bad interval";
  if until_us = from_us then add t ~at_us:from_us v
  else begin
    let span = float_of_int (until_us - from_us) in
    let first = from_us / t.bucket_us
    and last = (until_us - 1) / t.bucket_us in
    ensure t last;
    for idx = first to last do
      let b_lo = idx * t.bucket_us and b_hi = (idx + 1) * t.bucket_us in
      let overlap = min until_us b_hi - max from_us b_lo in
      t.data.(idx) <- t.data.(idx) +. (v *. float_of_int overlap /. span)
    done
  end

let peak t =
  if t.hi < 0 then None
  else begin
    let best = ref 0 in
    for idx = 1 to t.hi do
      if t.data.(idx) > t.data.(!best) then best := idx
    done;
    Some (!best, t.data.(!best))
  end
