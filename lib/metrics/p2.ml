(* The P² (piecewise-parabolic) single-quantile estimator of Jain &
   Chlamtac (CACM 1985): five markers track the running minimum, the
   target quantile, the quantile's half-way neighbours and the running
   maximum. Each observation moves the markers at most one position,
   adjusting heights by a parabolic (falling back to linear)
   interpolation — O(1) memory and time per sample, no sample
   retention. The first five observations are stored verbatim so small
   streams stay exact. *)

type t = {
  p : float;
  q : float array;  (* marker heights *)
  n : int array;  (* marker positions (1-based observation ranks) *)
  np : float array;  (* desired marker positions *)
  dn : float array;  (* per-observation desired-position increments *)
  init : float array;  (* the first five observations, pre-init *)
  mutable count : int;
}

let create ~p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "P2.create: p must be in (0, 1)";
  {
    p;
    q = Array.make 5 0.0;
    n = [| 1; 2; 3; 4; 5 |];
    np =
      [|
        1.0;
        1.0 +. (2.0 *. p);
        1.0 +. (4.0 *. p);
        3.0 +. (2.0 *. p);
        5.0;
      |];
    dn = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
    init = Array.make 5 0.0;
    count = 0;
  }

(* Height the middle marker would take one position to the side; the
   piecewise-parabolic prediction (formula (1) of the paper). *)
let parabolic t i s =
  let q = t.q and n = t.n in
  let ni = float_of_int n.(i)
  and nm = float_of_int n.(i - 1)
  and np_ = float_of_int n.(i + 1)
  and d = float_of_int s in
  q.(i)
  +. d /. (np_ -. nm)
     *. (((ni -. nm +. d) *. (q.(i + 1) -. q.(i)) /. (np_ -. ni))
        +. ((np_ -. ni -. d) *. (q.(i) -. q.(i - 1)) /. (ni -. nm)))

let linear t i s =
  let q = t.q and n = t.n in
  q.(i) +. (float_of_int s *. (q.(i + s) -. q.(i)) /. float_of_int (n.(i + s) - n.(i)))

let add t x =
  if t.count < 5 then begin
    t.init.(t.count) <- x;
    t.count <- t.count + 1;
    if t.count = 5 then begin
      Array.sort Float.compare t.init;
      Array.blit t.init 0 t.q 0 5
    end
  end
  else begin
    t.count <- t.count + 1;
    (* Cell the observation falls into; extremes also update the
       outermost marker heights. *)
    let k =
      if x < t.q.(0) then begin
        t.q.(0) <- x;
        0
      end
      else if x >= t.q.(4) then begin
        t.q.(4) <- x;
        3
      end
      else begin
        let k = ref 0 in
        for i = 1 to 3 do
          if x >= t.q.(i) then k := i
        done;
        !k
      end
    in
    for i = k + 1 to 4 do
      t.n.(i) <- t.n.(i) + 1
    done;
    for i = 0 to 4 do
      t.np.(i) <- t.np.(i) +. t.dn.(i)
    done;
    (* Move interior markers toward their desired positions, one step
       at a time, keeping heights monotone. *)
    for i = 1 to 3 do
      let d = t.np.(i) -. float_of_int t.n.(i) in
      if
        (d >= 1.0 && t.n.(i + 1) - t.n.(i) > 1)
        || (d <= -1.0 && t.n.(i - 1) - t.n.(i) < -1)
      then begin
        let s = if d >= 0.0 then 1 else -1 in
        let candidate = parabolic t i s in
        if t.q.(i - 1) < candidate && candidate < t.q.(i + 1) then
          t.q.(i) <- candidate
        else t.q.(i) <- linear t i s;
        t.n.(i) <- t.n.(i) + s
      end
    done
  end

let value t =
  if t.count = 0 then 0.0
  else if t.count < 5 then begin
    let xs = Array.sub t.init 0 t.count in
    Array.sort Float.compare xs;
    Stats.percentile_sorted (t.p *. 100.0) xs
  end
  else t.q.(2)
