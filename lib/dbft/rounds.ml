let max_rounds = 64

type round_state = {
  bv : Bv_broadcast.t option;  (** None in round 1: the host's values *)
  aux_from : Senders.t;  (** senders whose first AUX is counted *)
  aux_sets : int array;  (** senders per AUX set mask ({!Quorums.aux_set}) *)
  mutable coord_value : int option;
  mutable coord_sent : bool;
  mutable timer_started : bool;
  mutable timer_fired : bool;
  mutable aux_sent : bool;
  mutable activity : bool;  (** messages buffered for this round *)
}

type t = {
  self : int;
  n : int;
  delta_us : int;
  mutable table : round_state option array;  (** indexed by round *)
  mutable current : int;
  mutable est : int;
  mutable started : bool;
  mutable decided : int option;
  mutable decision_round : int option;
  mutable halted : bool;
}

let create ~self ~n ~delta_us =
  {
    self;
    n;
    delta_us;
    table = Array.make 4 None;
    current = 1;
    est = 0;
    started = false;
    decided = None;
    decision_round = None;
    halted = false;
  }

let started t = t.started

let round t = t.current

let decided t = t.decided

let decision_round t = t.decision_round

let halted t = t.halted

(* What [try_advance] leaves behind when a decided process defers
   round [round] because no peer has started it yet (§7.2). *)
let deferred ~self ~n ~delta_us ~value ~decision_round ~round =
  {
    (create ~self ~n ~delta_us) with
    current = round;
    est = value;
    started = true;
    decided = Some value;
    decision_round = Some decision_round;
  }

let force_decide t v =
  if t.decided = None then begin
    t.decided <- Some v;
    t.decision_round <- Some t.current;
    t.halted <- true
  end

let find t r = if r < Array.length t.table then t.table.(r) else None

let idle t =
  if t.decided = None then None
  else if t.halted then Some 0
  else if find t t.current = None then Some t.current
  else None

let is_binary b = b = 0 || b = 1

let valid_round r = r >= 1 && r <= max_rounds

let coordinator t r = r mod t.n

module type HOST = sig
  type h
  val rounds : h -> t
  val bin1 : h -> int -> bool
  val send_est : h -> round:int -> int -> unit
  val send_coord : h -> round:int -> int -> unit
  val send_aux : h -> round:int -> int list -> unit
  val schedule : h -> delay_us:int -> (unit -> unit) -> unit
  val decide : h -> round:int -> int -> unit
end

module Make (H : HOST) = struct
  let round_state h t r =
    match find t r with
    | Some rs -> rs
    | None ->
        let bv =
          if r = 1 then None
          else
            Some (Bv_broadcast.create ~n:t.n ~echo:(fun b -> H.send_est h ~round:r b))
        in
        let rs =
          {
            bv;
            aux_from = Senders.create t.n;
            aux_sets = Array.make 4 0;
            coord_value = None;
            coord_sent = false;
            timer_started = false;
            timer_fired = false;
            aux_sent = false;
            activity = false;
          }
        in
        let old = t.table in
        if r >= Array.length old then
          t.table <-
            Array.init (2 * r) (fun i -> if i < Array.length old then old.(i) else None);
        t.table.(r) <- Some rs;
        rs

  let bin_has h rs b =
    match rs.bv with
    | None -> H.bin1 h b
    | Some bv -> Bv_broadcast.delivered bv b

  (* [List.filter (bin_has h rs) [ 0; 1 ]], answered with constant lists. *)
  let bin_values h rs =
    match (bin_has h rs 0, bin_has h rs 1) with
    | true, true -> [ 0; 1 ]
    | true, false -> [ 0 ]
    | false, true -> [ 1 ]
    | false, false -> []

  (* The AUX set prefers the coordinator's value (lines 40–42). *)
  let aux_values h rs =
    match rs.coord_value with
    | Some c when bin_has h rs c -> [ c ]
    | Some _ | None -> bin_values h rs

  let rec arm_timer h t r rs =
    if not rs.timer_started then begin
      rs.timer_started <- true;
      (* Round 1 takes the fast path: AUX goes out as soon as a value
         is delivered, which yields the optimal 3-message-delay good
         case (Lemma 3). The Δ wait only helps later rounds, where it
         gives the weak coordinator's value time to arrive when
         estimates diverge. Safety never depends on the timer. *)
      if r = 1 then rs.timer_fired <- true
      else
        H.schedule h ~delay_us:t.delta_us (fun () ->
            rs.timer_fired <- true;
            try_advance h r)
    end

  and try_advance h r =
    let t = H.rounds h in
    if (not t.halted) && Int.equal r t.current && t.started then begin
      let rs = round_state h t r in
      (* Weak coordinator: broadcast the first delivered value. *)
      (if Int.equal t.self (coordinator t r) && not rs.coord_sent then
         match bin_values h rs with
         | w :: _ ->
             rs.coord_sent <- true;
             H.send_coord h ~round:r w
         | [] -> ());
      if (not rs.aux_sent) && rs.timer_fired && bin_values h rs <> [] then begin
        rs.aux_sent <- true;
        H.send_aux h ~round:r (aux_values h rs)
      end;
      (* Decision: a quorum of AUX sets all inside bin_values (43–49),
         counted per value set. *)
      let bin =
        (if bin_has h rs 0 then 1 else 0) lor if bin_has h rs 1 then 2 else 0
      in
      match Quorums.aux_quorum rs.aux_sets ~need:(Quorums.quorum t.n) ~bin with
      | -1 -> ()
      | union ->
          (match union with
          | 1 | 2 ->
              let v = union lsr 1 in
              t.est <- v;
              if Int.equal v (r mod 2) && t.decided = None then begin
                t.decided <- Some v;
                t.decision_round <- Some r;
                H.decide h ~round:r v
              end
          | _ -> t.est <- r mod 2);
          let help_over =
            match t.decision_round with Some dr -> r >= dr + 2 | None -> false
          in
          if help_over || r >= max_rounds then t.halted <- true
          else if t.decided = None then start_round h t (r + 1)
          else begin
            (* Helping is reactive: a decided process keeps its estimate
               and joins round r+1 only when an undecided process
               initiates it (see [touch]). In the good case nobody does,
               which removes the two help rounds' 2·O(n²) message
               overhead without giving up termination: the undecided
               process's round-(r+1) EST wakes the decided quorum up.
               Messages for r+1 may already be buffered (they can race
               the decision) — join immediately in that case. *)
            t.current <- r + 1;
            match find t (r + 1) with
            | Some next when next.activity -> start_round h t (r + 1)
            | Some _ | None -> ()
          end
    end

  and start_round h t r =
    t.current <- r;
    let rs = round_state h t r in
    Option.iter (fun bv -> Bv_broadcast.input bv t.est) rs.bv;
    arm_timer h t r rs;
    try_advance h r

  let start h =
    let t = H.rounds h in
    if not t.started then begin
      t.started <- true;
      arm_timer h t 1 (round_state h t 1);
      try_advance h 1
    end

  let on_round1 h = try_advance h 1

  (* A message for round [r] arrived: mark the activity; a decided
     process that deferred round [r] joins it now. *)
  let touch h t r =
    let rs = round_state h t r in
    rs.activity <- true;
    if
      (not t.halted) && t.decided <> None && Int.equal r t.current
      && not rs.timer_started
    then start_round h t r;
    rs

  let on_est h ~src ~round value =
    if round >= 2 && round <= max_rounds && is_binary value then
      match (touch h (H.rounds h) round).bv with
      | Some bv ->
          Bv_broadcast.on_est bv ~src value;
          try_advance h round
      | None -> ()

  let on_coord h ~src ~round value =
    let t = H.rounds h in
    if valid_round round && Int.equal src (coordinator t round) && is_binary value
    then begin
      let rs = touch h t round in
      if rs.coord_value = None then rs.coord_value <- Some value;
      try_advance h round
    end

  let on_aux h ~src ~round values =
    if valid_round round && List.for_all is_binary values then begin
      let rs = touch h (H.rounds h) round in
      if Senders.add rs.aux_from src then begin
        let m = Quorums.aux_set values in
        rs.aux_sets.(m) <- rs.aux_sets.(m) + 1;
        try_advance h round
      end
    end

  let resend h =
    let t = H.rounds h in
    let r = t.current in
    if r >= 2 then H.send_est h ~round:r t.est;
    let rs = round_state h t r in
    (if rs.coord_sent then
       match bin_values h rs with
       | w :: _ -> H.send_coord h ~round:r w
       | [] -> ());
    if rs.aux_sent then
      match aux_values h rs with [] -> () | e -> H.send_aux h ~round:r e
end
