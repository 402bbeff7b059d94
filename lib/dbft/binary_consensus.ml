type msg =
  | Est of { round : int; value : int }
  | Coord of { round : int; value : int }
  | Aux of { round : int; values : int list }

let msg_size = function
  | Est _ -> 24
  | Coord _ -> 24
  | Aux { values; _ } -> 24 + (8 * List.length values)

type t = {
  net : msg Sim.Network.t;
  id : int;
  on_decide : round:int -> int -> unit;
  bv1 : Bv_broadcast.t;  (** round 1's BV; later rounds are in [rounds] *)
  rounds : Rounds.t;
}

let broadcast t m = Sim.Network.broadcast t.net ~src:t.id m

module R = Rounds.Make (struct
  type h = t

  let rounds t = t.rounds

  let bin1 t b = Bv_broadcast.delivered t.bv1 b

  let send_est t ~round value = broadcast t (Est { round; value })

  let send_coord t ~round value = broadcast t (Coord { round; value })

  let send_aux t ~round values = broadcast t (Aux { round; values })

  let schedule t ~delay_us fn =
    Sim.Engine.schedule (Sim.Network.engine t.net) ~delay:delay_us fn

  let decide t ~round v = t.on_decide ~round v
end)

let on_message t ~src = function
  | Est { round = 1; value } ->
      if value = 0 || value = 1 then begin
        Bv_broadcast.on_est t.bv1 ~src value;
        R.on_round1 t
      end
  | Est { round; value } -> R.on_est t ~src ~round value
  | Coord { round; value } -> R.on_coord t ~src ~round value
  | Aux { round; values } -> R.on_aux t ~src ~round values

let create net ~id ~delta_us ~on_decide () =
  let n = Sim.Network.n net in
  let bv1 =
    Bv_broadcast.create ~n ~echo:(fun value ->
        Sim.Network.broadcast net ~src:id (Est { round = 1; value }))
  in
  let t = { net; id; on_decide; bv1; rounds = Rounds.create ~self:id ~n ~delta_us } in
  Sim.Network.register net ~id (fun ~src msg -> on_message t ~src msg);
  t

let propose t b =
  if b <> 0 && b <> 1 then invalid_arg "Binary_consensus.propose: 0 or 1";
  if Rounds.started t.rounds then
    invalid_arg "Binary_consensus.propose: already proposed";
  Bv_broadcast.input t.bv1 b;
  R.start t
