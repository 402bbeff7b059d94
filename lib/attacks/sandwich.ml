type outcome = {
  trials : int;
  launched : int;
  attacker_profit_x : float;
  victim_out_mean : float;
  victim_out_baseline : float;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "trials=%d launched=%d attacker-profit=%.0fX victim-out=%.0fY \
     (baseline %.0fY)"
    o.trials o.launched o.attacker_profit_x o.victim_out_mean
    o.victim_out_baseline

let regions = Frontrun.regions

let n = Array.length regions

let reserve_x = 10_000_000

let reserve_y = 10_000_000

let victim_amount = 500_000

let front_amount = 250_000

let victim_payload =
  App.Amm.encode { trader = "victim"; dir = App.Amm.X_to_y; amount_in = victim_amount }

let is_victim_tx (tx : Lyra.Types.tx) = String.equal tx.payload victim_payload

let batch_has_victim batch =
  match Lyra.Types.observable_txs batch with
  | None -> false
  | Some txs -> Array.exists is_victim_tx txs

(* One executing replica: applies every committed payload to the pool. *)
let make_pool () = App.Amm.create ~reserve_x ~reserve_y

(* The attacker plans the sandwich on a shadow copy of the committed
   pool state: buy before the victim, sell the estimated proceeds right
   after. *)
let plan_sandwich shadow =
  let front =
    { App.Amm.trader = "mallory"; dir = App.Amm.X_to_y; amount_in = front_amount }
  in
  let est_out = App.Amm.quote shadow App.Amm.X_to_y front_amount in
  let back =
    { App.Amm.trader = "mallory"; dir = App.Amm.Y_to_x; amount_in = est_out }
  in
  (App.Amm.encode front, App.Amm.encode back)

let victim_output pool =
  let _, py = App.Amm.position pool "victim" in
  float_of_int py

let attacker_profit pool =
  let px, py = App.Amm.position pool "mallory" in
  (* Residual Y valued at the final pool price. *)
  float_of_int px
  +. (float_of_int py *. (float_of_int (App.Amm.reserve_x pool)
                          /. float_of_int (App.Amm.reserve_y pool)))

let protocols = Protocol.Registry.names

let run_trial ~protocol ~attack_enabled seed =
  (* The timestamp withholding only engages when the attack is on, so
     the baseline run measures the undisturbed protocol. *)
  let (module P : Protocol.NODE) =
    Frontrun.cluster
      ~withhold:(fun b -> attack_enabled && batch_has_victim b)
      protocol
  in
  let engine = Sim.Engine.create ~seed () in
  let net = P.make_net engine ~n ~jitter:0.01 () in
  let pool = make_pool () in
  let shadow = make_pool () in
  let launched = ref false in
  let mallory = ref None in
  let attack batch =
    if attack_enabled && batch_has_victim batch && not !launched then begin
      launched := true;
      let front, back = plan_sandwich shadow in
      match !mallory with
      | Some node ->
          ignore (P.submit node ~payload:front : string);
          (* The back-run goes out a moment later so its (lower-bounded)
             sequence number lands behind the victim's. *)
          Sim.Engine.schedule engine ~delay:120_000 (fun () ->
              ignore (P.submit node ~payload:back : string))
      | None -> ()
    end
  in
  let on_output id (c : Protocol.committed) =
    if id = 2 then
      Array.iter
        (fun (tx : Lyra.Types.tx) ->
          ignore (App.Amm.apply_payload pool tx.payload : int option))
        c.txs
    else if id = 1 then
      Array.iter
        (fun (tx : Lyra.Types.tx) ->
          ignore (App.Amm.apply_payload shadow tx.payload : int option))
        c.txs
  in
  let nodes =
    Array.init n (fun id ->
        if id = 1 then
          P.create net ~id ~on_observe:attack ~on_output:(on_output 1) ()
        else P.create net ~id ~on_output:(on_output id) ())
  in
  mallory := Some nodes.(1);
  Array.iter P.start nodes;
  Sim.Engine.schedule engine
    ~delay:(max 1_000_000 P.default_warmup_us)
    (fun () -> ignore (P.submit nodes.(0) ~payload:victim_payload : string));
  Sim.Engine.run engine ~until:15_000_000;
  (!launched, attacker_profit pool, victim_output pool)

let aggregate ~trials run seed0 =
  (* Baseline (no attack) uses the first seed. *)
  let _, _, baseline = run ~attack_enabled:false seed0 in
  let launched = ref 0
  and profit = ref 0.0
  and vic = ref 0.0 in
  for k = 0 to trials - 1 do
    let l, p, v = run ~attack_enabled:true (Int64.add seed0 (Int64.of_int (17 * k))) in
    if l then incr launched;
    profit := !profit +. p;
    vic := !vic +. v
  done;
  let ft = float_of_int (max 1 trials) in
  {
    trials;
    launched = !launched;
    attacker_profit_x = !profit /. ft;
    victim_out_mean = !vic /. ft;
    victim_out_baseline = baseline;
  }

let run ?(seed = 500L) ~trials ~protocol () =
  aggregate ~trials
    (fun ~attack_enabled s -> run_trial ~protocol ~attack_enabled s)
    seed
