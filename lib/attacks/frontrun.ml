type outcome = {
  trials : int;
  observed : int;
  launched : int;
  succeeded : int;
  victim_first_gap_ms : float;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "trials=%d observed=%d launched=%d succeeded=%d mean-gap=%.1fms" o.trials
    o.observed o.launched o.succeeded o.victim_first_gap_ms

(* Topology of Fig. 1: Alice in Tokyo (node 0), Mallory in Singapore
   (node 1), the quorum majority in Sydney (nodes 2–4). *)
let regions =
  [|
    Sim.Regions.Tokyo;
    Sim.Regions.Singapore;
    Sim.Regions.Sydney;
    Sim.Regions.Sydney;
    Sim.Regions.Sydney;
  |]

let n = Array.length regions

let victim_payload = "swap victim x2y 50000"

let attack_payload = "swap mallory x2y 50000"

let is_victim_tx (tx : Lyra.Types.tx) =
  String.length tx.payload >= 11 && String.sub tx.payload 0 11 = "swap victim"

let batch_has_victim batch =
  match Lyra.Types.observable_txs batch with
  | None -> false
  | Some txs -> Array.exists is_victim_tx txs

(* Order of execution of the two payloads in a node's output stream:
   negative result means the attacker executed first. *)
let exec_positions outputs =
  let vic = ref None and att = ref None in
  List.iteri
    (fun i txs ->
      Array.iter
        (fun (tx : Lyra.Types.tx) ->
          if is_victim_tx tx && !vic = None then vic := Some i;
          if tx.payload = attack_payload && !att = None then att := Some i)
        txs)
    outputs;
  (!vic, !att)

(* The attacker's node configuration per protocol: same batching knobs
   everywhere; Pompē additionally lets Mallory withhold her timestamp
   for the batches [withhold] picks, so the victim's 2f+1 quorum is
   dominated by the distant Sydney clocks. *)
let cluster ~withhold = function
  | "pompe" ->
      Protocol.Pompe_adapter.make
        ~tweak:(fun c ->
          { c with Pompe.Config.batch_timeout_us = 10_000; batch_size = 8 })
        ~respond_ts:(fun id ->
          if id = 1 then
            Some
              (fun batch ~honest ->
                if withhold batch then None else Some honest)
          else None)
        ~regions ~clock_offsets:false ()
  | "lyra" ->
      Protocol.Lyra_adapter.make
        ~tweak:(fun c ->
          { c with Lyra.Config.batch_timeout_us = 10_000; batch_size = 8 })
        ~regions ~clock_offsets:false ()
  | "hotstuff" ->
      Protocol.Hotstuff_adapter.make
        ~tweak:(fun c ->
          { c with Hotstuff.Smr.batch_timeout_us = 10_000; batch_size = 8 })
        ~regions ()
  | "dag" ->
      Protocol.Dagorder_adapter.make
        ~tweak:(fun c ->
          { c with Dagorder.Node.round_interval_us = 20_000; batch_size = 8 })
        ~regions ~clock_offsets:false ()
  | other -> invalid_arg ("Frontrun: unknown protocol " ^ other)

let protocols = Protocol.Registry.names

let run_trial (module P : Protocol.NODE) seed =
  let engine = Sim.Engine.create ~seed () in
  let net = P.make_net engine ~n ~jitter:0.01 () in
  let observed = ref false and launched = ref false in
  let mallory = ref None in
  let attack batch =
    if batch_has_victim batch && not !observed then begin
      observed := true;
      (* (iii) race a dependent transaction from Singapore. *)
      match !mallory with
      | Some node ->
          launched := true;
          ignore (P.submit node ~payload:attack_payload : string)
      | None -> ()
    end
  in
  let nodes =
    Array.init n (fun id ->
        if id = 1 then
          P.create net ~id ~on_observe:attack ~on_output:(fun _ -> ()) ()
        else P.create net ~id ~on_output:(fun _ -> ()) ())
  in
  mallory := Some nodes.(1);
  Array.iter P.start nodes;
  Sim.Engine.schedule engine
    ~delay:(max 1_000_000 P.default_warmup_us)
    (fun () -> ignore (P.submit nodes.(0) ~payload:victim_payload : string));
  Sim.Engine.run engine ~until:15_000_000;
  let log = P.output_log nodes.(2) in
  let outputs = List.map (fun (c : Protocol.committed) -> c.txs) log in
  let seqs = List.map (fun (c : Protocol.committed) -> (c.txs, c.seq)) log in
  let seq_of pred =
    List.find_map
      (fun (txs, seq) -> if Array.exists pred txs then Some seq else None)
      seqs
  in
  let vic, att = exec_positions outputs in
  let gap =
    match (seq_of is_victim_tx, seq_of (fun tx -> tx.payload = attack_payload))
    with
    | Some v, Some a -> float_of_int (v - a) /. 1000.
    | _ -> 0.0
  in
  let success =
    match (vic, att) with Some v, Some a -> a < v | _ -> false
  in
  (!observed, !launched, success, gap)

let aggregate ~trials run seed0 =
  let observed = ref 0
  and launched = ref 0
  and succeeded = ref 0
  and gaps = ref 0.0 in
  for k = 0 to trials - 1 do
    let o, l, s, g = run (Int64.add seed0 (Int64.of_int (31 * k))) in
    if o then incr observed;
    if l then incr launched;
    if s then incr succeeded;
    gaps := !gaps +. g
  done;
  {
    trials;
    observed = !observed;
    launched = !launched;
    succeeded = !succeeded;
    victim_first_gap_ms = (if trials = 0 then 0.0 else !gaps /. float_of_int trials);
  }

let run ?(seed = 100L) ~trials ~protocol () =
  aggregate ~trials
    (run_trial (cluster ~withhold:batch_has_victim protocol))
    seed
