type measurement = { mean_ms : float; worst_ms : float; reordered : int }

(* One row per (protocol, coalition setting): leader-based protocols
   sweep censoring-coalition sizes 0 / f / n−1; Lyra sweeps 0 / f
   Byzantine (vote-withholding) nodes — it has no leader to censor. *)
type outcome = {
  n : int;
  byzantine : int;
  rows : (string * string * measurement) list;
}

let victim_count = 24

let victim_spacing_us = 350_000

let victim_payload k = Printf.sprintf "put victim-key %d" k

let is_victim (tx : Lyra.Types.tx) =
  String.length tx.payload >= 14 && String.sub tx.payload 0 14 = "put victim-key"

let summarize (rec_, reordered) =
  if Metrics.Recorder.is_empty rec_ then
    { mean_ms = Float.nan; worst_ms = Float.nan; reordered }
  else
    {
      mean_ms = Metrics.Recorder.mean rec_;
      worst_ms = snd (Metrics.Stats.min_max (Metrics.Recorder.to_array rec_));
      reordered;
    }

(* Execution-order inversions: victim transactions that ran after a
   transaction carrying a higher sequence number — the "effectively
   reordered" outcome of §I. *)
let count_inversions outputs =
  let inversions = ref 0 in
  let max_seq_before = ref min_int in
  List.iter
    (fun (txs, seq) ->
      if Array.exists is_victim txs && seq < !max_seq_before then
        incr inversions;
      max_seq_before := max !max_seq_before seq)
    outputs;
  !inversions

let victim_origin = 0

let censor_predicate censors id iid =
  List.mem id censors && iid.Lyra.Types.proposer = victim_origin

(* Per-protocol cluster configuration. The tighter Pompē stable window
   makes inclusion delay visible as actual reordering rather than being
   absorbed by the execution margin. *)
let adapter ~censors ~byz = function
  | "pompe" ->
      Protocol.Pompe_adapter.make
        ~tweak:(fun c ->
          {
            c with
            Pompe.Config.batch_timeout_us = 10_000;
            batch_size = 8;
            exec_window_us = 150_000;
          })
        ~censor:(censor_predicate censors) ~clock_offsets:false ()
  | "lyra" ->
      Protocol.Lyra_adapter.make
        ~tweak:(fun c ->
          { c with Lyra.Config.batch_timeout_us = 10_000; batch_size = 8 })
        ~byz:(fun id ->
          if List.mem id byz then
            Some (Lyra.Misbehavior.Stale_votes { delay_us = 2_000_000 })
          else None)
        ~clock_offsets:false ()
  | "hotstuff" ->
      Protocol.Hotstuff_adapter.make
        ~tweak:(fun c ->
          { c with Hotstuff.Smr.batch_timeout_us = 10_000; batch_size = 8 })
        ~censor:(censor_predicate censors) ()
  | "dag" ->
      (* Censoring replicas withhold their receive reports for the
         victim's batches; with n−f of n censoring, the report quorum
         the linearizer waits for never forms. *)
      Protocol.Dagorder_adapter.make
        ~tweak:(fun c ->
          { c with Dagorder.Node.round_interval_us = 20_000; batch_size = 8 })
        ~censor:(censor_predicate censors) ~clock_offsets:false ()
  | other -> invalid_arg ("Censorship: unknown protocol " ^ other)

let latency_run (module P : Protocol.NODE) ~n seed =
  let engine = Sim.Engine.create ~seed () in
  let net = P.make_net engine ~n ~jitter:0.01 () in
  let lat = Metrics.Recorder.create () in
  let on_output (c : Protocol.committed) =
    Array.iter
      (fun (tx : Lyra.Types.tx) ->
        if is_victim tx then
          Metrics.Recorder.record lat
            (float_of_int (c.output_at - tx.submitted_at) /. 1000.))
      c.txs
  in
  let nodes =
    Array.init n (fun id ->
        P.create net ~id
          ~on_output:(if id = victim_origin then on_output else fun _ -> ())
          ())
  in
  Array.iter P.start nodes;
  let first_victim_at = max 1_000_000 P.default_warmup_us in
  for k = 0 to victim_count - 1 do
    Sim.Engine.schedule engine
      ~delay:(first_victim_at + (k * victim_spacing_us))
      (fun () ->
        ignore
          (P.submit nodes.(victim_origin) ~payload:(victim_payload k)
            : string);
        (* Background traffic from the other (honest, participating)
           nodes, so displacement is observable. *)
        for j = 1 to n - 1 do
          if P.honest nodes.(j) then
            ignore
              (P.submit nodes.(j)
                 ~payload:(Printf.sprintf "put bg%d-%d 0" j k)
                : string)
        done)
  done;
  Sim.Engine.run engine ~until:30_000_000;
  let outputs =
    List.map
      (fun (c : Protocol.committed) -> (c.txs, c.seq))
      (P.output_log nodes.(victim_origin))
  in
  (lat, count_inversions outputs)

let coalition_rows ~n ~f protocol seed =
  let some k = List.init k (fun i -> i + 1) in
  let leader_based sizes =
    List.map
      (fun (label, k) ->
        ( protocol,
          label,
          summarize
            (latency_run (adapter ~censors:(some k) ~byz:[] protocol) ~n seed)
        ))
      sizes
  in
  match protocol with
  | "lyra" ->
      List.map
        (fun (label, k) ->
          ( protocol,
            label,
            summarize
              (latency_run (adapter ~censors:[] ~byz:(some k) protocol) ~n seed)
          ))
        [ ("0-byz", 0); (Printf.sprintf "%d-byz" f, f) ]
  | _ ->
      leader_based
        [
          ("0-censors", 0);
          (Printf.sprintf "%d-censors" f, f);
          (Printf.sprintf "%d-censors" (n - 1), n - 1);
        ]

let protocols = Protocol.Registry.names

let run ?(seed = 900L) ~n () =
  let f = Dbft.Quorums.max_faulty n in
  {
    n;
    byzantine = f;
    rows = List.concat_map (fun p -> coalition_rows ~n ~f p seed) protocols;
  }
