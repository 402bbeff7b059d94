(* A Lyra adapter that runs the cryptography for real: Schnorr-signed
   proposals, threshold-signed VVB votes and Hashed-VSS payload
   obfuscation (the scheme the paper's prototype uses). The registry's
   adapters all run with [real_crypto = false], so this is the only way
   a benchmark run spends host time in [Crypto].

   Built from public APIs only. Keys come from [Crypto.Keys.setup] on the
   adapter's own RNG, seeded from [key_seed], so key generation draws
   nothing from the engine's random streams and the node-level schedule
   matches the cost-model adapter's as closely as the protocol allows.
   Everything else (placement, latency model, clock offsets) mirrors
   Protocol.Lyra_adapter. *)

let make ~key_seed ?(tweak = fun c -> c) () : (module Protocol.NODE) =
  (module struct
    let name = "lyra"

    let default_warmup_us = 1_500_000

    type net = {
      net : Lyra.Types.msg Sim.Network.t;
      cfg : Lyra.Config.t;
      faults : Sim.Faults.plan;
      keys : Crypto.Keys.keypair array;
      dir : Crypto.Keys.directory;
    }

    type t = Lyra.Node.t

    let make_net engine ~n ~jitter ?ns_per_byte ?(faults = Sim.Faults.none)
        ?adversary ?perturb ?trace ?dissemination () =
      let cfg =
        {
          (tweak (Lyra.Config.default ~n)) with
          Lyra.Config.real_crypto = true;
          vss_scheme = Crypto.Vss.Hashed;
        }
      in
      let latency = Sim.Latency.regional ~jitter (Sim.Regions.paper_placement n) in
      let costs = Sim.Costs.default in
      let net =
        Sim.Network.create engine ~n ~latency ?ns_per_byte ~faults ?adversary
          ?perturb ?trace ?dissemination
          ~cost:(fun ~dst:_ m -> Lyra.Types.msg_cost costs m)
          ~size:Lyra.Types.msg_size ()
      in
      let keys, dir = Crypto.Keys.setup (Crypto.Rng.create key_seed) n in
      { net; cfg; faults; keys; dir }

    let tx_size nt = nt.cfg.Lyra.Config.tx_size

    let net_messages nt = Sim.Network.messages_sent nt.net

    let net_bytes nt = Sim.Network.bytes_sent nt.net

    let net_dropped nt = Sim.Network.messages_dropped nt.net

    let net_dup nt = Sim.Network.messages_duplicated nt.net

    let net_cpu nt id = Sim.Network.cpu nt.net id

    let net_nic nt id = Sim.Network.nic nt.net id

    let convert (o : Lyra.Node.output) =
      {
        Protocol.key = Protocol.key_of_iid o.batch.Lyra.Types.iid;
        txs = o.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      let rng = Sim.Engine.rng (Sim.Network.engine nt.net) in
      let clock_offset_us =
        Sim.Faults.skew_us nt.faults id
        + Crypto.Rng.int rng (1 + nt.cfg.Lyra.Config.clock_offset_max_us)
      in
      Lyra.Node.create nt.cfg nt.net ~id ~keys:nt.keys.(id) ~dir:nt.dir
        ~clock_offset_us ?on_observe
        ~on_output:(fun o -> on_output (convert o))
        ()

    let start = Lyra.Node.start

    let submit t ~payload = Lyra.Node.submit t ~payload

    let honest _ = true

    let output_log t = List.map convert (Lyra.Node.output_log t)

    let seq_bounds t =
      let cfg = Lyra.Node.config t in
      let slack = cfg.Lyra.Config.clock_offset_max_us in
      List.map
        (fun (o : Lyra.Node.output) ->
          let created = o.batch.Lyra.Types.created_at in
          ( o.seq,
            created - cfg.Lyra.Config.lambda_us - slack,
            created + Lyra.Config.l_us cfg + slack ))
        (Lyra.Node.output_log t)

    let stats t =
      {
        Protocol.accepted = Lyra.Node.own_accepted t;
        rejected = Lyra.Node.own_rejected t;
        decide_rounds = Metrics.Recorder.to_array (Lyra.Node.decide_rounds t);
        mempool = Lyra.Node.mempool_size t;
        committed_seq = Lyra.Node.committed_seq t;
        late_accepts = Lyra.Node.late_accepts t;
        phases =
          List.map
            (fun (label, r) -> (label, Metrics.Recorder.to_array r))
            (Metrics.Phases.pairs (Lyra.Node.phases t));
      }
  end)
