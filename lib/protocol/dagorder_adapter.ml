let make ?(tweak = fun c -> c) ?(censor = fun _ _ -> false) ?regions
    ?(clock_offsets = true) () : (module Node_intf.NODE) =
  (module struct
    let name = "dag"

    (* Leaderless: only the round pipeline needs to fill. *)
    let default_warmup_us = 500_000

    type net = {
      net : Dagorder.Node.msg Sim.Network.t;
      cfg : Dagorder.Node.config;
      faults : Sim.Faults.plan;
      keys : Node_intf.key_table;
    }

    type t = { node : Dagorder.Node.t; keys : Node_intf.key_table }

    let make_net engine ~n ~jitter ?ns_per_byte ?(faults = Sim.Faults.none)
        ?adversary ?perturb ?trace ?dissemination () =
      let cfg = tweak (Dagorder.Node.default_config ~n) in
      let regions =
        match regions with
        | Some r -> r
        | None -> Sim.Regions.paper_placement n
      in
      let latency = Sim.Latency.regional ~jitter regions in
      let costs = Sim.Costs.default in
      let net =
        Sim.Network.create engine ~n ~latency ?ns_per_byte ~faults ?adversary
          ?perturb ?trace ?dissemination
          ~cost:(fun ~dst:_ m -> Dagorder.Node.msg_cost costs m)
          ~size:Dagorder.Node.msg_size ()
      in
      { net; cfg; faults; keys = Node_intf.key_table () }

    let tx_size nt = nt.cfg.Dagorder.Node.tx_size

    let net_messages nt = Sim.Network.messages_sent nt.net

    let net_bytes nt = Sim.Network.bytes_sent nt.net

    let net_dropped nt = Sim.Network.messages_dropped nt.net

    let net_dup nt = Sim.Network.messages_duplicated nt.net

    let net_cpu nt id = Sim.Network.cpu nt.net id

    let net_nic nt id = Sim.Network.nic nt.net id

    let convert keys (o : Dagorder.Node.output) =
      {
        Node_intf.key =
          Node_intf.cached_key keys
            o.delivery.Dagorder.Dag.batch.Lyra.Types.iid;
        txs = o.delivery.Dagorder.Dag.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      (* Plan skew stacks on the sampled offset; both act only on the
         receive-report clock the linearizer takes medians over. *)
      let skew = Sim.Faults.skew_us nt.faults id in
      let clock_offset_us =
        if clock_offsets then
          let rng = Sim.Engine.rng (Sim.Network.engine nt.net) in
          skew
          + Crypto.Rng.int rng (1 + nt.cfg.Dagorder.Node.clock_offset_max_us)
        else skew
      in
      let node =
        Dagorder.Node.create nt.cfg nt.net ~id ~clock_offset_us ?on_observe
          ~on_output:(fun o -> on_output (convert nt.keys o))
          ~censor:(censor id) ()
      in
      { node; keys = nt.keys }

    let start t = Dagorder.Node.start t.node

    let submit t ~payload = Dagorder.Node.submit t.node ~payload

    let honest _ = true

    let output_log t = List.map (convert t.keys) (Dagorder.Node.output_log t.node)

    (* Wave numbers carry no validity window. *)
    let seq_bounds _ = []

    let stats t =
      {
        Node_intf.accepted = Dagorder.Node.own_emitted t.node;
        rejected = 0;
        decide_rounds =
          Metrics.Recorder.to_array (Dagorder.Node.decide_rounds t.node);
        mempool = Dagorder.Node.mempool_size t.node;
        committed_seq = Dagorder.Node.committed_seq t.node;
        late_accepts = 0;
        phases =
          List.map
            (fun (label, r) -> (label, Metrics.Recorder.to_array r))
            (Metrics.Phases.pairs (Dagorder.Node.phases t.node));
      }
  end)
