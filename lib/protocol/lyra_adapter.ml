let make ?(tweak = fun c -> c) ?(byz = fun _ -> None) ?regions
    ?(clock_offsets = true) () : (module Node_intf.NODE) =
  (module struct
    let name = "lyra"

    (* Distance measurement (§IV-B1) must finish before measuring. *)
    let default_warmup_us = 1_500_000

    type net = {
      net : Lyra.Types.msg Sim.Network.t;
      cfg : Lyra.Config.t;
      faults : Sim.Faults.plan;
      keys : Node_intf.key_table;
    }

    type t = { node : Lyra.Node.t; honest : bool; keys : Node_intf.key_table }

    let make_net engine ~n ~jitter ?ns_per_byte ?(faults = Sim.Faults.none)
        ?adversary ?perturb ?trace ?dissemination () =
      let cfg = tweak (Lyra.Config.default ~n) in
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
          ~cost:(fun ~dst:_ m -> Lyra.Types.msg_cost costs m)
          ~size:Lyra.Types.msg_size ()
      in
      { net; cfg; faults; keys = Node_intf.key_table () }

    let tx_size nt = nt.cfg.Lyra.Config.tx_size

    let net_messages nt = Sim.Network.messages_sent nt.net

    let net_bytes nt = Sim.Network.bytes_sent nt.net

    let net_dropped nt = Sim.Network.messages_dropped nt.net

    let net_dup nt = Sim.Network.messages_duplicated nt.net

    let net_cpu nt id = Sim.Network.cpu nt.net id

    let net_nic nt id = Sim.Network.nic nt.net id

    let convert keys (o : Lyra.Node.output) =
      {
        Node_intf.key = Node_intf.cached_key keys o.batch.Lyra.Types.iid;
        txs = o.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      let misbehavior = byz id in
      (* Planned clock skew stacks on the sampled offset: the predictor's
         distance measurements (§IV-B1) see the skewed clock. *)
      let skew = Sim.Faults.skew_us nt.faults id in
      let clock_offset_us =
        if clock_offsets then
          let rng = Sim.Engine.rng (Sim.Network.engine nt.net) in
          Some
            (skew + Crypto.Rng.int rng (1 + nt.cfg.Lyra.Config.clock_offset_max_us))
        else if not (Int.equal skew 0) then Some skew
        else None
      in
      let node =
        Lyra.Node.create nt.cfg nt.net ~id ?clock_offset_us ?misbehavior
          ?on_observe
          ~on_output:(fun o -> on_output (convert nt.keys o))
          ()
      in
      { node; honest = Option.is_none misbehavior; keys = nt.keys }

    let start t = Lyra.Node.start t.node

    let submit t ~payload = Lyra.Node.submit t.node ~payload

    let honest t = t.honest

    let output_log t = List.map (convert t.keys) (Lyra.Node.output_log t.node)

    (* BOC-Validity (Def. 6): each decided seq is within λ of the
       batch's creation time on the low side and within the acceptance
       window L on the high side; unsynchronized clocks add at most the
       configured offset spread on each end. *)
    let seq_bounds t =
      let cfg = Lyra.Node.config t.node in
      let slack = cfg.Lyra.Config.clock_offset_max_us in
      List.map
        (fun (o : Lyra.Node.output) ->
          let created = o.batch.Lyra.Types.created_at in
          ( o.seq,
            created - cfg.Lyra.Config.lambda_us - slack,
            created + Lyra.Config.l_us cfg + slack ))
        (Lyra.Node.output_log t.node)

    let stats t =
      {
        Node_intf.accepted = Lyra.Node.own_accepted t.node;
        rejected = Lyra.Node.own_rejected t.node;
        decide_rounds =
          Metrics.Recorder.to_array (Lyra.Node.decide_rounds t.node);
        mempool = Lyra.Node.mempool_size t.node;
        committed_seq = Lyra.Node.committed_seq t.node;
        late_accepts = Lyra.Node.late_accepts t.node;
        phases =
          List.map
            (fun (label, r) -> (label, Metrics.Recorder.to_array r))
            (Metrics.Phases.pairs (Lyra.Node.phases t.node));
      }
  end)
