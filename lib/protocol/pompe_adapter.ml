let make ?(tweak = fun c -> c) ?(censor = fun _ _ -> false)
    ?(respond_ts = fun _ -> None) ?regions ?(clock_offsets = true) () :
    (module Node_intf.NODE) =
  (module struct
    let name = "pompe"

    let default_warmup_us = 500_000

    type net = {
      net : Pompe.Types.body Sim.Network.t;
      cfg : Pompe.Config.t;
      faults : Sim.Faults.plan;
      keys : Node_intf.key_table;
    }

    type t = { node : Pompe.Node.t; keys : Node_intf.key_table }

    let make_net engine ~n ~jitter ?ns_per_byte ?(faults = Sim.Faults.none)
        ?adversary ?perturb ?trace ?dissemination () =
      let cfg = tweak (Pompe.Config.default ~n) in
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
          ~cost:(fun ~dst:_ b -> Pompe.Types.msg_cost costs b)
          ~size:Pompe.Types.msg_size ()
      in
      { net; cfg; faults; keys = Node_intf.key_table () }

    let tx_size nt = nt.cfg.Pompe.Config.tx_size

    let net_messages nt = Sim.Network.messages_sent nt.net

    let net_bytes nt = Sim.Network.bytes_sent nt.net

    let net_dropped nt = Sim.Network.messages_dropped nt.net

    let net_dup nt = Sim.Network.messages_duplicated nt.net

    let net_cpu nt id = Sim.Network.cpu nt.net id

    let net_nic nt id = Sim.Network.nic nt.net id

    let convert keys (o : Pompe.Node.output) =
      {
        Node_intf.key = Node_intf.cached_key keys o.batch.Lyra.Types.iid;
        txs = o.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      (* Planned clock skew stacks on the sampled offset, shifting the
         node's Order_req timestamps. *)
      let skew = Sim.Faults.skew_us nt.faults id in
      let clock_offset_us =
        if clock_offsets then
          let rng = Sim.Engine.rng (Sim.Network.engine nt.net) in
          Some
            (skew + Crypto.Rng.int rng (1 + nt.cfg.Pompe.Config.clock_offset_max_us))
        else if not (Int.equal skew 0) then Some skew
        else None
      in
      let node =
        Pompe.Node.create nt.cfg nt.net ~id ?clock_offset_us ?on_observe
          ~on_output:(fun o -> on_output (convert nt.keys o))
          ~censor:(censor id) ?respond_ts:(respond_ts id) ()
      in
      { node; keys = nt.keys }

    let start t = Pompe.Node.start t.node

    let submit t ~payload = Pompe.Node.submit t.node ~payload

    let honest _ = true

    let output_log t = List.map (convert t.keys) (Pompe.Node.output_log t.node)

    (* Pompē's seqs are median timestamps with no per-batch validity
       window comparable to BOC's; the oracle has nothing to bound. *)
    let seq_bounds _ = []

    let stats t =
      {
        Node_intf.accepted = Pompe.Node.sequenced_count t.node;
        rejected = 0;
        decide_rounds = [||];
        mempool = Pompe.Node.mempool_size t.node;
        committed_seq = Pompe.Node.committed_height t.node;
        late_accepts = 0;
        phases =
          List.map
            (fun (label, r) -> (label, Metrics.Recorder.to_array r))
            (Metrics.Phases.pairs (Pompe.Node.phases t.node));
      }
  end)
