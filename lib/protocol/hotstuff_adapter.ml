let make ?(tweak = fun c -> c) ?(censor = fun _ _ -> false) ?regions () :
    (module Node_intf.NODE) =
  (module struct
    let name = "hotstuff"

    let default_warmup_us = 500_000

    type net = {
      net : Hotstuff.Smr.msg Sim.Network.t;
      cfg : Hotstuff.Smr.config;
      keys : Node_intf.key_table;
    }

    type t = { node : Hotstuff.Smr.t; keys : Node_intf.key_table }

    (* HotStuff has no local-clock component, so plan skews have nothing
       to act on here; the transport still executes the rest of the
       plan. *)
    let make_net engine ~n ~jitter ?ns_per_byte ?(faults = Sim.Faults.none)
        ?adversary ?perturb ?trace ?dissemination () =
      let cfg = tweak (Hotstuff.Smr.default_config ~n) in
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
          ~cost:(fun ~dst:_ m -> Hotstuff.Smr.msg_cost costs m)
          ~size:Hotstuff.Smr.msg_size ()
      in
      { net; cfg; keys = Node_intf.key_table () }

    let tx_size nt = nt.cfg.Hotstuff.Smr.tx_size

    let net_messages nt = Sim.Network.messages_sent nt.net

    let net_bytes nt = Sim.Network.bytes_sent nt.net

    let net_dropped nt = Sim.Network.messages_dropped nt.net

    let net_dup nt = Sim.Network.messages_duplicated nt.net

    let net_cpu nt id = Sim.Network.cpu nt.net id

    let net_nic nt id = Sim.Network.nic nt.net id

    let convert keys (o : Hotstuff.Smr.output) =
      {
        Node_intf.key = Node_intf.cached_key keys o.batch.Lyra.Types.iid;
        txs = o.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      let node =
        Hotstuff.Smr.create nt.cfg nt.net ~id ?on_observe
          ~on_output:(fun o -> on_output (convert nt.keys o))
          ~censor:(censor id) ()
      in
      { node; keys = nt.keys }

    let start t = Hotstuff.Smr.start t.node

    let submit t ~payload = Hotstuff.Smr.submit t.node ~payload

    let honest _ = true

    let output_log t = List.map (convert t.keys) (Hotstuff.Smr.output_log t.node)

    (* Heights carry no validity window. *)
    let seq_bounds _ = []

    let stats t =
      {
        Node_intf.accepted = Hotstuff.Smr.own_committed t.node;
        rejected = 0;
        decide_rounds = [||];
        mempool = Hotstuff.Smr.mempool_size t.node;
        committed_seq = Hotstuff.Smr.committed_height t.node;
        late_accepts = 0;
        phases =
          List.map
            (fun (label, r) -> (label, Metrics.Recorder.to_array r))
            (Metrics.Phases.pairs (Hotstuff.Smr.phases t.node));
      }
  end)
