type config = {
  n : int;
  delta_us : int;
  batch_size : int;
  batch_timeout_us : int;
  block_capacity : int;
  tx_size : int;
}

let default_config ~n =
  {
    n;
    delta_us = 160_000;
    batch_size = 800;
    batch_timeout_us = 50_000;
    block_capacity = 8;
    tx_size = 32;
  }

type output = { batch : Lyra.Types.batch; seq : int; output_at : int }

let cmd_id (b : Lyra.Types.batch) =
  Printf.sprintf "%d.%d" b.iid.Lyra.Types.proposer b.iid.Lyra.Types.index

let cmd_wire_size (b : Lyra.Types.batch) = 64 + (32 * Array.length b.Lyra.Types.txs)

type msg =
  | Gossip of { batch : Lyra.Types.batch }
  | Hs of Lyra.Types.batch Replica.msg

let msg_size = function
  | Gossip { batch } -> 96 + (32 * Array.length batch.Lyra.Types.txs)
  | Hs m -> Replica.msg_size ~cmd_size:cmd_wire_size m

let msg_cost (c : Sim.Costs.t) body =
  let base =
    match body with
    | Gossip { batch } ->
        (* Admit the batch to the local mempool: hash the payload. *)
        let kb = 1 + (32 * Array.length batch.Lyra.Types.txs / 1024) in
        c.hash_per_kb * kb
    | Hs (Replica.Proposal b) ->
        (* Verify the QC, then hash every command carried in the block
           — but no per-command quorum of timestamp signatures: this is
           the "ordering phase removed" reference point. *)
        let bytes =
          List.fold_left (fun acc cmd -> acc + cmd_wire_size cmd) 0
            b.Replica.cmds
        in
        c.combined_verify + (c.hash_per_kb * (1 + (bytes / 1024)))
    | Hs (Replica.Vote _) -> c.sig_verify (* leader checks votes *)
    | Hs (Replica.New_view _) -> c.combined_verify
    | Hs (Replica.Catchup_req _) -> 4 (* store lookup *)
    | Hs (Replica.Catchup_resp { blocks }) ->
        (* Same verification work as receiving each block fresh. *)
        List.fold_left
          (fun acc (b : Lyra.Types.batch Replica.block) ->
            let bytes =
              List.fold_left (fun a cmd -> a + cmd_wire_size cmd) 0
                b.Replica.cmds
            in
            acc + c.combined_verify + (c.hash_per_kb * (1 + (bytes / 1024))))
          0 blocks
  in
  c.msg_overhead + base

type t = {
  config : config;
  id : int;
  net : msg Sim.Network.t;
  engine : Sim.Engine.t;
  on_observe : Lyra.Types.batch -> unit;
  on_output : output -> unit;
  censor : Lyra.Types.iid -> bool;
  mutable replica : Lyra.Types.batch Replica.t option;
  log : Lyra.Types.batch Lyra.Output_log.t;
  mutable own_committed : int;
  mempool : Lyra.Mempool.t;
  mutable next_index : int;
  mutable started : bool;
  phases : Metrics.Phases.t;  (** own proposal index → milestones *)
}

(* HotStuff has no ordering phase to break out: the whole pipeline is
   [consensus] (Gossip → 3-chain commit of the own batch), which is
   also [e2e]. Both labels are reported so cross-protocol tables share
   the [e2e] column. *)
let phase_spans = [ ("consensus", "propose", "commit"); ("e2e", "propose", "commit") ]

let output_log t =
  Lyra.Output_log.to_list t.log (fun batch ~seq ~at -> { batch; seq; output_at = at })

let committed_height t =
  match t.replica with Some r -> Replica.committed_height r | None -> 0

let own_committed t = t.own_committed

let mempool_size t = Lyra.Mempool.length t.mempool

let broadcast t body = Sim.Network.broadcast t.net ~src:t.id body

let phases t = t.phases

let on_commit t ~height:_ cmds =
  List.iter
    (fun (batch : Lyra.Types.batch) ->
      let seq = Lyra.Output_log.length t.log and at = Sim.Engine.now t.engine in
      (if Int.equal batch.iid.Lyra.Types.proposer t.id then begin
         t.own_committed <- t.own_committed + 1;
         Metrics.Phases.stamp t.phases ~key:batch.iid.Lyra.Types.index "commit"
           ~now:at
       end);
      Lyra.Output_log.append t.log batch ~seq ~at;
      t.on_output { batch; seq; output_at = at })
    cmds

let on_gossip t batch =
  t.on_observe batch;
  if not (t.censor batch.Lyra.Types.iid) then
    match t.replica with
    | Some r -> Replica.submit r batch
    | None -> ()

let on_message t ~src body =
  match body with
  | Gossip { batch } ->
      if Int.equal batch.Lyra.Types.iid.Lyra.Types.proposer src then
        on_gossip t batch
  | Hs m -> (
      match t.replica with
      | Some r -> Replica.handle r ~src m
      | None -> ())

let propose_batch t txs =
  let index = t.next_index in
  t.next_index <- index + 1;
  let batch =
    {
      Lyra.Types.iid = { Lyra.Types.proposer = t.id; index };
      txs = Array.of_list txs;
      obf = Lyra.Types.Clear;
      created_at = Sim.Engine.now t.engine;
    }
  in
  Metrics.Phases.start t.phases ~key:index ~now:(Sim.Engine.now t.engine);
  broadcast t (Gossip { batch })

let maybe_propose t =
  Lyra.Mempool.flush t.mempool ~batch_size:t.config.batch_size
    ~timeout_us:t.config.batch_timeout_us
    ~ready:(fun () -> t.started && not (Sim.Network.is_crashed t.net t.id))
    ~propose:(propose_batch t)

let submit t ~payload =
  let tx_id = Lyra.Mempool.add t.mempool ~payload in
  maybe_propose t;
  tx_id

let start t =
  if not t.started then begin
    t.started <- true;
    match t.replica with Some r -> Replica.start r | None -> ()
  end

let create config net ~id ?(on_observe = fun _ -> ())
    ?(on_output = fun _ -> ()) ?(censor = fun _ -> false) () =
  let engine = Sim.Network.engine net in
  let t =
    {
      config;
      id;
      net;
      engine;
      on_observe;
      on_output;
      censor;
      replica = None;
      log = Lyra.Output_log.create ();
      own_committed = 0;
      mempool = Lyra.Mempool.create engine ~node:id ~prefix:"h";
      next_index = 0;
      started = false;
      phases = Metrics.Phases.create phase_spans;
    }
  in
  let transport =
    {
      Replica.tr_n = config.n;
      tr_broadcast = (fun m -> broadcast t (Hs m));
      tr_send = (fun ~dst m -> Sim.Network.send t.net ~src:t.id ~dst (Hs m));
      tr_schedule =
        (fun ~delay_us fn ->
          Sim.Engine.schedule engine ~delay:delay_us fn);
    }
  in
  let replica =
    Replica.create transport ~id ~delta_us:config.delta_us
      ~block_capacity:config.block_capacity ~cmd_id
      ~cmd_key:(fun (b : Lyra.Types.batch) -> Lyra.Types.iid_key ~n:config.n b.iid)
      ~on_commit:(fun ~height cmds -> on_commit t ~height cmds)
      ()
  in
  t.replica <- Some replica;
  Sim.Network.register net ~id (fun ~src body -> on_message t ~src body);
  (* A gossiped batch exists only in its origin's mempool until the
     broadcast goes out, so a crashed node must hold its transactions
     and flush them on recovery rather than propose into the void. *)
  Sim.Network.on_recover net ~id (fun () -> maybe_propose t);
  t
