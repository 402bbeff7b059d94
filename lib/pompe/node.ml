module Iid_tbl = Lyra.Types.Iid_tbl
module Int_tbl = Lyra.Types.Int_tbl

type output = { batch : Lyra.Types.batch; seq : int; output_at : int }

(* An own proposal's ordering phase in progress; the entry is removed
   once the proposal is sequenced. *)
type ts_collect = {
  responders : Dbft.Senders.t;
  mutable proofs : Types.timestamp_proof list;
}

(* Committed batches waiting for stable execution, in (seq, iid)
   order: the order in which they execute. *)
module Exec_queue = Set.Make (struct
  type t = int * Lyra.Types.iid

  let compare (s1, i1) (s2, i2) =
    match Int.compare s1 s2 with
    | 0 -> Lyra.Types.iid_compare i1 i2
    | c -> c
end)

(* What a node knows of one batch id, from the first message that
   names it: the payload once an Order_req brings it ([no_batch]
   until then), the timestamp this node signed for it ([min_int]
   until its Ts_resp goes out) and whether its Sequenced was
   admitted. *)
type entry = {
  mutable batch : Lyra.Types.batch;
  mutable ts_sent : int;
  mutable sequenced : bool;
}

(* The one "no payload yet" batch, told apart by [==]. *)
let no_batch =
  {
    Lyra.Types.iid = { Lyra.Types.proposer = -1; index = -1 };
    txs = [||];
    obf = Lyra.Types.Clear;
    created_at = 0;
  }

let has_payload e = not (e.batch == no_batch)

(* The payload fetch of a committed batch whose Order_req never
   arrived: the node last asked and when the next one is due. A row
   lives only while the payload is missing. *)
type fetch = { mutable from : int; mutable next_at : int }

type t = {
  config : Config.t;
  id : int;
  net : Types.body Sim.Network.t;
  engine : Sim.Engine.t;
  clock : Lyra.Ordering_clock.t;
  on_observe : Lyra.Types.batch -> unit;
  on_output : output -> unit;
  censor : Lyra.Types.iid -> bool;
  respond_ts : Lyra.Types.batch -> honest:int -> int option;
  mutable replica : Types.cmd Hotstuff.Replica.t option;
  entries : entry Iid_tbl.t;
  fetches : fetch Iid_tbl.t;  (** fetches in progress *)
  collects : ts_collect Int_tbl.t;  (** per open own proposal index *)
  mutable exec_buffer : Exec_queue.t;
  mutable max_committed_seq : int;
  mutable max_commit_lag_us : int;
      (** worst observed (commit arrival − sequence number): how far
          behind wall clock the ordering+consensus pipeline runs *)
  log : Lyra.Types.batch Lyra.Output_log.t;
  mempool : Lyra.Mempool.t;
  mutable next_index : int;
  mutable inflight : int;
  mutable sequenced : int;
  mutable started : bool;
  phases : Metrics.Phases.t;  (** own proposal index → milestones *)
}

(* Pompē's anatomy (ms): [order] (Order_req broadcast → 2f+1 Ts_resps,
   i.e. the ordering phase of §4), [consensus] (Sequenced → HotStuff
   3-chain commit), [stable_exec] (commit → stable-execution output,
   the wait that dominates Pompē's latency gap versus Lyra in Fig. 2),
   [e2e] (propose → output). *)
let phase_spans =
  [
    ("order", "propose", "seq");
    ("consensus", "seq", "commit");
    ("stable_exec", "commit", "exec");
    ("e2e", "propose", "exec");
  ]

let output_log t =
  Lyra.Output_log.to_list t.log (fun batch ~seq ~at -> { batch; seq; output_at = at })

let sequenced_count t = t.sequenced

let committed_height t =
  match t.replica with Some r -> Hotstuff.Replica.committed_height r | None -> 0

let mempool_size t = Lyra.Mempool.length t.mempool

let open_collects t = Int_tbl.length t.collects

let open_fetches t = Iid_tbl.length t.fetches

let broadcast t body = Sim.Network.broadcast t.net ~src:t.id body

let send t ~dst body = Sim.Network.send t.net ~src:t.id ~dst body

let phases t = t.phases

(* Stamps a phase milestone of [iid] if it is an own batch. *)
let stamp_own t iid milestone =
  if Int.equal iid.Lyra.Types.proposer t.id then
    Metrics.Phases.stamp t.phases ~key:iid.Lyra.Types.index milestone
      ~now:(Sim.Engine.now t.engine)

(* ------------------------------------------------------------------ *)
(* Stable execution: committed batches run in sequence order once no  *)
(* lower sequence number can still be committed (margin-based).       *)
(* ------------------------------------------------------------------ *)

let entry t iid =
  match Iid_tbl.find_opt t.entries iid with
  | Some e -> e
  | None ->
      let e = { batch = no_batch; ts_sent = min_int; sequenced = false } in
      Iid_tbl.replace t.entries iid e;
      e

(* Missing payload for a committed batch: the first [Order_fetch] goes
   to the proposer, then each [Config.fetch_base_us] to the next node id
   in turn, skipping this node, until the payload arrives. Every node
   that timestamped the batch holds it, so the walk reaches one. *)
let fetch_payload t iid now =
  let next i = (i + 1) mod t.config.Config.n in
  let ask dst =
    send t ~dst (Types.Order_fetch { iid });
    now + Config.fetch_base_us
  in
  match Iid_tbl.find_opt t.fetches iid with
  | None ->
      let dst = iid.Lyra.Types.proposer in
      Iid_tbl.replace t.fetches iid { from = dst; next_at = ask dst }
  | Some f when now >= f.next_at ->
      let d = next f.from in
      let dst = if Int.equal d t.id then next d else d in
      f.from <- dst;
      f.next_at <- ask dst
  | Some _ -> ()

(* The payload of [e] arrived: keep it and end its fetch, if any. *)
let fill t iid e batch =
  e.batch <- batch;
  Iid_tbl.remove t.fetches iid;
  t.on_observe batch

(* Executes the buffered entries with seq <= [horizon], lowest first.
   A missing payload stops the drain until it arrives; meanwhile the
   fetch of every missing payload up to the horizon advances, so they
   arrive together rather than one fetch after another. *)
let rec drain t horizon =
  if not (Exec_queue.is_empty t.exec_buffer) then begin
    let ((seq, iid) as head) = Exec_queue.min_elt t.exec_buffer in
    if seq <= horizon then
      let e = entry t iid in
      if has_payload e then begin
        t.exec_buffer <- Exec_queue.remove head t.exec_buffer;
        let at = Sim.Engine.now t.engine in
        Lyra.Output_log.append t.log e.batch ~seq ~at;
        stamp_own t iid "exec";
        t.on_output { batch = e.batch; seq; output_at = at };
        drain t horizon
      end
      else
        let now = Sim.Engine.now t.engine in
        Exec_queue.to_seq_from head t.exec_buffer
        |> Seq.take_while (fun (s, _) -> s <= horizon)
        |> Seq.iter (fun (_, iid) ->
               if not (has_payload (entry t iid)) then fetch_payload t iid now)
  end

let flush_exec t =
  (* A batch with sequence number s may only execute once no batch
     with a lower sequence number can still be committed: the newest
     committed sequence number must be at least one full
     ordering+consensus window ahead, or (idle fallback) wall-clock
     long past s. This stable wait is intrinsic to Pompē and is part
     of its latency gap versus Lyra (Fig. 2). *)
  if
    (not (Sim.Network.is_crashed t.net t.id))
    && not (Exec_queue.is_empty t.exec_buffer)
  then begin
    let idle_margin_us =
      (* The wall-clock arm is only safe when no lower sequence number
         can still be in consensus flight. A fixed 16Δ margin holds at
         small n, but the pipeline lag grows with n (ordering collects
         n responses, the leader batches n proposers), so scale the
         margin to twice the worst lag this replica has ever observed
         between a sequence number and its commit arriving here. *)
      Int.max (16 * t.config.delta_us) (2 * t.max_commit_lag_us)
    in
    let horizon =
      Int.max
        (t.max_committed_seq - t.config.exec_window_us)
        (Lyra.Ordering_clock.peek t.clock - idle_margin_us)
    in
    drain t horizon
  end

let on_hotstuff_commit t ~height:_ cmds =
  List.iter
    (fun (cmd : Types.cmd) ->
      t.max_committed_seq <- max t.max_committed_seq cmd.c_seq;
      t.max_commit_lag_us <-
        max t.max_commit_lag_us (Sim.Engine.now t.engine - cmd.c_seq);
      stamp_own t cmd.c_iid "commit";
      t.exec_buffer <- Exec_queue.add (cmd.c_seq, cmd.c_iid) t.exec_buffer)
    cmds;
  flush_exec t

(* ------------------------------------------------------------------ *)
(* Ordering phase.                                                    *)
(* ------------------------------------------------------------------ *)

let median_seq proofs =
  let sorted =
    List.map (fun (p : Types.timestamp_proof) -> p.ts) proofs
    |> List.sort Int.compare
  in
  List.nth sorted (List.length sorted / 2)

let submit_cmd t (cmd : Types.cmd) =
  if not (t.censor cmd.c_iid) then
    match t.replica with
    | Some r -> Hotstuff.Replica.submit r cmd
    | None -> ()

(* An Order_req from the proposer is timestamped; one relayed by
   another holder answers this node's [Order_fetch] and only fills the
   payload it is fetching. *)
let on_order_req t ~src batch =
  let iid = batch.Lyra.Types.iid in
  if Int.equal iid.Lyra.Types.proposer src then begin
    let e = entry t iid in
    if not (has_payload e) then begin
      fill t iid e batch;
      let honest = Lyra.Ordering_clock.read t.clock in
      (match t.respond_ts batch ~honest with
      | Some ts ->
          e.ts_sent <- ts;
          send t ~dst:src (Types.Ts_resp { iid; ts })
      | None -> ());
      flush_exec t
    end
    else if not (Int.equal e.ts_sent min_int) then
      (* A duplicate Order_req is the proposer retrying because our
         Ts_resp may have been lost: re-send the original timestamp
         (the proposer's responder set makes this idempotent). *)
      send t ~dst:src (Types.Ts_resp { iid; ts = e.ts_sent })
  end
  else if Iid_tbl.mem t.fetches iid then begin
    fill t iid (entry t iid) batch;
    flush_exec t
  end

let on_order_fetch t ~src iid =
  match Iid_tbl.find_opt t.entries iid with
  | Some e when has_payload e -> send t ~dst:src (Types.Order_req { batch = e.batch })
  | Some _ | None -> ()

(* A crashed node holds its transactions; the recovery hook re-enters. *)
let rec maybe_propose t =
  Lyra.Mempool.flush t.mempool ~batch_size:t.config.batch_size
    ~timeout_us:t.config.batch_timeout_us
    ~ready:(fun () ->
      t.started
      && (not (Sim.Network.is_crashed t.net t.id))
      && t.inflight < t.config.max_inflight)
    ~propose:(propose_batch t)

and propose_batch t txs =
  let index = t.next_index in
  t.next_index <- index + 1;
  t.inflight <- t.inflight + 1;
  let iid = { Lyra.Types.proposer = t.id; index } in
  let batch =
    {
      Lyra.Types.iid;
      txs = Array.of_list txs;
      obf = Lyra.Types.Clear;
      created_at = Lyra.Ordering_clock.read t.clock;
    }
  in
  Int_tbl.replace t.collects index
    { responders = Dbft.Senders.create t.config.n; proofs = [] };
  Metrics.Phases.start t.phases ~key:index ~now:(Sim.Engine.now t.engine);
  broadcast t (Types.Order_req { batch });
  arm_order_retry t index batch 1

(* Lost Order_reqs or Ts_resps would strand the collect below 2f+1 and
   hold the inflight slot; re-broadcast with doubling delays capped at
   16 [Config.order_retry_us] (generous enough never to fire on a
   healthy run) until the batch is sequenced. *)
and arm_order_retry t index batch attempt =
  let delay = Config.order_retry_us * (1 lsl min 4 (attempt - 1)) in
  Sim.Engine.schedule t.engine ~delay (fun () ->
      if Int_tbl.mem t.collects index then
        if Sim.Network.is_crashed t.net t.id then
          (* Crashed: keep the slot, check again after recovery. *)
          arm_order_retry t index batch attempt
        else begin
          broadcast t (Types.Order_req { batch });
          arm_order_retry t index batch (attempt + 1)
        end)

let on_ts_resp t ~src iid ts =
  if Int.equal iid.Lyra.Types.proposer t.id then
    match Int_tbl.find_opt t.collects iid.Lyra.Types.index with
    | None -> ()
    | Some col ->
        if Dbft.Senders.add col.responders src then begin
          col.proofs <- { Types.signer = src; ts } :: col.proofs;
          if Dbft.Senders.count col.responders >= Config.supermajority t.config then begin
            Int_tbl.remove t.collects iid.Lyra.Types.index;
            t.inflight <- max 0 (t.inflight - 1);
            stamp_own t iid "seq";
            let seq = median_seq col.proofs in
            broadcast t (Types.Sequenced { iid; seq; proofs = col.proofs });
            maybe_propose t
          end
        end

let on_sequenced t ~src iid seq proofs =
  let count = List.length proofs in
  if Int.equal src iid.Lyra.Types.proposer && count >= Config.supermajority t.config then begin
    let e = entry t iid in
    if not e.sequenced then begin
      e.sequenced <- true;
      t.sequenced <- t.sequenced + 1;
      submit_cmd t { Types.c_iid = iid; c_seq = seq; c_proof_count = count }
    end
  end

let on_message t ~src body =
  match body with
  | Types.Order_req { batch } -> on_order_req t ~src batch
  | Types.Ts_resp { iid; ts } -> on_ts_resp t ~src iid ts
  | Types.Sequenced { iid; seq; proofs } -> on_sequenced t ~src iid seq proofs
  | Types.Order_fetch { iid } -> on_order_fetch t ~src iid
  | Types.Hs m -> (
      match t.replica with
      | Some r ->
          Hotstuff.Replica.handle r ~src m;
          flush_exec t
      | None -> ())

let submit t ~payload =
  let tx_id = Lyra.Mempool.add t.mempool ~payload in
  maybe_propose t;
  tx_id

let rec flush_loop t =
  flush_exec t;
  Sim.Engine.schedule t.engine ~delay:t.config.delta_us (fun () ->
      flush_loop t)

let start t =
  if not t.started then begin
    t.started <- true;
    (match t.replica with
    | Some r -> Hotstuff.Replica.start r
    | None -> ());
    flush_loop t
  end

let create config net ~id ?(clock_offset_us = 0)
    ?(on_observe = fun _ -> ()) ?(on_output = fun _ -> ())
    ?(censor = fun _ -> false)
    ?(respond_ts = fun _ ~honest -> Some honest) () =
  let engine = Sim.Network.engine net in
  let t =
    {
      config;
      id;
      net;
      engine;
      clock = Lyra.Ordering_clock.create engine ~offset_us:clock_offset_us;
      on_observe;
      on_output;
      censor;
      respond_ts;
      replica = None;
      entries = Iid_tbl.create 128;
      fetches = Iid_tbl.create 1;
      collects = Int_tbl.create 32;
      exec_buffer = Exec_queue.empty;
      max_committed_seq = 0;
      max_commit_lag_us = 0;
      log = Lyra.Output_log.create ();
      mempool = Lyra.Mempool.create engine ~node:id ~prefix:"p";
      next_index = 0;
      inflight = 0;
      sequenced = 0;
      started = false;
      phases = Metrics.Phases.create phase_spans;
    }
  in
  let transport =
    {
      Hotstuff.Replica.tr_n = config.Config.n;
      tr_broadcast = (fun m -> broadcast t (Types.Hs m));
      tr_send = (fun ~dst m -> send t ~dst (Types.Hs m));
      tr_schedule =
        (fun ~delay_us fn ->
          Sim.Engine.schedule engine ~delay:delay_us fn);
    }
  in
  let replica =
    Hotstuff.Replica.create transport ~id ~delta_us:config.Config.delta_us
      ~block_capacity:config.Config.block_capacity ~cmd_id:Types.cmd_id
      ~cmd_key:(fun (c : Types.cmd) -> Lyra.Types.iid_key ~n:config.Config.n c.c_iid)
      ~on_commit:(fun ~height cmds -> on_hotstuff_commit t ~height cmds)
      ()
  in
  t.replica <- Some replica;
  Sim.Network.register net ~id (fun ~src body -> on_message t ~src body);
  (* Re-enter the pipeline after a planned crash/recovery: flush
     whatever the mempool accumulated and resume executing. *)
  Sim.Network.on_recover net ~id (fun () ->
      maybe_propose t;
      flush_exec t);
  t
