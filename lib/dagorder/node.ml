type config = {
  n : int;
  f : int;
  round_interval_us : int;
  fetch_interval_us : int;
  batch_size : int;
  max_batches_per_vertex : int;
  tx_size : int;
  clock_offset_max_us : int;
}

let default_config ~n =
  {
    n;
    f = (n - 1) / 3;
    round_interval_us = 100_000;
    fetch_interval_us = 150_000;
    batch_size = 800;
    max_batches_per_vertex = 8;
    tx_size = 32;
    clock_offset_max_us = 0;
  }

type msg =
  | Vertex of Dag.vertex
  | Vertex_req of { round : int; creator : int }
  | Vertices of Dag.vertex list

let vertex_wire_size (v : Dag.vertex) =
  64
  + (8 * List.length v.refs)
  + (8 * List.length v.weak)
  + List.fold_left
      (fun acc (b : Lyra.Types.batch) ->
        acc + 64 + (32 * Array.length b.Lyra.Types.txs))
      0 v.batches
  + (24 * List.length v.reports)

let msg_size = function
  | Vertex v -> vertex_wire_size v
  | Vertex_req _ -> 16
  | Vertices vs -> List.fold_left (fun acc v -> acc + vertex_wire_size v) 8 vs

let vertex_cost (c : Sim.Costs.t) (v : Dag.vertex) =
  (* One creator signature, then hash-admit the carried payload. *)
  let kb = 1 + (vertex_wire_size v / 1024) in
  c.sig_verify + (c.hash_per_kb * kb)

let msg_cost (c : Sim.Costs.t) body =
  let base =
    match body with
    | Vertex v -> vertex_cost c v
    | Vertex_req _ -> 4 (* store lookup *)
    | Vertices vs -> List.fold_left (fun acc v -> acc + vertex_cost c v) 0 vs
  in
  c.msg_overhead + base

type output = { delivery : Dag.delivery; seq : int; output_at : int }

type t = {
  config : config;
  id : int;
  net : msg Sim.Network.t;
  engine : Sim.Engine.t;
  clock_offset_us : int;
  on_observe : Lyra.Types.batch -> unit;
  on_output : output -> unit;
  censor : Lyra.Types.iid -> bool;
  dag : Dag.t;
  mutable started : bool;
  mutable last_created_round : int;  (** −1 before the genesis vertex *)
  mutable timer_due : bool;  (** round pacing elapsed since last vertex *)
  mempool : Lyra.Mempool.t;
  mutable next_index : int;
  mutable own_emitted : int;
  log : Dag.delivery Lyra.Output_log.t;
  pending : (int * int, Dag.vertex) Hashtbl.t;
      (** buffered vertices whose parents have not all arrived *)
  missing : (int * int, int) Hashtbl.t;  (** wanted vertex → attempts *)
  reported : (string, unit) Hashtbl.t;
  mutable pending_reports : (string * int) list;
  decide_rounds : Metrics.Recorder.t;
  phases : Metrics.Phases.t;  (** own proposal index → milestones *)
  mutable fetch_armed : bool;
  covered : (int * int, unit) Hashtbl.t;
      (** vertices in the history of some own vertex *)
  uncovered : (int * int, unit) Hashtbl.t;
      (** inserted vertices not (yet) covered: weak-link candidates *)
}

(* The whole pipeline is [wave] (embed → wave commit of the own
   batch), which is also [e2e]; both are reported so cross-protocol
   tables share the [e2e] column. *)
let phase_spans = [ ("wave", "propose", "commit"); ("e2e", "propose", "commit") ]

let output_log t =
  Lyra.Output_log.to_list t.log (fun delivery ~seq ~at ->
      { delivery; seq; output_at = at })

let mempool_size t = Lyra.Mempool.length t.mempool

let own_emitted t = t.own_emitted

let committed_seq t = Lyra.Output_log.length t.log

let decide_rounds t = t.decide_rounds

let phases t = t.phases

let crashed t = Sim.Network.is_crashed t.net t.id

let local_now t = Sim.Engine.now t.engine + t.clock_offset_us

(* First sighting of a batch: testify to its local receive time in the
   next own vertex, and surface it to the harness tap. *)
let observe_batch t (b : Lyra.Types.batch) =
  let key = Dag.key_of_batch b in
  if not (Hashtbl.mem t.reported key) then begin
    Hashtbl.replace t.reported key ();
    (* A censoring replica still receives the batch (the tap sees it)
       but withholds its receive testimony, starving the quorum the
       linearizer needs. *)
    if not (t.censor b.Lyra.Types.iid) then
      t.pending_reports <- (key, local_now t) :: t.pending_reports;
    t.on_observe b
  end

let deliver t (ds : Dag.delivery list) =
  List.iter
    (fun (d : Dag.delivery) ->
      let seq = Lyra.Output_log.length t.log and at = Sim.Engine.now t.engine in
      Metrics.Recorder.record t.decide_rounds
        (float_of_int (d.anchor_round - d.embed_round));
      (if Int.equal d.batch.Lyra.Types.iid.Lyra.Types.proposer t.id then begin
         t.own_emitted <- t.own_emitted + 1;
         Metrics.Phases.stamp t.phases
           ~key:d.batch.Lyra.Types.iid.Lyra.Types.index "commit"
           ~now:at
       end);
      Lyra.Output_log.append t.log d ~seq ~at;
      t.on_output { delivery = d; seq; output_at = at })
    ds

let parents_present t (v : Dag.vertex) =
  Int.equal v.round 0
  || List.for_all
       (fun p -> Dag.mem t.dag ~round:(v.round - 1) ~creator:p)
       v.refs

let do_fetch t =
  if (not (crashed t)) && Hashtbl.length t.missing > 0 then
    List.iter
      (fun ((round, creator), attempts) ->
        (* Rotate past the creator on retries: it may be crashed, and
           every replica stores the full DAG. *)
        let dst = (creator + attempts) mod t.config.n in
        let dst = if Int.equal dst t.id then (dst + 1) mod t.config.n else dst in
        Hashtbl.replace t.missing (round, creator) (attempts + 1);
        if not (Int.equal dst t.id) then
          Sim.Network.send t.net ~src:t.id ~dst (Vertex_req { round; creator }))
      (Sim.Det.sorted_bindings
         ~cmp:(fun (r1, c1) (r2, c2) ->
           let c = Int.compare r1 r2 in
           if c <> 0 then c else Int.compare c1 c2)
         t.missing)

let rec arm_fetch t =
  if not t.fetch_armed then begin
    t.fetch_armed <- true;
    Sim.Engine.schedule t.engine ~delay:t.config.fetch_interval_us
      (fun () ->
        t.fetch_armed <- false;
        do_fetch t;
        if Hashtbl.length t.missing > 0 then arm_fetch t)
  end

(* Insert a vertex, absorbing any buffered descendants that become
   insertable, delivering as waves commit along the way. *)
let rec absorb t (v : Dag.vertex) =
  match Dag.add t.dag v with
  | `Duplicate -> Hashtbl.remove t.pending (v.round, v.creator)
  | `Missing parents ->
      Hashtbl.replace t.pending (v.round, v.creator) v;
      List.iter
        (fun rc ->
          if not (Hashtbl.mem t.missing rc) then Hashtbl.replace t.missing rc 0)
        parents;
      arm_fetch t
  | `Added ds ->
      Hashtbl.remove t.pending (v.round, v.creator);
      Hashtbl.remove t.missing (v.round, v.creator);
      if not (Hashtbl.mem t.covered (v.round, v.creator)) then
        Hashtbl.replace t.uncovered (v.round, v.creator) ();
      List.iter (fun b -> observe_batch t b) v.batches;
      deliver t ds;
      retry_pending t

and retry_pending t =
  let ready =
    List.filter_map
      (fun (_rc, v) -> if parents_present t v then Some v else None)
      (Sim.Det.sorted_bindings
         ~cmp:(fun (r1, c1) (r2, c2) ->
           let c = Int.compare r1 r2 in
           if c <> 0 then c else Int.compare c1 c2)
         t.pending)
  in
  match ready with [] -> () | v :: _ -> absorb t v

let broadcast t body = Sim.Network.broadcast t.net ~src:t.id body

(* Pack the mempool into fresh own batches for the next vertex. *)
let pack_batches t =
  let rec go budget acc =
    if Int.equal budget 0 || Int.equal (Lyra.Mempool.length t.mempool) 0 then
      List.rev acc
    else
      let batch_txs = Lyra.Mempool.take t.mempool t.config.batch_size in
      let index = t.next_index in
      t.next_index <- index + 1;
      let batch =
        {
          Lyra.Types.iid = { Lyra.Types.proposer = t.id; index };
          txs = Array.of_list batch_txs;
          obf = Lyra.Types.Clear;
          created_at = Sim.Engine.now t.engine;
        }
      in
      Metrics.Phases.start t.phases ~key:index ~now:(Sim.Engine.now t.engine);
      go (budget - 1) (batch :: acc)
  in
  go t.config.max_batches_per_vertex []

(* Mark [(r, c)] and its whole (present) history as covered. *)
let rec cover t (r, c) =
  if not (Hashtbl.mem t.covered (r, c)) then
    match Dag.find t.dag ~round:r ~creator:c with
    | None -> ()
    | Some v ->
        Hashtbl.replace t.covered (r, c) ();
        Hashtbl.remove t.uncovered (r, c);
        List.iter (fun p -> cover t (r - 1, p)) v.refs;
        List.iter (cover t) v.weak

(* Weak links of a new round-[round] vertex: after covering its strong
   parents' histories, every older vertex still uncovered, newest
   first, skipping those an earlier weak link already reaches. When
   rounds outpace the one-way delay the strong parents are always the
   first n−f arrivals, and without these links a far replica's
   vertices would never enter a committed history. *)
let weak_links t ~round ~refs =
  List.iter (fun c -> cover t (round - 1, c)) refs;
  List.fold_left
    (fun acc (rc, ()) ->
      if fst rc >= round - 1 || Hashtbl.mem t.covered rc then acc
      else begin
        cover t rc;
        rc :: acc
      end)
    []
    (Sim.Det.sorted_bindings
       ~cmp:(fun (r1, c1) (r2, c2) ->
         let c = Int.compare r2 r1 in
         if c <> 0 then c else Int.compare c1 c2)
       t.uncovered)

let rec create_vertex t ~round ~refs =
  let batches = pack_batches t in
  (* Own batches are observed like received ones, so the creator's own
     receive report rides the embedding vertex itself. *)
  List.iter (fun b -> observe_batch t b) batches;
  let reports =
    List.sort
      (fun (k1, _) (k2, _) -> String.compare k1 k2)
      t.pending_reports
  in
  t.pending_reports <- [];
  let weak = weak_links t ~round ~refs in
  let v = { Dag.round; creator = t.id; refs; weak; batches; reports } in
  t.last_created_round <- round;
  t.timer_due <- false;
  Sim.Engine.schedule t.engine ~delay:t.config.round_interval_us (fun () ->
      t.timer_due <- true;
      try_advance t);
  (* Self-delivery through the broadcast inserts the vertex into the
     local DAG via the normal handler. *)
  broadcast t (Vertex v)

and try_advance t =
  if t.started && (not (crashed t)) && t.timer_due then begin
    let h = Dag.max_quorum_round t.dag in
    if h >= 0 && h + 1 > t.last_created_round then
      create_vertex t ~round:(h + 1) ~refs:(Dag.round_creators t.dag h)
  end

(* Fetch responses bundle the requested vertex with a shallow ancestor
   closure so a recovering replica climbs several rounds per
   round-trip. *)
let closure_depth = 3

let fetch_closure t ~round ~creator =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go depth r c =
    if depth >= 0 && (not (Hashtbl.mem seen (r, c))) then begin
      Hashtbl.replace seen (r, c) ();
      match Dag.find t.dag ~round:r ~creator:c with
      | None -> ()
      | Some v ->
          acc := v :: !acc;
          List.iter (fun p -> go (depth - 1) (r - 1) p) v.refs;
          List.iter (fun (wr, wc) -> go (depth - 1) wr wc) v.weak
    end
  in
  go closure_depth round creator;
  (* Ascending round order: the receiver inserts parents first. *)
  List.sort
    (fun (a : Dag.vertex) (b : Dag.vertex) ->
      let c = Int.compare a.round b.round in
      if c <> 0 then c else Int.compare a.creator b.creator)
    !acc

let on_message t ~src body =
  match body with
  | Vertex v ->
      absorb t v;
      try_advance t
  | Vertex_req { round; creator } -> (
      match fetch_closure t ~round ~creator with
      | [] -> ()
      | vs -> Sim.Network.send t.net ~src:t.id ~dst:src (Vertices vs))
  | Vertices vs ->
      List.iter (fun v -> absorb t v) vs;
      try_advance t

let submit t ~payload = Lyra.Mempool.add t.mempool ~payload

let start t =
  if not t.started then begin
    t.started <- true;
    (* Genesis vertex; afterwards quorum arrival and the pacing timer
       drive round advancement. *)
    create_vertex t ~round:0 ~refs:[]
  end

let create config net ~id ?(clock_offset_us = 0) ?(on_observe = fun _ -> ())
    ?(on_output = fun _ -> ()) ?(censor = fun _ -> false) () =
  let engine = Sim.Network.engine net in
  let t =
    {
      config;
      id;
      net;
      engine;
      clock_offset_us;
      on_observe;
      on_output;
      censor;
      dag = Dag.create ~n:config.n ~f:config.f ();
      started = false;
      last_created_round = -1;
      timer_due = false;
      mempool = Lyra.Mempool.create engine ~node:id ~prefix:"d";
      next_index = 0;
      own_emitted = 0;
      log = Lyra.Output_log.create ();
      pending = Hashtbl.create 16;
      missing = Hashtbl.create 16;
      reported = Hashtbl.create 16;
      pending_reports = [];
      decide_rounds = Metrics.Recorder.create ();
      phases = Metrics.Phases.create phase_spans;
      fetch_armed = false;
      covered = Hashtbl.create 16;
      uncovered = Hashtbl.create 16;
    }
  in
  Sim.Network.register net ~id (fun ~src body -> on_message t ~src body);
  (* A recovered replica re-enters round pacing immediately; missing
     history refills through the pending buffer + fetch path as new
     vertices arrive. *)
  Sim.Network.on_recover net ~id (fun () ->
      t.timer_due <- true;
      try_advance t;
      do_fetch t;
      if Hashtbl.length t.missing > 0 then arm_fetch t);
  t
