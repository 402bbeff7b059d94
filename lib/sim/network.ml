type dissemination = All_to_all

type trace = |

type 'msg t = {
  engine : Engine.t;
  n : int;
  latency : Latency.t;
  adversary : Adversary.t option;
  cost : dst:int -> 'msg -> int;
  size : 'msg -> int;
  ns_per_byte : int;
  handlers : (src:int -> 'msg -> unit) option array;
  cpus : Cpu.t array;
  nics : Cpu.t array;
  crashed : bool array;
  (* Bumped on every crash: a packet records its node's value at each
     stage and is dropped if the node crashed (even if it recovered) in
     between — a crash tombstones everything in flight. *)
  incarnation : int array;
  faults : Faults.plan;
  (* [Some] iff the plan can drop or duplicate; kept separate from
     [link_rng] so a plan with no loss windows leaves the latency
     sampling stream untouched. *)
  fault_rng : Crypto.Rng.t option;
  perturb : Perturb.t;
  (* Position of the next message to enter the wire, counted across all
     links before drop/duplication — the [nth] coordinate that
     [Perturb.Delay_nth] addresses. Self-deliveries never touch the wire
     and are not counted. *)
  mutable wire_seq : int;
  recover_hooks : (unit -> unit) option array;
  link_rng : Crypto.Rng.t;
  (* In-flight packets: one slot from [send] (or a duplicate's wire
     entry) until the packet is delivered, dropped or tombstoned. The
     slot id is the argument of its NIC, wire and CPU events. [p_inc] is
     the sender's incarnation on the NIC, then the receiver's from wire
     entry on. The arrays grow lazily by doubling; [free] holds the
     [n_free] unused slots, and a freed [msgs] cell is overwritten with
     [filler] (the first message ever pooled) so it pins nothing else. *)
  mutable p_src : int array;
  mutable p_dst : int array;
  mutable p_inc : int array;
  mutable msgs : 'msg array;
  mutable filler : 'msg option;
  mutable free : int array;
  mutable n_free : int;
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable duped : int;
  mutable eclipsed : int;  (** messages cut by an eclipse *)
}

let crash t id =
  if not t.crashed.(id) then begin
    t.crashed.(id) <- true;
    t.incarnation.(id) <- t.incarnation.(id) + 1
  end

let recover t id =
  if t.crashed.(id) then begin
    t.crashed.(id) <- false;
    match t.recover_hooks.(id) with None -> () | Some hook -> hook ()
  end

let grow_pool t msg =
  let cap = Array.length t.p_src in
  let cap' = Int.max 1 (2 * cap) in
  let filler =
    match t.filler with
    | Some f -> f
    | None ->
        t.filler <- Some msg;
        msg
  in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.p_src <- extend t.p_src 0;
  t.p_dst <- extend t.p_dst 0;
  t.p_inc <- extend t.p_inc 0;
  t.msgs <- extend t.msgs filler;
  (* Every old slot is in use (the stack was empty). *)
  t.free <- Array.make cap' 0;
  for s = cap' - 1 downto cap do
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  done

let alloc t ~src ~dst ~inc msg =
  if Int.equal t.n_free 0 then grow_pool t msg;
  t.n_free <- t.n_free - 1;
  let s = t.free.(t.n_free) in
  t.p_src.(s) <- src;
  t.p_dst.(s) <- dst;
  t.p_inc.(s) <- inc;
  t.msgs.(s) <- msg;
  s

let release t s =
  (match t.filler with Some f -> t.msgs.(s) <- f | None -> ());
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let in_flight t = Array.length t.p_src - t.n_free

let pool_slots t = Array.length t.p_src

(* [inc] was [id]'s incarnation when the packet reached the current
   stage: if [id] crashed since, the packet is tombstoned even after
   recovery. *)
let alive t id inc = (not t.crashed.(id)) && Int.equal t.incarnation.(id) inc

(* Wire arrival (or a self-send): queue packet [s] on its receiver's
   CPU; [p_inc] is the receiver's incarnation at wire entry (or, for
   self-delivery, at the send). *)
let deliver t s =
  let dst = t.p_dst.(s) in
  if alive t dst t.p_inc.(s) && Option.is_some t.handlers.(dst) then
    Cpu.submit t.cpus.(dst) ~service_us:(t.cost ~dst t.msgs.(s)) s
  else release t s

(* CPU service done: the packet leaves the pool before its handler
   runs, so the handler's own sends can reuse the slot. *)
let cpu_done t s =
  let src = t.p_src.(s) and dst = t.p_dst.(s) and msg = t.msgs.(s) in
  let arrived = alive t dst t.p_inc.(s) in
  release t s;
  if arrived then
    match t.handlers.(dst) with
    | None -> ()
    | Some handler ->
        t.delivered <- t.delivered + 1;
        handler ~src msg

let schedule_delivery t s ~perturb_us =
  let src = t.p_src.(s) and dst = t.p_dst.(s) in
  let now = Engine.now t.engine in
  let latency = Latency.sample t.latency t.link_rng ~src ~dst in
  (* Adversarial pre-GST delay and BGP-style inflation stack on the
     sampled latency; the inflation query is pure, so fault-free plans
     cost two empty-list folds here and nothing else. *)
  let extra =
    (match t.adversary with
    | None -> 0
    | Some a -> Adversary.extra_delay a t.link_rng ~now ~src ~dst)
    + Faults.inflation_us t.faults ~now ~src ~dst
  in
  t.p_inc.(s) <- t.incarnation.(dst);
  Engine.post t.engine
    ~time:(now + latency + extra + perturb_us)
    ~kind:Engine.Wire s

(* The fault plan acts at the moment a message enters the wire:
   partitions silently cut the link, then loss windows may drop or
   duplicate. Self-delivery never touches the wire and is immune.
   Perturbations address the wire-entry position ([wire_seq]), so the
   counter must advance for every wired message — including ones a
   partition or loss window then kills — to keep [nth] stable whether
   or not a fault plan is active. The extra delay is computed once per
   logical message; duplicate copies share it, and the second copy
   takes a slot of its own. *)
let wire t s =
  let src = t.p_src.(s) and dst = t.p_dst.(s) in
  let now = Engine.now t.engine in
  let nth = t.wire_seq in
  t.wire_seq <- nth + 1;
  let perturb_us =
    match t.perturb with
    | [] -> 0
    | ops -> Perturb.extra_us ops ~now ~src ~dst ~nth
  in
  if Faults.partitioned t.faults ~now ~src ~dst then begin
    t.dropped <- t.dropped + 1;
    release t s
  end
  else
    match Faults.eclipse_fate t.faults ~now ~src ~dst with
    | Faults.Link_cut ->
        t.dropped <- t.dropped + 1;
        t.eclipsed <- t.eclipsed + 1;
        release t s
    | (Faults.Link_up | Faults.Link_delayed _) as fate ->
        let perturb_us =
          perturb_us
          + match fate with Faults.Link_delayed d -> d | _ -> 0
        in
        let copies = ref 1 in
        (match t.fault_rng with
        | None -> ()
        | Some rng ->
            (* Drop and duplication are sampled independently: gating the
               dup draw on the drop not firing would make the effective
               duplicate rate dup_p * (1 - drop_p) instead of the
               configured dup_p. A message can lose its original and still
               have its duplicate delivered. *)
            let drop_p = Faults.drop_prob t.faults ~now ~src ~dst in
            if drop_p > 0.0 && Crypto.Rng.float rng < drop_p then begin
              copies := !copies - 1;
              t.dropped <- t.dropped + 1
            end;
            let dup_p = Faults.dup_prob t.faults ~now ~src ~dst in
            if dup_p > 0.0 && Crypto.Rng.float rng < dup_p then begin
              copies := !copies + 1;
              t.duped <- t.duped + 1
            end);
        if Int.equal !copies 0 then release t s
        else begin
          schedule_delivery t s ~perturb_us;
          if Int.equal !copies 2 then
            schedule_delivery t
              (alloc t ~src ~dst ~inc:0 t.msgs.(s))
              ~perturb_us
        end

(* NIC transmission done: [p_inc] is the sender's incarnation at the
   send, so a sender that crashed since puts nothing on the wire. *)
let nic_done t s =
  if alive t t.p_src.(s) t.p_inc.(s) then wire t s else release t s

let create engine ~n ~latency ?adversary ?(ns_per_byte = 8)
    ?(faults = Faults.none) ?(perturb = Perturb.none) ?trace:_
    ?dissemination:_ ~cost ~size () =
  Faults.validate faults ~n;
  Perturb.validate perturb ~n;
  Option.iter (Adversary.validate ~n) adversary;
  let t =
    {
      engine;
      n;
      latency;
      adversary;
      cost;
      size;
      ns_per_byte;
      handlers = Array.make n None;
      cpus = Array.init n (fun _ -> Cpu.create ~cores:8 engine);
      nics = Array.init n (fun _ -> Cpu.create ~kind:Engine.Nic_tx engine);
      crashed = Array.make n false;
      incarnation = Array.make n 0;
      faults;
      fault_rng =
        (* The split must be conditional: an unconditional split would
           advance the engine RNG and shift every downstream stream,
           breaking golden fault-free runs. *)
        (if faults.Faults.losses = [] then None
         else Some (Crypto.Rng.split (Engine.rng engine)));
      perturb;
      wire_seq = 0;
      recover_hooks = Array.make n None;
      link_rng = Crypto.Rng.split (Engine.rng engine);
      p_src = [||];
      p_dst = [||];
      p_inc = [||];
      msgs = [||];
      filler = None;
      free = [||];
      n_free = 0;
      sent = 0;
      delivered = 0;
      bytes = 0;
      dropped = 0;
      duped = 0;
      eclipsed = 0;
    }
  in
  Engine.set_sink engine (fun kind s ->
      match kind with
      | Engine.Nic_tx -> nic_done t s
      | Engine.Wire -> deliver t s
      | Engine.Cpu_job -> cpu_done t s
      | Engine.Timer -> invalid_arg "Network: a Timer event reached the sink");
  (* Plan-scheduled process faults. The handler survives a crash, so a
     recovered node resumes receiving without re-registering. *)
  List.iter
    (fun (c : Faults.crash) ->
      Engine.schedule_at engine ~time:c.c_at_us (fun () -> crash t c.c_node);
      Option.iter
        (fun time ->
          Engine.schedule_at engine ~time (fun () -> recover t c.c_node))
        c.c_recover_us)
    faults.Faults.crashes;
  t

let register t ~id handler = t.handlers.(id) <- Some handler

let on_recover t ~id hook = t.recover_hooks.(id) <- Some hook

(* One message handed to the transport by an uncrashed [src]; [bytes] is
   [size msg], computed once per broadcast. Every packet takes a pool
   slot: a self-send goes straight to the CPU, any other send first
   serializes on [src]'s NIC. *)
let transmit t ~src ~dst ~bytes msg =
  t.sent <- t.sent + 1;
  if Int.equal src dst then
    deliver t (alloc t ~src ~dst ~inc:t.incarnation.(dst) msg)
  else begin
    t.bytes <- t.bytes + bytes;
    let tx_us = bytes * t.ns_per_byte / 1000 in
    Cpu.submit t.nics.(src) ~service_us:tx_us
      (alloc t ~src ~dst ~inc:t.incarnation.(src) msg)
  end

let check_endpoint t id =
  if id < 0 || id >= t.n then invalid_arg "Network.send: endpoint out of range"

let send t ~src ~dst msg =
  check_endpoint t src;
  check_endpoint t dst;
  if not t.crashed.(src) then transmit t ~src ~dst ~bytes:(t.size msg) msg

let broadcast t ~src msg =
  check_endpoint t src;
  if not t.crashed.(src) then begin
    let bytes = t.size msg in
    for dst = 0 to t.n - 1 do
      transmit t ~src ~dst ~bytes msg
    done
  end

let is_crashed t id = t.crashed.(id)

let engine t = t.engine

let n t = t.n

let cpu t i = t.cpus.(i)

let nic t i = t.nics.(i)

let messages_sent t = t.sent

let messages_delivered t = t.delivered

let bytes_sent t = t.bytes

let messages_dropped t = t.dropped

let messages_duplicated t = t.duped

let messages_eclipsed t = t.eclipsed
