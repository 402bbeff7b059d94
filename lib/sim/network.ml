type dissemination = All_to_all

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
  (* Bumped on every crash: callbacks scheduled on behalf of a node
     capture the value and become no-ops if the node crashed (even if it
     recovered) in between — a crash tombstones everything in flight. *)
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
  trace : Trace.t option;
  recover_hooks : (unit -> unit) option array;
  link_rng : Crypto.Rng.t;
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable duped : int;
  mutable eclipsed : int;  (** messages cut by an eclipse *)
}

(* The detail payload is built at the call site but only matters when
   its category is on; fault events are rare (drops, crashes), so no
   [enabled] pre-check is needed here — [Trace.record] itself is one
   bitmask test when the category is off. *)
let trace_to t ~node category detail =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~node category detail

let trace_fault t ~node detail = trace_to t ~node Trace.Fault detail

let phase_sink t ~node =
  match t.trace with
  | None -> Metrics.Phases.no_sink
  | Some tr ->
      let phase detail = Trace.record tr ~node Trace.Phase detail in
      {
        Metrics.Phases.mark =
          (fun mark index -> phase (Trace.Mark { mark; proposer = node; index }));
        span = (fun span ~from_us -> phase (Trace.Span { span; from_us }));
      }

let crash t id =
  if not t.crashed.(id) then begin
    t.crashed.(id) <- true;
    t.incarnation.(id) <- t.incarnation.(id) + 1;
    trace_fault t ~node:id Trace.Crash
  end

let recover t id =
  if t.crashed.(id) then begin
    t.crashed.(id) <- false;
    trace_fault t ~node:id Trace.Recover;
    match t.recover_hooks.(id) with None -> () | Some hook -> hook ()
  end

let create engine ~n ~latency ?adversary ?(ns_per_byte = 8)
    ?(cores = 8) ?(faults = Faults.none) ?(perturb = Perturb.none)
    ?trace:trace_sink ?dissemination:_ ~cost ~size () =
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
      cpus = Array.init n (fun _ -> Cpu.create ~cores engine);
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
      trace = trace_sink;
      recover_hooks = Array.make n None;
      link_rng = Crypto.Rng.split (Engine.rng engine);
      sent = 0;
      delivered = 0;
      bytes = 0;
      dropped = 0;
      duped = 0;
      eclipsed = 0;
    }
  in
  (* Plan-scheduled process faults. The handler survives a crash, so a
     recovered node resumes receiving without re-registering. *)
  List.iter
    (fun (c : Faults.crash) ->
      ignore
        (Engine.schedule_at engine ~time:c.c_at_us (fun () -> crash t c.c_node)
          : Engine.timer);
      Option.iter
        (fun time ->
          ignore
            (Engine.schedule_at engine ~time (fun () -> recover t c.c_node)
              : Engine.timer))
        c.c_recover_us)
    faults.Faults.crashes;
  t

let register t ~id handler = t.handlers.(id) <- Some handler

let on_recover t ~id hook = t.recover_hooks.(id) <- Some hook

(* [inc] is the receiver's incarnation when the message entered the
   wire (or, for self-delivery, when it was sent): if the receiver
   crashed since, the delivery is tombstoned even after recovery. *)
let deliver t ~src ~dst ~inc msg =
  if (not t.crashed.(dst)) && Int.equal t.incarnation.(dst) inc then
    match t.handlers.(dst) with
    | None -> ()
    | Some handler ->
        let service = t.cost ~dst msg in
        Cpu.submit t.cpus.(dst) ~service_us:service (fun () ->
            if (not t.crashed.(dst)) && Int.equal t.incarnation.(dst) inc
            then begin
              t.delivered <- t.delivered + 1;
              handler ~src msg
            end)

let schedule_delivery t ~src ~dst ~perturb_us msg =
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
  let inc = t.incarnation.(dst) in
  ignore
    (Engine.schedule ~kind:Engine.Wire t.engine
       ~delay:(latency + extra + perturb_us)
       (fun () -> deliver t ~src ~dst ~inc msg)
      : Engine.timer)

(* The fault plan acts at the moment a message enters the wire:
   partitions silently cut the link, then loss windows may drop or
   duplicate. Self-delivery never touches the wire and is immune.
   Perturbations address the wire-entry position ([wire_seq]), so the
   counter must advance for every wired message — including ones a
   partition or loss window then kills — to keep [nth] stable whether
   or not a fault plan is active. The extra delay is computed once per
   logical message; duplicate copies share it. *)
let wire t ~src ~dst msg =
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
    trace_fault t ~node:dst (Trace.Partition_drop { src })
  end
  else
    match Faults.eclipse_fate t.faults ~now ~src ~dst with
    | Faults.Link_cut ->
        t.dropped <- t.dropped + 1;
        t.eclipsed <- t.eclipsed + 1;
        trace_fault t ~node:dst (Trace.Eclipse_drop { src })
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
              t.dropped <- t.dropped + 1;
              trace_fault t ~node:dst (Trace.Drop { src })
            end;
            let dup_p = Faults.dup_prob t.faults ~now ~src ~dst in
            if dup_p > 0.0 && Crypto.Rng.float rng < dup_p then begin
              copies := !copies + 1;
              t.duped <- t.duped + 1;
              trace_fault t ~node:dst (Trace.Dup { src })
            end);
        for _ = 1 to !copies do
          schedule_delivery t ~src ~dst ~perturb_us msg
        done

let send t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network.send: endpoint out of range";
  if not t.crashed.(src) then begin
    t.sent <- t.sent + 1;
    (* Per-message tracing, guarded so the disabled path costs exactly
       one bitmask test: neither the [Send] payload nor [size msg] is
       evaluated unless the Net category is subscribed. *)
    (match t.trace with
    | Some tr when Trace.enabled tr Trace.Net ->
        Trace.record tr ~node:src Trace.Net
          (Trace.Send { dst; bytes = t.size msg })
    | Some _ | None -> ());
    if Int.equal src dst then
      deliver t ~src ~dst ~inc:t.incarnation.(dst) msg
    else begin
      let bytes = t.size msg in
      t.bytes <- t.bytes + bytes;
      let tx_us = bytes * t.ns_per_byte / 1000 in
      let src_inc = t.incarnation.(src) in
      Cpu.submit t.nics.(src) ~service_us:tx_us (fun () ->
          if (not t.crashed.(src)) && Int.equal t.incarnation.(src) src_inc
          then wire t ~src ~dst msg)
    end
  end

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst msg
  done

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
