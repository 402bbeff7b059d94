(* The benchmark's view into one Harness.Scenario.run, taken entirely
   from outside the library: a wrapper around any Protocol.NODE adapter.

   The wrapper times every call the harness makes into the adapter
   (make_net, create, start, submit, stats, output_log, ...) and every
   callback the adapter makes back into the harness (on_output,
   on_observe). It keeps the engine handed to make_net for event counts
   and reads the network's counters and per-node CPU/NIC queues after the
   run. It also records each submitted transaction (id, simulated time)
   and each transaction some honest node committed, which is where the
   failure count comes from.

   Phases: set-up runs until the first [start], the simulation until the
   harness first reads an output log (it only does so after the engine
   has stopped), and post-processing until [Scenario.run] returns. *)

type counters = {
  messages : int;
  bytes : int;
  dropped : int;
  duplicated : int;
  cpus : Sim.Cpu.t array;
  nics : Sim.Cpu.t array;
}

type t = {
  spans : Span.t;
  mutable engine : Sim.Engine.t option;
  mutable counters : unit -> counters;
  submitted : (string, int) Hashtbl.t;  (** tx id → submit time, µs *)
  mutable submit_order : string list;  (** newest first *)
  committed : (string, unit) Hashtbl.t;  (** tx ids an honest node output *)
  mutable batches : int;  (** honest outputs observed *)
  mutable batch_bytes : int;  (** their payload bytes *)
}

let create ~traced =
  {
    spans = Span.create ~enabled:traced;
    engine = None;
    counters = (fun () -> invalid_arg "Probe: make_net was never called");
    submitted = Hashtbl.create 4096;
    submit_order = [];
    committed = Hashtbl.create 4096;
    batches = 0;
    batch_bytes = 0;
  }

let engine t =
  match t.engine with
  | Some e -> e
  | None -> invalid_arg "Probe: make_net was never called"

let wrap (st : t) (module P : Protocol.NODE) : (module Protocol.NODE) =
  (module struct
    let name = P.name

    let default_warmup_us = P.default_warmup_us

    type net = P.net

    type t = { node : P.t; honest : bool }

    let sp = st.spans

    let make_net engine ~n ~jitter ?ns_per_byte ?faults ?adversary ?perturb
        ?trace ?dissemination () =
      st.engine <- Some engine;
      let net =
        Span.time sp "protocol.make_net" (fun () ->
            P.make_net engine ~n ~jitter ?ns_per_byte ?faults ?adversary
              ?perturb ?trace ?dissemination ())
      in
      st.counters <-
        (fun () ->
          {
            messages = P.net_messages net;
            bytes = P.net_bytes net;
            dropped = P.net_dropped net;
            duplicated = P.net_dup net;
            cpus = Array.init n (P.net_cpu net);
            nics = Array.init n (P.net_nic net);
          });
      net

    let tx_size = P.tx_size

    let net_messages = P.net_messages

    let net_bytes = P.net_bytes

    let net_dropped = P.net_dropped

    let net_dup = P.net_dup

    let net_cpu = P.net_cpu

    let net_nic = P.net_nic

    let create net ~id ?on_observe ~on_output () =
      let honest = ref true in
      let on_output (c : Protocol.committed) =
        if !honest then
          Span.time sp "bench.record" (fun () ->
              st.batches <- st.batches + 1;
              Array.iter
                (fun (tx : Lyra.Types.tx) ->
                  st.batch_bytes <- st.batch_bytes + String.length tx.payload;
                  Hashtbl.replace st.committed tx.tx_id ())
                c.txs);
        Span.time sp "harness.on_output" (fun () -> on_output c)
      in
      let on_observe =
        Option.map
          (fun f b -> Span.time sp "harness.on_observe" (fun () -> f b))
          on_observe
      in
      let node =
        Span.time sp "protocol.create" (fun () ->
            P.create net ~id ?on_observe ~on_output ())
      in
      honest := P.honest node;
      { node; honest = !honest }

    let start t =
      Span.switch sp "sim";
      Span.time sp "protocol.start" (fun () -> P.start t.node)

    let submit t ~payload =
      let id = Span.time sp "protocol.submit" (fun () -> P.submit t.node ~payload) in
      Span.time sp "bench.record" (fun () ->
          Hashtbl.replace st.submitted id (Sim.Engine.now (engine st));
          st.submit_order <- id :: st.submit_order);
      id

    let honest t = t.honest

    let output_log t =
      Span.switch sp "post";
      Span.time sp "protocol.output_log" (fun () -> P.output_log t.node)

    let seq_bounds t =
      Span.switch sp "post";
      Span.time sp "protocol.seq_bounds" (fun () -> P.seq_bounds t.node)

    let stats t = Span.time sp "protocol.stats" (fun () -> P.stats t.node)
  end)

(* Transactions submitted inside [from_us, until_us] and never committed
   by any honest node, against all submitted in that interval. *)
let failures t ~from_us ~until_us =
  List.fold_left
    (fun (attempted, failed) id ->
      let at = Hashtbl.find t.submitted id in
      if at >= from_us && at <= until_us then
        (attempted + 1, if Hashtbl.mem t.committed id then failed else failed + 1)
      else (attempted, failed))
    (0, 0) t.submit_order
