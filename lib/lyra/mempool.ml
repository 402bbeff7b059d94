type t = {
  engine : Sim.Engine.t;
  node : int;
  prefix : string;
  queue : Types.tx Queue.t;  (** oldest at the front *)
  mutable counter : int;
  mutable timer_armed : bool;
}

let create engine ~node ~prefix =
  {
    engine;
    node;
    prefix;
    queue = Queue.create ();
    counter = 0;
    timer_armed = false;
  }

let tx t ~prefix ~payload =
  t.counter <- t.counter + 1;
  {
    Types.tx_id = Printf.sprintf "%s%d-%d" prefix t.node t.counter;
    payload;
    submitted_at = Sim.Engine.now t.engine;
    origin = t.node;
  }

let add t ~payload =
  let tx = tx t ~prefix:t.prefix ~payload in
  Queue.push tx t.queue;
  tx.Types.tx_id

let length t = Queue.length t.queue

let take t k =
  let rec go k acc =
    if k <= 0 || Queue.is_empty t.queue then List.rev acc
    else go (k - 1) (Queue.pop t.queue :: acc)
  in
  go k []

let requeue t txs = List.iter (fun tx -> Queue.push tx t.queue) txs

let rec flush t ~batch_size ~timeout_us ~ready ~propose =
  if ready () then
    if Queue.length t.queue >= batch_size then begin
      propose (take t batch_size);
      flush t ~batch_size ~timeout_us ~ready ~propose
    end
    else if (not (Queue.is_empty t.queue)) && not t.timer_armed then begin
      t.timer_armed <- true;
      Sim.Engine.schedule t.engine ~delay:timeout_us (fun () ->
          t.timer_armed <- false;
          (* Not ready (crashed, or the inflight window is full):
             hold the transactions for the next flush. *)
          if (not (Queue.is_empty t.queue)) && ready () then
            propose (take t (Queue.length t.queue));
          flush t ~batch_size ~timeout_us ~ready ~propose)
    end
