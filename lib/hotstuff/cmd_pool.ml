type state = Queued | Taken | Committed

type 'cmd t = {
  state : (string, state) Hashtbl.t;
  queue : (string * 'cmd) Queue.t;
  mutable live : int;
}

let create () = { state = Hashtbl.create 256; queue = Queue.create (); live = 0 }

let live t = t.live

let queue_length t = Queue.length t.queue

let queued t id =
  match Hashtbl.find_opt t.state id with Some Queued -> true | _ -> false

(* Rebuild the queue without its committed entries once they
   outnumber the live ones: amortized O(1) per commit. *)
let compact t =
  if Queue.length t.queue - t.live > t.live then begin
    let keep = Queue.create () in
    Queue.iter (fun ((id, _) as e) -> if queued t id then Queue.push e keep) t.queue;
    Queue.clear t.queue;
    Queue.transfer keep t.queue
  end

let submit t id cmd =
  if Hashtbl.mem t.state id then false
  else begin
    Hashtbl.replace t.state id Queued;
    Queue.push (id, cmd) t.queue;
    t.live <- t.live + 1;
    true
  end

let commit t id =
  match Hashtbl.find_opt t.state id with
  | Some Committed -> false
  | Some Queued ->
      Hashtbl.replace t.state id Committed;
      t.live <- t.live - 1;
      compact t;
      true
  | Some Taken | None ->
      Hashtbl.replace t.state id Committed;
      true

let take t k =
  let rec go k acc =
    if k <= 0 || Queue.is_empty t.queue then acc
    else
      let ((id, _) as e) = Queue.pop t.queue in
      if queued t id then begin
        Hashtbl.replace t.state id Taken;
        t.live <- t.live - 1;
        go (k - 1) (e :: acc)
      end
      else go k acc
  in
  let taken = go k [] in
  compact t;
  taken
