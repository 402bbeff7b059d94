module Int_tbl = Lyra.Types.Int_tbl

type state = Queued | Taken | Committed

type 'cmd t = {
  state : state Int_tbl.t;
  queue : (int * 'cmd) Queue.t;
  mutable live : int;
}

let create () = { state = Int_tbl.create 256; queue = Queue.create (); live = 0 }

let live t = t.live

let queue_length t = Queue.length t.queue

let queued t key =
  match Int_tbl.find_opt t.state key with Some Queued -> true | _ -> false

(* Rebuild the queue without its committed entries once they
   outnumber the live ones: amortized O(1) per commit. *)
let compact t =
  if Queue.length t.queue - t.live > t.live then begin
    let keep = Queue.create () in
    Queue.iter (fun ((key, _) as e) -> if queued t key then Queue.push e keep) t.queue;
    Queue.clear t.queue;
    Queue.transfer keep t.queue
  end

let submit t key cmd =
  if Int_tbl.mem t.state key then false
  else begin
    Int_tbl.replace t.state key Queued;
    Queue.push (key, cmd) t.queue;
    t.live <- t.live + 1;
    true
  end

let commit t key =
  match Int_tbl.find_opt t.state key with
  | Some Committed -> false
  | Some Queued ->
      Int_tbl.replace t.state key Committed;
      t.live <- t.live - 1;
      compact t;
      true
  | Some Taken | None ->
      Int_tbl.replace t.state key Committed;
      true

let take t k =
  let rec go k acc =
    if k <= 0 || Queue.is_empty t.queue then acc
    else
      let key, cmd = Queue.pop t.queue in
      if queued t key then begin
        Int_tbl.replace t.state key Taken;
        t.live <- t.live - 1;
        go (k - 1) (cmd :: acc)
      end
      else go k acc
  in
  let taken = go k [] in
  compact t;
  taken
