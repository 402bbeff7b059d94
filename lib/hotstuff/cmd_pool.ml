module Int_tbl = Lyra.Types.Int_tbl

type state = Queued | Taken

(* Committed keys are not kept one by one. A key [index·n + lane]
   belongs to lane [key mod n] (one proposer), and proposers' batches
   commit roughly in index order, so each lane keeps a low watermark:
   every index below [floors.(lane)] is committed. Committed keys above
   their lane's watermark, and negative keys, sit in [above] until the
   watermark reaches them. *)
type 'cmd t = {
  n : int;
  state : state Int_tbl.t;  (** queued or taken, not committed *)
  queue : (int * 'cmd) Queue.t;
  mutable live : int;
  mutable floors : int array;  (** per lane, [||] until the first commit *)
  above : unit Int_tbl.t;
}

let create ~n =
  if n < 1 then invalid_arg "Cmd_pool.create: n < 1";
  {
    n;
    state = Int_tbl.create 256;
    queue = Queue.create ();
    live = 0;
    floors = [||];
    above = Int_tbl.create 1;
  }

let live t = t.live

let queue_length t = Queue.length t.queue

let sparse_committed t = Int_tbl.length t.above

let committed t key =
  (key >= 0
  && Array.length t.floors > 0
  && key / t.n < t.floors.(key mod t.n))
  || Int_tbl.mem t.above key

(* Records [key] as committed; it was not. *)
let mark_committed t key =
  if key < 0 then Int_tbl.replace t.above key ()
  else begin
    if Array.length t.floors = 0 then t.floors <- Array.make t.n 0;
    let lane = key mod t.n in
    if key / t.n > t.floors.(lane) then Int_tbl.replace t.above key ()
    else begin
      (* [key] is the lane's lowest uncommitted index: raise the
         watermark past it and past the committed keys above it. *)
      let rec advance floor =
        let next = (floor * t.n) + lane in
        if Int_tbl.mem t.above next then begin
          Int_tbl.remove t.above next;
          advance (floor + 1)
        end
        else t.floors.(lane) <- floor
      in
      advance (t.floors.(lane) + 1)
    end
  end

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
  if Int_tbl.mem t.state key || committed t key then false
  else begin
    Int_tbl.replace t.state key Queued;
    Queue.push (key, cmd) t.queue;
    t.live <- t.live + 1;
    true
  end

let commit t key =
  if committed t key then false
  else begin
    (match Int_tbl.find_opt t.state key with
    | Some Queued ->
        Int_tbl.remove t.state key;
        t.live <- t.live - 1;
        compact t
    | Some Taken -> Int_tbl.remove t.state key
    | None -> ());
    mark_committed t key;
    true
  end

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
