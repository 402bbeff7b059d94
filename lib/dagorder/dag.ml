(* The order-invariant DAG core. Wave commits follow the Bullshark/
   DAG-rider shape (anchor per two rounds, quorum of next-round links
   as votes, deterministic back-walk for skipped anchors); the
   linearizer inside a committed wave follows Malkhi–Szalachowski:
   a batch is ordered once a quorum of nodes has reported first-seeing
   it, by (embed round, median reported receive time, key).

   Everything below is a function of the *set* of inserted vertices:
   per-creator report times fold with min (not first-write), candidate
   scans run over sorted bindings, and waves commit in ascending order
   — so any insertion order yields the same delivery sequence. *)

type vertex = {
  round : int;
  creator : int;
  refs : int list;
  weak : (int * int) list;
  batches : Lyra.Types.batch list;
  reports : (string * int) list;
}

type delivery = {
  batch : Lyra.Types.batch;
  embed_round : int;
  anchor_round : int;
  median_receive_us : int;
}

type t = {
  n : int;
  f : int;
  vertices : (int * int, vertex) Hashtbl.t;
  round_sizes : (int, int) Hashtbl.t;
  votes : (int, int) Hashtbl.t;  (* wave → round-(2w+1) links to anchor *)
  mutable max_q_round : int;
  mutable last_wave : int;
  (* committed-history state, all monotone in the committed prefix *)
  in_hist : (int * int, unit) Hashtbl.t;
  report_times : (string, (int, int) Hashtbl.t) Hashtbl.t;
      (* key → reporter → min reported first-receive µs *)
  pending_emit : (string, Lyra.Types.batch * int) Hashtbl.t;
  emitted : (string, unit) Hashtbl.t;
  mutable delivered_rev : delivery list;
  mutable delivered_count : int;
}

let create ~n ~f () =
  if n <= 0 || f < 0 || n < (3 * f) + 1 then
    invalid_arg "Dag.create: need n >= 3f+1 (f faults tolerated)";
  {
    n;
    f;
    vertices = Hashtbl.create 997;
    round_sizes = Hashtbl.create 97;
    votes = Hashtbl.create 97;
    max_q_round = -1;
    last_wave = -1;
    in_hist = Hashtbl.create 997;
    report_times = Hashtbl.create 997;
    pending_emit = Hashtbl.create 97;
    emitted = Hashtbl.create 997;
    delivered_rev = [];
    delivered_count = 0;
  }

let quorum t = t.n - t.f

let mem t ~round ~creator = Hashtbl.mem t.vertices (round, creator)

let find t ~round ~creator = Hashtbl.find_opt t.vertices (round, creator)

let round_size t round =
  match Hashtbl.find_opt t.round_sizes round with Some k -> k | None -> 0

let round_creators t round =
  List.filter
    (fun c -> Hashtbl.mem t.vertices (round, c))
    (List.init t.n (fun c -> c))

let max_quorum_round t = t.max_q_round

let anchor_creator t ~wave = wave mod t.n

let anchor_round ~wave = 2 * wave

let last_committed_wave t = t.last_wave

let delivered t = List.rev t.delivered_rev

let delivered_count t = t.delivered_count

let deferred t = Hashtbl.length t.pending_emit

let key_of_batch (b : Lyra.Types.batch) =
  Printf.sprintf "%d/%d" b.iid.Lyra.Types.proposer b.iid.Lyra.Types.index

(* Is [dst] in the causal history of [src]? Both present with full
   history (the insertion rule guarantees ancestors-before-children). *)
let reaches t ~(src : vertex) ~(dst : vertex) =
  let visited = Hashtbl.create 64 in
  let rec go r c =
    if r < dst.round then false
    else if Int.equal r dst.round then Int.equal c dst.creator
    else if Hashtbl.mem visited (r, c) then false
    else begin
      Hashtbl.replace visited (r, c) ();
      match find t ~round:r ~creator:c with
      | None -> false
      | Some v -> List.exists (fun p -> go (r - 1) p) v.refs
    end
  in
  go src.round src.creator

(* Fold a newly committed anchor's not-yet-seen causal history into
   the committed-state tables. Traversal order does not matter: report
   times fold with min and batch registration is idempotent. *)
let absorb_history t (a : vertex) =
  let rec visit r c =
    if not (Hashtbl.mem t.in_hist (r, c)) then begin
      Hashtbl.replace t.in_hist (r, c) ();
      match find t ~round:r ~creator:c with
      | None -> ()
      | Some v ->
          List.iter
            (fun (key, time) ->
              let tbl =
                match Hashtbl.find_opt t.report_times key with
                | Some tbl -> tbl
                | None ->
                    let tbl = Hashtbl.create 8 in
                    Hashtbl.replace t.report_times key tbl;
                    tbl
              in
              match Hashtbl.find_opt tbl v.creator with
              | Some t0 -> if time < t0 then Hashtbl.replace tbl v.creator time
              | None -> Hashtbl.replace tbl v.creator time)
            v.reports;
          List.iter
            (fun (b : Lyra.Types.batch) ->
              let key = key_of_batch b in
              if
                (not (Hashtbl.mem t.emitted key))
                && not (Hashtbl.mem t.pending_emit key)
              then Hashtbl.replace t.pending_emit key (b, v.round))
            v.batches;
          List.iter (fun p -> visit (r - 1) p) v.refs;
          List.iter (fun (wr, wc) -> visit wr wc) v.weak
    end
  in
  visit a.round a.creator

let median_report_us t key =
  match Hashtbl.find_opt t.report_times key with
  | None -> None
  | Some tbl ->
      let k = Hashtbl.length tbl in
      if k < quorum t then None
      else
        let times =
          Array.of_list
            (List.map snd (Sim.Det.sorted_bindings ~cmp:Int.compare tbl))
        in
        Array.sort Int.compare times;
        Some times.((k - 1) / 2)

(* Linearize everything the committed history now supports: embedded,
   unemitted batches holding a quorum of receive reports, by
   (embed round, median report time, key). *)
let drain_eligible t ~anchor_round =
  let eligible =
    List.filter_map
      (fun (key, (batch, embed_round)) ->
        match median_report_us t key with
        | Some med -> Some (embed_round, med, key, batch)
        | None -> None)
      (Sim.Det.sorted_bindings ~cmp:String.compare t.pending_emit)
  in
  let eligible =
    List.sort
      (fun (r1, m1, k1, _) (r2, m2, k2, _) ->
        let c = Int.compare r1 r2 in
        if c <> 0 then c
        else
          let c = Int.compare m1 m2 in
          if c <> 0 then c else String.compare k1 k2)
      eligible
  in
  List.map
    (fun (embed_round, median_receive_us, key, batch) ->
      Hashtbl.remove t.pending_emit key;
      Hashtbl.replace t.emitted key ();
      let d = { batch; embed_round; anchor_round; median_receive_us } in
      t.delivered_rev <- d :: t.delivered_rev;
      t.delivered_count <- t.delivered_count + 1;
      d)
    eligible

(* Direct commit of wave [w]: back-walk for skipped anchors below it
   (an anchor commits iff it is in the history of the closest later
   committed anchor — quorum intersection puts every directly committed
   anchor in the history of all vertices two or more rounds later, so
   every replica resolves skips identically), then absorb + linearize
   each committed anchor in ascending wave order. *)
let commit_wave t w anchor =
  let rec walk v cur acc =
    if v <= t.last_wave then acc
    else
      match find t ~round:(anchor_round ~wave:v) ~creator:(anchor_creator t ~wave:v) with
      | Some av when reaches t ~src:cur ~dst:av -> walk (v - 1) av (av :: acc)
      | _ -> walk (v - 1) cur acc
  in
  let anchors = walk (w - 1) anchor [ anchor ] in
  t.last_wave <- w;
  List.concat_map
    (fun (a : vertex) ->
      absorb_history t a;
      drain_eligible t ~anchor_round:a.round)
    anchors

(* A wave directly commits once ≥ quorum round-(2w+1) vertices link its
   anchor. Votes only ever grow, so scanning ascending from
   last_wave+1 after every insertion commits waves in the same order
   regardless of arrival order. *)
let try_commits t =
  let committable w =
    match Hashtbl.find_opt t.votes w with
    | Some k when k >= quorum t ->
        find t ~round:(anchor_round ~wave:w) ~creator:(anchor_creator t ~wave:w)
    | _ -> None
  in
  let max_wave = if t.max_q_round < 0 then -1 else t.max_q_round / 2 in
  let rec scan w acc =
    if w > max_wave then acc
    else
      match committable w with
      | Some anchor -> scan (w + 1) (acc @ commit_wave t w anchor)
      | None -> scan (w + 1) acc
  in
  scan (t.last_wave + 1) []

let compare_rc (r1, c1) (r2, c2) =
  let c = Int.compare r1 r2 in
  if c <> 0 then c else Int.compare c1 c2

let validate t (v : vertex) =
  if v.creator < 0 || v.creator >= t.n then
    invalid_arg "Dag.add: creator out of range";
  if v.round < 0 then invalid_arg "Dag.add: negative round";
  let refs = List.sort_uniq Int.compare v.refs in
  List.iter
    (fun p ->
      if p < 0 || p >= t.n then invalid_arg "Dag.add: ref out of range")
    refs;
  if Int.equal v.round 0 then begin
    if not (List.is_empty refs) then invalid_arg "Dag.add: round-0 refs"
  end
  else if List.length refs < quorum t then
    invalid_arg "Dag.add: fewer than quorum refs";
  let weak = List.sort_uniq compare_rc v.weak in
  List.iter
    (fun (r, c) ->
      if r < 0 || r >= v.round - 1 || c < 0 || c >= t.n then
        invalid_arg "Dag.add: weak link out of range")
    weak;
  { v with refs; weak }

let add t v =
  let v = validate t v in
  if mem t ~round:v.round ~creator:v.creator then `Duplicate
  else
    let missing =
      List.filter
        (fun (round, creator) -> not (mem t ~round ~creator))
        (List.map (fun p -> (v.round - 1, p)) v.refs @ v.weak)
    in
    if not (List.is_empty missing) then `Missing missing
    else begin
      Hashtbl.replace t.vertices (v.round, v.creator) v;
      let size = round_size t v.round + 1 in
      Hashtbl.replace t.round_sizes v.round size;
      if size >= quorum t && v.round > t.max_q_round then
        t.max_q_round <- v.round;
      (if Int.equal (v.round land 1) 1 then
         let w = v.round / 2 in
         let a = anchor_creator t ~wave:w in
         if List.exists (fun p -> Int.equal p a) v.refs then
           Hashtbl.replace t.votes w
             (1 + match Hashtbl.find_opt t.votes w with Some k -> k | None -> 0));
      `Added (try_commits t)
    end
