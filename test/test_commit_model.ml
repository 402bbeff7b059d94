(* Model-based testing of Commit_state: random operation sequences are
   replayed against a naive reference implementation of Alg. 4
   lines 79–92, and every observable (locked, stable, committed, the
   set and order of committed entries) must agree. This pins down the
   incremental/caching optimizations (lazy prefix refresh, selection
   in place of a sort, sorted pending list) against the
   obviously-correct spec. *)

module Ref_model = struct
  type t = {
    n : int;
    f : int;
    r : int array;
    s : int array;
    mutable accepted : (Lyra.Types.iid * int) list;
    mutable taken : (Lyra.Types.iid * int) list;  (** commit order *)
    mutable noted_upto : int;  (** highest seq passed to [note] *)
  }

  let create ~n ~f =
    {
      n;
      f;
      r = Array.make n 0;
      s = Array.make n 0;
      accepted = [];
      taken = [];
      noted_upto = 0;
    }

  let peer_status t ~peer ~locked ~min_pending =
    t.r.(peer) <- max t.r.(peer) locked;
    t.s.(peer) <- min_pending

  let kth_highest a k =
    let sorted = Array.copy a in
    Array.sort (fun x y -> Int.compare y x) sorted;
    sorted.(k - 1)

  let locked t = kth_highest t.r ((2 * t.f) + 1)

  let stable t = min (locked t) (kth_highest t.s ((2 * t.f) + 1))

  let add_accepted t iid ~seq =
    if not (List.mem_assoc iid t.accepted) && not (List.mem_assoc iid t.taken)
    then t.accepted <- (iid, seq) :: t.accepted

  let committed t =
    let s = stable t in
    List.fold_left
      (fun acc (_, seq) -> if seq <= s then max acc seq else acc)
      (List.fold_left (fun acc (_, seq) -> max acc seq) t.noted_upto t.taken)
      t.accepted

  let take t =
    let boundary = committed t in
    let ready, rest =
      List.partition (fun (_, seq) -> seq <= boundary) t.accepted
    in
    let ready =
      List.sort
        (fun (i1, s1) (i2, s2) ->
          match Int.compare s1 s2 with
          | 0 -> Lyra.Types.iid_compare i1 i2
          | c -> c)
        ready
    in
    t.accepted <- rest;
    t.taken <- t.taken @ ready;
    ready

  (* A synced entry is committed at the given seq unless it already
     is; either way the boundary moves up to that seq. *)
  let note t iid ~seq =
    if not (List.mem_assoc iid t.taken) then begin
      t.accepted <- List.remove_assoc iid t.accepted;
      t.taken <- t.taken @ [ (iid, seq) ]
    end;
    t.noted_upto <- max t.noted_upto seq
end

type op =
  | Status of int * int * int  (** peer, locked, min_pending *)
  | Accept of int * int * int  (** proposer, index, seq *)
  | Take
  | Note of int * int * int  (** proposer, index, seq *)

let gen_ops n =
  let open QCheck.Gen in
  list_size (int_range 1 60)
    (frequency
       [
         ( 4,
           map3
             (fun p l m -> Status (p, l, m))
             (int_bound (n - 1))
             (int_bound 100_000) (int_bound 100_000) );
         ( 3,
           map3
             (fun p i s -> Accept (p, i, s))
             (int_bound (n - 1))
             (int_bound 20) (int_bound 100_000) );
         (2, return Take);
         ( 1,
           map3
             (fun p i s -> Note (p, i, s))
             (int_bound (n - 1))
             (int_bound 20) (int_bound 100_000) );
       ])

let print_op = function
  | Status (p, l, m) -> Printf.sprintf "Status(%d,%d,%d)" p l m
  | Accept (p, i, s) -> Printf.sprintf "Accept(%d/%d,%d)" p i s
  | Take -> "Take"
  | Note (p, i, s) -> Printf.sprintf "Note(%d/%d,%d)" p i s

let prop_matches_model n =
  QCheck.Test.make
    ~name:(Printf.sprintf "commit_state = reference model (n=%d)" n)
    ~count:200
    (QCheck.make (gen_ops n) ~print:(fun ops ->
         String.concat "; " (List.map print_op ops)))
    (fun ops ->
      let f = Dbft.Quorums.max_faulty n in
      let real = Lyra.Commit_state.create ~n ~f in
      let model = Ref_model.create ~n ~f in
      List.for_all
        (fun op ->
          (match op with
          | Status (peer, locked, min_pending) ->
              Lyra.Commit_state.peer_status real ~peer ~locked ~min_pending;
              Ref_model.peer_status model ~peer ~locked ~min_pending
          | Accept (proposer, index, seq) ->
              let iid = { Lyra.Types.proposer; index } in
              Lyra.Commit_state.add_accepted real iid ~seq;
              Ref_model.add_accepted model iid ~seq
          | Take ->
              let a = Lyra.Commit_state.take_committable real in
              let b = Ref_model.take model in
              if a <> b then failwith "take mismatch"
          | Note (proposer, index, seq) ->
              let iid = { Lyra.Types.proposer; index } in
              Lyra.Commit_state.note_committed real iid ~seq;
              Ref_model.note model iid ~seq);
          Lyra.Commit_state.locked real = Ref_model.locked model
          && Lyra.Commit_state.stable real = Ref_model.stable model
          && Lyra.Commit_state.committed real = Ref_model.committed model)
        ops)

(* The quorum thresholds at every cluster size, over long status runs
   in which min_pending also moves down. *)
let prop_quorum_thresholds =
  QCheck.Test.make ~name:"locked/stable = sort reference, n in [1,120]"
    ~count:200
    QCheck.(
      make
        Gen.(
          int_range 1 120 >>= fun n ->
          pair (return n)
            (list_size (int_range 1 200)
               (triple (int_bound (n - 1)) (int_bound 1_000) (int_bound 1_000)))))
    (fun (n, statuses) ->
      let f = Dbft.Quorums.max_faulty n in
      let real = Lyra.Commit_state.create ~n ~f in
      let model = Ref_model.create ~n ~f in
      List.for_all
        (fun (peer, locked, min_pending) ->
          Lyra.Commit_state.peer_status real ~peer ~locked ~min_pending;
          Ref_model.peer_status model ~peer ~locked ~min_pending;
          Lyra.Commit_state.locked real = Ref_model.locked model
          && Lyra.Commit_state.stable real = Ref_model.stable model)
        statuses)

(* Selection on its own, over every rank and arrays full of ties. *)
let prop_kth_largest =
  QCheck.Test.make ~name:"kth_largest = sort" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 8))
    (fun l ->
      let a = Array.of_list l in
      let before = Array.copy a in
      let sorted = Array.copy a in
      Array.sort (fun x y -> Int.compare y x) sorted;
      let scratch = Array.make (Array.length a) 0 in
      List.for_all
        (fun k -> Lyra.Order_stat.kth_largest ~scratch a k = sorted.(k))
        (List.init (Array.length a) Fun.id)
      && a = before)

(* The sync target and goal select in place, with the array as its own
   scratch: against copy-and-sort on every rank, over ties and the
   extreme ints. *)
let prop_kth_largest_in_place =
  let value =
    QCheck.Gen.(
      frequency
        [
          (4, int_range (-5) 5);
          (1, return min_int);
          (1, return max_int);
          (2, int);
        ])
  in
  QCheck.Test.make ~name:"kth_largest in place = copy and sort" ~count:300
    QCheck.(make ~print:Print.(list int) Gen.(list_size (int_range 1 40) value))
    (fun l ->
      let sorted = Array.of_list l in
      Array.sort (fun x y -> Int.compare y x) sorted;
      List.for_all
        (fun k ->
          let a = Array.of_list l in
          Lyra.Order_stat.kth_largest ~scratch:a a k = sorted.(k))
        (List.init (List.length l) Fun.id))

let suite =
  [
    QCheck_alcotest.to_alcotest (prop_matches_model 4);
    QCheck_alcotest.to_alcotest (prop_matches_model 7);
    QCheck_alcotest.to_alcotest (prop_matches_model 10);
    QCheck_alcotest.to_alcotest prop_quorum_thresholds;
    QCheck_alcotest.to_alcotest prop_kth_largest;
    QCheck_alcotest.to_alcotest prop_kth_largest_in_place;
  ]
