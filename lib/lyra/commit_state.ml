type t = {
  n : int;
  f : int;
  r : int array;  (** locked_j per peer (monotone) *)
  s : int array;  (** min_pending_j per peer *)
  accepted : int Types.Iid_tbl.t;
  mutable pending_commit : (int * Types.iid) list;  (** ascending (seq, iid) *)
  mutable committed_value : int;
  mutable taken_upto : int;  (** max seq actually appended to the log *)
  scratch : int array;  (** [quorum_low]'s selection buffer *)
  mutable prefix_dirty : bool;
  mutable locked_cache : int;
  mutable stable_cache : int;
}

let create ~n ~f =
  {
    n;
    f;
    r = Array.make n 0;
    s = Array.make n 0;
    accepted = Types.Iid_tbl.create 64;
    pending_commit = [];
    committed_value = 0;
    taken_upto = 0;
    scratch = Array.make n 0;
    prefix_dirty = true;
    locked_cache = 0;
    stable_cache = 0;
  }

let peer_status t ~peer ~locked ~min_pending =
  if peer < 0 || peer >= t.n then invalid_arg "Commit_state.peer_status";
  (* Most statuses repeat the last one; only a change can move the
     prefixes. *)
  let locked = max t.r.(peer) locked in
  if not (Int.equal locked t.r.(peer) && Int.equal min_pending t.s.(peer))
  then begin
    t.r.(peer) <- locked;
    t.s.(peer) <- min_pending;
    t.prefix_dirty <- true
  end

(* The (2f+1)-th highest entry of an array (index 2f, descending).
   With at most f Byzantine peers, at least f+1 of the 2f+1 highest
   are from correct processes, so the result is bounded by a correct
   process's report. *)
let quorum_low t a = Order_stat.kth_largest ~scratch:t.scratch a (2 * t.f)

(* locked/stable are recomputed lazily: statuses arrive with every
   message, but the prefixes are only needed when a commit is actually
   attempted. *)
let refresh t =
  if t.prefix_dirty then begin
    t.prefix_dirty <- false;
    t.locked_cache <- quorum_low t t.r;
    t.stable_cache <- min t.locked_cache (quorum_low t t.s)
  end

let locked t =
  refresh t;
  t.locked_cache

let stable t =
  refresh t;
  t.stable_cache

let entry_compare (s1, i1) (s2, i2) =
  match Int.compare s1 s2 with 0 -> Types.iid_compare i1 i2 | c -> c

let add_accepted t iid ~seq =
  if not (Types.Iid_tbl.mem t.accepted iid) then begin
    Types.Iid_tbl.replace t.accepted iid seq;
    let rec insert = function
      | [] -> [ (seq, iid) ]
      | x :: rest as l ->
          if entry_compare (seq, iid) x <= 0 then (seq, iid) :: l
          else x :: insert rest
    in
    t.pending_commit <- insert t.pending_commit
  end

let is_accepted t iid = Types.Iid_tbl.mem t.accepted iid

let committed t =
  let s = stable t in
  (* pending_commit is sorted ascending: stop at the first entry past
     the stable point. *)
  let rec walk acc = function
    | (seq, _) :: rest when seq <= s -> walk (max acc seq) rest
    | _ -> acc
  in
  walk t.committed_value t.pending_commit

let take_committable t =
  let boundary = committed t in
  t.committed_value <- max t.committed_value boundary;
  let rec split acc = function
    | (seq, iid) :: rest when seq <= boundary -> split ((iid, seq) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let taken, remaining = split [] t.pending_commit in
  t.pending_commit <- remaining;
  List.iter (fun (_, seq) -> t.taken_upto <- max t.taken_upto seq) taken;
  taken

let note_committed t iid ~seq =
  if not (Types.Iid_tbl.mem t.accepted iid) then
    Types.Iid_tbl.replace t.accepted iid seq;
  t.pending_commit <-
    List.filter (fun (_, i) -> not (Types.iid_equal i iid)) t.pending_commit;
  t.taken_upto <- max t.taken_upto seq;
  t.committed_value <- max t.committed_value seq

let taken_upto t = t.taken_upto

let lowest_untaken t =
  match t.pending_commit with (seq, _) :: _ -> seq | [] -> Types.no_pending

let accepted_recent t = List.map (fun (seq, iid) -> (iid, seq)) t.pending_commit

let accepted_count t = Types.Iid_tbl.length t.accepted
