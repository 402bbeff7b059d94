(* Per-batch milestone tracker feeding a fixed, ordered set of named
   phase-latency recorders.

   A node declares its spans as (label, from, to) milestone triples.
   Milestones are ordered by first appearance in that list: [start]
   stamps the first, and stamping the last closes the entry. Stamping
   a milestone records every span that ends there and whose start was
   stamped, in declared order. The label set is fixed at creation so
   every node of a protocol reports the same phases in the same order,
   which lets the harness aggregate across nodes by position as well as
   by name. *)

type t = {
  labels : string array;
  recs : Recorder.t array;
  milestones : string array;
  from_ms : int array;  (** per span, its start milestone *)
  to_ms : int array;  (** per span, its end milestone *)
  entries : (int, int array) Hashtbl.t;  (** key → µs per milestone; -1 = not yet *)
}

let index_of milestones name =
  let rec go i =
    if i >= Array.length milestones then invalid_arg ("Phases: unknown milestone " ^ name)
    else if String.equal milestones.(i) name then i
    else go (i + 1)
  in
  go 0

let create spans =
  let add acc m = if List.exists (String.equal m) acc then acc else acc @ [ m ] in
  let milestones =
    Array.of_list (List.fold_left (fun acc (_, a, b) -> add (add acc a) b) [] spans)
  in
  if Array.length milestones = 0 then invalid_arg "Phases.create: no spans";
  let spans = Array.of_list spans in
  {
    labels = Array.map (fun (l, _, _) -> l) spans;
    recs = Array.map (fun _ -> Recorder.create ()) spans;
    milestones;
    from_ms = Array.map (fun (_, a, _) -> index_of milestones a) spans;
    to_ms = Array.map (fun (_, _, b) -> index_of milestones b) spans;
    entries = Hashtbl.create 16;
  }

let start t ~key ~now =
  let e = Array.make (Array.length t.milestones) (-1) in
  e.(0) <- now;
  Hashtbl.replace t.entries key e

(* Spans are stamped in engine µs but recorded in ms, matching every
   other latency recorder in the repo. *)
let stamp t ~key name ~now =
  let m = index_of t.milestones name in
  match Hashtbl.find_opt t.entries key with
  | Some e when e.(m) < 0 ->
      e.(m) <- now;
      for s = 0 to Array.length t.to_ms - 1 do
        let from_us = e.(t.from_ms.(s)) in
        if Int.equal t.to_ms.(s) m && from_us >= 0 then
          Recorder.record t.recs.(s) (float_of_int (now - from_us) /. 1000.0)
      done;
      if Int.equal m (Array.length t.milestones - 1) then Hashtbl.remove t.entries key
  | _ -> ()

let drop t ~key = Hashtbl.remove t.entries key

let open_keys t =
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [])

let pairs t =
  Array.to_list (Array.mapi (fun i l -> (l, t.recs.(i))) t.labels)
