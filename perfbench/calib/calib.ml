(* The host-speed kernel: a fixed piece of work that uses no code of this
   repository (hash-table inserts and lookups, list allocation and
   sorting, the kind of work the simulator does). run.py times it between
   repetitions and scales host times by it, because the shared machines
   this benchmark runs on slow down by up to 2x for minutes at a time.
   Its dune stanza links no repository library and sets its own flags,
   so no change to the repository can make it faster. It must never
   change: a changed kernel rescales every reported host time.

   Prints the median of three timed runs, in seconds. *)

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 49_999 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (i, float_of_int i)
  done;
  let acc = ref 0 in
  for i = 0 to 149_999 do
    match Hashtbl.find_opt h ((i * 31) land 0xFFFFF) with
    | Some (j, _) -> acc := !acc + j
    | None -> acc := !acc lxor i
  done;
  let l = List.init 50_000 (fun i -> (i * 1_103_515_245 + 12_345) land 0xFFFF) in
  List.fold_left ( + ) !acc (List.sort compare l)

let () =
  let xs =
    Array.init 3 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (kernel ()));
        Unix.gettimeofday () -. t0)
  in
  Array.sort Float.compare xs;
  Printf.printf "%.9f\n" xs.(1)
