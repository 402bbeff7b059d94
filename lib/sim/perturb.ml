(* Schedule perturbations are pure data, like fault plans: the engine
   seed fixes the unperturbed schedule, and a perturbation deterministically
   maps each wire message to an extra delay. No randomness lives here —
   the explorer draws its ops from its own RNG *outside* the run — so a
   perturbed run replays bit-for-bit and the empty perturbation leaves
   the event schedule untouched (not even an RNG split). *)

type op =
  | Delay_nth of { nth : int; extra_us : int }
  | Delay_window of {
      from_us : int;
      until_us : int;
      src : int option;
      dst : int option;
      extra_us : int;
    }
  | Reverse_window of {
      from_us : int;
      until_us : int;
      src : int option;
      dst : int option;
    }

type t = op list

let none = []

let is_none t = match t with [] -> true | _ :: _ -> false

let in_window ~now ~from_us ~until_us = now >= from_us && now < until_us

let endpoint_matches filter id =
  match filter with None -> true | Some wanted -> Int.equal wanted id

let extra_us t ~now ~src ~dst ~nth =
  List.fold_left
    (fun acc opn ->
      acc
      +
      match opn with
      | Delay_nth d -> if Int.equal d.nth nth then d.extra_us else 0
      | Delay_window w ->
          if
            in_window ~now ~from_us:w.from_us ~until_us:w.until_us
            && endpoint_matches w.src src && endpoint_matches w.dst dst
          then w.extra_us
          else 0
      | Reverse_window w ->
          (* Earlier messages in the window wait longer than later ones
             (2x the remaining window), which tends to flip their
             arrival order — a deterministic reordering knob that needs
             no per-message state. *)
          if
            in_window ~now ~from_us:w.from_us ~until_us:w.until_us
            && endpoint_matches w.src src && endpoint_matches w.dst dst
          then 2 * (w.until_us - now)
          else 0)
    0 t

let validate t ~n =
  let node ctx id =
    if id < 0 || id >= n then
      invalid_arg
        (Printf.sprintf "Perturb.validate: %s node %d out of [0,%d)" ctx id n)
  in
  let window ctx from_us until_us =
    if until_us <= from_us then
      invalid_arg
        (Printf.sprintf "Perturb.validate: %s window [%d,%d) is empty" ctx
           from_us until_us)
  in
  let extra ctx e =
    if e < 0 then
      invalid_arg (Printf.sprintf "Perturb.validate: %s delay %d negative" ctx e)
  in
  List.iter
    (fun opn ->
      match opn with
      | Delay_nth d ->
          if d.nth < 0 then invalid_arg "Perturb.validate: nth negative";
          extra "delay-nth" d.extra_us
      | Delay_window w ->
          window "delay" w.from_us w.until_us;
          extra "delay" w.extra_us;
          Option.iter (node "delay src") w.src;
          Option.iter (node "delay dst") w.dst
      | Reverse_window w ->
          window "reverse" w.from_us w.until_us;
          Option.iter (node "reverse src") w.src;
          Option.iter (node "reverse dst") w.dst)
    t
