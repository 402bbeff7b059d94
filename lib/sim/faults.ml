type loss_window = {
  l_from_us : int;
  l_until_us : int;
  l_src : int option;
  l_dst : int option;
  l_drop_p : float;
  l_dup_p : float;
}

type partition = { p_from_us : int; p_heal_us : int; p_island : int list }

type crash = { c_node : int; c_at_us : int; c_recover_us : int option }

type eclipse = {
  e_victim : int;
  e_from_us : int;
  e_until_us : int;
  e_owned : int list;
  e_diverse : int list;
  e_delay_us : int option;
}

type delay_inflate = {
  d_from_us : int;
  d_until_us : int;
  d_a : int list;
  d_b : int list;
  d_extra_us : int;
}

type plan = {
  losses : loss_window list;
  partitions : partition list;
  crashes : crash list;
  skews_us : (int * int) list;
  eclipses : eclipse list;
  inflations : delay_inflate list;
}

let none =
  {
    losses = [];
    partitions = [];
    crashes = [];
    skews_us = [];
    eclipses = [];
    inflations = [];
  }

let is_none p =
  match
    (p.losses, p.partitions, p.crashes, p.skews_us, p.eclipses, p.inflations)
  with
  | [], [], [], [], [], [] -> true
  | _ -> false

(* Elements are appended so a plan reads top-to-bottom in the order it
   was built; queries don't depend on the order. *)
let loss ?src ?dst ?(dup_p = 0.0) ~from_us ~until_us ~drop_p plan =
  let w =
    {
      l_from_us = from_us;
      l_until_us = until_us;
      l_src = src;
      l_dst = dst;
      l_drop_p = drop_p;
      l_dup_p = dup_p;
    }
  in
  { plan with losses = plan.losses @ [ w ] }

let partition ~from_us ~heal_us ~island plan =
  let p = { p_from_us = from_us; p_heal_us = heal_us; p_island = island } in
  { plan with partitions = plan.partitions @ [ p ] }

let crash ?recover_us ~node ~at_us plan =
  let c = { c_node = node; c_at_us = at_us; c_recover_us = recover_us } in
  { plan with crashes = plan.crashes @ [ c ] }

let skew ~node ~skew_us plan =
  { plan with skews_us = plan.skews_us @ [ (node, skew_us) ] }

let eclipse ?(diverse = []) ?delay_us ~victim ~from_us ~until_us ~owned plan =
  let e =
    {
      e_victim = victim;
      e_from_us = from_us;
      e_until_us = until_us;
      e_owned = owned;
      e_diverse = diverse;
      e_delay_us = delay_us;
    }
  in
  { plan with eclipses = plan.eclipses @ [ e ] }

let delay_inflate ~from_us ~until_us ~a ~b ~extra_us plan =
  let d =
    {
      d_from_us = from_us;
      d_until_us = until_us;
      d_a = a;
      d_b = b;
      d_extra_us = extra_us;
    }
  in
  { plan with inflations = plan.inflations @ [ d ] }

let island_of_regions ~n regions =
  let placement = Regions.paper_placement n in
  List.filter
    (fun i -> List.exists (fun r -> Regions.equal r placement.(i)) regions)
    (List.init n (fun i -> i))

(* BGP-hijack vocabulary: the hijacked route sits between two regions;
   resolve them to node sets at build time so the plan stays pure data
   and the per-message query needs no region lookup. *)
let delay_inflate_regions ~n ~from_us ~until_us ~between:(ra, rb) ~extra_us plan
    =
  delay_inflate ~from_us ~until_us
    ~a:(island_of_regions ~n [ ra ])
    ~b:(island_of_regions ~n [ rb ])
    ~extra_us plan

let validate plan ~n =
  let node ctx id =
    if id < 0 || id >= n then
      invalid_arg (Printf.sprintf "Faults.validate: %s node %d out of [0,%d)" ctx id n)
  in
  let prob ctx p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Faults.validate: %s probability %g outside [0,1]" ctx p)
  in
  let window ctx from_us until_us =
    if until_us <= from_us then
      invalid_arg
        (Printf.sprintf "Faults.validate: %s window [%d,%d) is empty" ctx from_us until_us)
  in
  List.iter
    (fun w ->
      window "loss" w.l_from_us w.l_until_us;
      prob "drop" w.l_drop_p;
      prob "dup" w.l_dup_p;
      Option.iter (node "loss src") w.l_src;
      Option.iter (node "loss dst") w.l_dst)
    plan.losses;
  List.iter
    (fun p ->
      window "partition" p.p_from_us p.p_heal_us;
      if p.p_island = [] then invalid_arg "Faults.validate: empty partition island";
      List.iter (node "partition") p.p_island)
    plan.partitions;
  List.iter
    (fun c ->
      node "crash" c.c_node;
      if c.c_at_us < 0 then invalid_arg "Faults.validate: crash time negative";
      Option.iter
        (fun r ->
          if r <= c.c_at_us then
            invalid_arg "Faults.validate: recovery not after crash")
        c.c_recover_us)
    plan.crashes;
  List.iter (fun (id, _) -> node "skew" id) plan.skews_us;
  List.iter
    (fun e ->
      window "eclipse" e.e_from_us e.e_until_us;
      node "eclipse victim" e.e_victim;
      List.iter (node "eclipse owned") e.e_owned;
      List.iter (node "eclipse diverse") e.e_diverse;
      if List.exists (Int.equal e.e_victim) e.e_owned then
        invalid_arg "Faults.validate: eclipse victim cannot own its own link";
      if List.exists (Int.equal e.e_victim) e.e_diverse then
        invalid_arg "Faults.validate: eclipse victim listed as its own peer";
      if
        List.exists
          (fun o -> List.exists (Int.equal o) e.e_diverse)
          e.e_owned
      then
        invalid_arg
          "Faults.validate: eclipse claims a link declared diverse \
           (netgroup-diverse links cannot be owned)";
      Option.iter
        (fun d ->
          if d < 0 then invalid_arg "Faults.validate: eclipse delay negative")
        e.e_delay_us)
    plan.eclipses;
  List.iter
    (fun d ->
      window "delay-inflate" d.d_from_us d.d_until_us;
      List.iter (node "delay-inflate a") d.d_a;
      List.iter (node "delay-inflate b") d.d_b;
      if d.d_extra_us < 0 then
        invalid_arg "Faults.validate: delay inflation negative";
      if
        List.exists (fun x -> List.exists (Int.equal x) d.d_b) d.d_a
      then
        invalid_arg
          "Faults.validate: delay-inflate endpoint sets must be disjoint")
    plan.inflations

let in_window ~now ~from_us ~until_us = now >= from_us && now < until_us

let endpoint_matches filter id =
  match filter with None -> true | Some wanted -> Int.equal wanted id

(* The per-message queries below run on every wired message. They are
   written as direct recursions, so an empty list returns at once and
   no closure or accumulator tuple is built per call. *)

let rec mem_int x = function [] -> false | y :: rest -> Int.equal x y || mem_int x rest

let loss_matches w ~now ~src ~dst =
  in_window ~now ~from_us:w.l_from_us ~until_us:w.l_until_us
  && endpoint_matches w.l_src src
  && endpoint_matches w.l_dst dst

(* Overlapping windows compose as independent trials: the message
   survives only if it survives every active window. The drop and the
   duplicate probability each take one pass over the loss list. The
   running product is a local unboxed float; a message no window
   matches gets the literal [0.0], which is not allocated. *)
let loss_p ~dup plan ~now ~src ~dst =
  let keep = ref 1.0 and matched = ref false and ws = ref plan.losses in
  while
    match !ws with
    | [] -> false
    | w :: rest ->
        if loss_matches w ~now ~src ~dst then begin
          matched := true;
          keep := !keep *. (1.0 -. if dup then w.l_dup_p else w.l_drop_p)
        end;
        ws := rest;
        true
  do
    ()
  done;
  if !matched then 1.0 -. !keep else 0.0

let drop_prob plan ~now ~src ~dst = loss_p ~dup:false plan ~now ~src ~dst

let dup_prob plan ~now ~src ~dst = loss_p ~dup:true plan ~now ~src ~dst

let rec cut_by ps ~now ~src ~dst =
  match ps with
  | [] -> false
  | p :: rest ->
      (in_window ~now ~from_us:p.p_from_us ~until_us:p.p_heal_us
      && not (Bool.equal (mem_int src p.p_island) (mem_int dst p.p_island)))
      || cut_by rest ~now ~src ~dst

let partitioned plan ~now ~src ~dst = cut_by plan.partitions ~now ~src ~dst

let skew_us plan id =
  List.fold_left
    (fun acc (node, s) -> if Int.equal node id then acc + s else acc)
    0 plan.skews_us

type link_fate = Link_up | Link_cut | Link_delayed of int

(* A link falls to an eclipse when one endpoint is the victim and the
   other is an owned peer. A cut anywhere wins over delays; delays from
   several overlapping eclipses stack. Deliberately RNG-free: eclipse
   is a deterministic adversary move, so attack-free runs (and the
   conditional fault-RNG split) keep the exact golden event sequence. *)
let claims e peer other = Int.equal peer e.e_victim && mem_int other e.e_owned

let rec fate_of es fate ~now ~src ~dst =
  match (es, fate) with
  | [], _ | _, Link_cut -> fate
  | e :: rest, (Link_up | Link_delayed _) ->
      let fate =
        if
          in_window ~now ~from_us:e.e_from_us ~until_us:e.e_until_us
          && (claims e src dst || claims e dst src)
        then
          match e.e_delay_us with
          | None -> Link_cut
          | Some d -> Link_delayed (d + match fate with Link_delayed p -> p | _ -> 0)
        else fate
      in
      fate_of rest fate ~now ~src ~dst

let eclipse_fate plan ~now ~src ~dst = fate_of plan.eclipses Link_up ~now ~src ~dst

(* Extra one-way delay from active region-pair inflations; directions
   are symmetric and overlapping entries stack. *)
let rec inflation_of ds acc ~now ~src ~dst =
  match ds with
  | [] -> acc
  | d :: rest ->
      let acc =
        if
          in_window ~now ~from_us:d.d_from_us ~until_us:d.d_until_us
          && ((mem_int src d.d_a && mem_int dst d.d_b)
             || (mem_int src d.d_b && mem_int dst d.d_a))
        then acc + d.d_extra_us
        else acc
      in
      inflation_of rest acc ~now ~src ~dst

let inflation_us plan ~now ~src ~dst = inflation_of plan.inflations 0 ~now ~src ~dst

let eclipse_victims plan =
  List.sort_uniq Int.compare (List.map (fun e -> e.e_victim) plan.eclipses)

let active plan ~now =
  let losses =
    List.filter_map
      (fun w ->
        if in_window ~now ~from_us:w.l_from_us ~until_us:w.l_until_us then
          Some
            (Printf.sprintf "loss[%d,%d)p=%g%s" w.l_from_us w.l_until_us
               w.l_drop_p
               (if w.l_dup_p > 0.0 then Printf.sprintf " dup=%g" w.l_dup_p
                else ""))
        else None)
      plan.losses
  in
  let partitions =
    List.filter_map
      (fun p ->
        if in_window ~now ~from_us:p.p_from_us ~until_us:p.p_heal_us then
          Some
            (Printf.sprintf "partition[%d,%d){%s}" p.p_from_us p.p_heal_us
               (String.concat "," (List.map string_of_int p.p_island)))
        else None)
      plan.partitions
  in
  let crashes =
    List.filter_map
      (fun c ->
        let live =
          now >= c.c_at_us
          && match c.c_recover_us with None -> true | Some r -> now < r
        in
        if live then
          Some
            (match c.c_recover_us with
            | None -> Printf.sprintf "crash(n%d@%d)" c.c_node c.c_at_us
            | Some r -> Printf.sprintf "crash(n%d@%d..%d)" c.c_node c.c_at_us r)
        else None)
      plan.crashes
  in
  let eclipses =
    List.filter_map
      (fun e ->
        if in_window ~now ~from_us:e.e_from_us ~until_us:e.e_until_us then
          Some
            (Printf.sprintf "eclipse(n%d owned=%d diverse=%d%s)[%d,%d)"
               e.e_victim (List.length e.e_owned) (List.length e.e_diverse)
               (match e.e_delay_us with
               | None -> ""
               | Some d -> Printf.sprintf " delay=%dus" d)
               e.e_from_us e.e_until_us)
        else None)
      plan.eclipses
  in
  let inflations =
    List.filter_map
      (fun d ->
        if in_window ~now ~from_us:d.d_from_us ~until_us:d.d_until_us then
          Some
            (Printf.sprintf "inflate(+%dus %s|%s)[%d,%d)" d.d_extra_us
               (String.concat "," (List.map string_of_int d.d_a))
               (String.concat "," (List.map string_of_int d.d_b))
               d.d_from_us d.d_until_us)
        else None)
      plan.inflations
  in
  losses @ partitions @ crashes @ eclipses @ inflations
