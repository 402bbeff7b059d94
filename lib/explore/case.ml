type t = {
  protocol : string;
  knob : string;
  n : int;
  seed : int64;
  duration_us : int;
  clients : int;
  faults : Sim.Faults.plan;
  adversary : Sim.Adversary.t option;
  perturb : Sim.Perturb.t;
}

let make ?(knob = "default") ?(n = 4) ?(seed = 1L) ?(duration_us = 1_500_000)
    ?(clients = 2) ?(faults = Sim.Faults.none) ?adversary
    ?(perturb = Sim.Perturb.none) protocol =
  { protocol; knob; n; seed; duration_us; clients; faults; adversary; perturb }

let label t =
  let extras =
    (if Sim.Faults.is_none t.faults then 0 else 1)
    + (if Option.is_none t.adversary then 0 else 1)
    + List.length t.perturb
  in
  Printf.sprintf "%s/%s n=%d seed=%Ld (%d perturbation op%s%s%s)" t.protocol
    t.knob t.n t.seed (List.length t.perturb)
    (if Int.equal (List.length t.perturb) 1 then "" else "s")
    (if Sim.Faults.is_none t.faults then "" else ", faulty")
    (match t.adversary with
    | None -> ""
    | Some a -> ", " ^ Sim.Adversary.label a)
  |> fun s -> if Int.equal extras 0 then s ^ " [clean schedule]" else s

let run t =
  match Knobs.make ~protocol:t.protocol ~knob:t.knob with
  | None ->
      invalid_arg
        (Printf.sprintf "Explore.Case.run: unknown knob %s/%s" t.protocol
           t.knob)
  | Some p ->
      Harness.Scenario.run ~seed:t.seed ~faults:t.faults
        ?adversary:t.adversary
        ~perturb:t.perturb p ~n:t.n
        ~load:(Harness.Scenario.Closed t.clients)
        ~duration_us:t.duration_us ()

(* Liveness is only *due* when nothing is scheduled to take the cluster
   down: fault plans legitimately stall progress, and the broken knobs
   void any liveness expectation. Perturbation delays are bounded by
   generation (well under the stall watchdog), so they do not disarm
   the check. Pompē commits in bursts farther apart than the monitor's
   stall budget even when healthy, so it only owes Commit_only. *)
let liveness t : Harness.Oracle.liveness_level =
  if
    (not (Sim.Faults.is_none t.faults))
    || Option.is_some t.adversary
    || Knobs.is_broken ~protocol:t.protocol ~knob:t.knob
  then Harness.Oracle.Off
  else if String.equal t.protocol "pompe" then Harness.Oracle.Commit_only
  else Harness.Oracle.Full

(* Eclipse plans arm the per-victim oracles on their victims; the graded
   suite is unchanged for attack-free cases. *)
let check t result =
  Harness.Oracle.check
    ~victims:(Sim.Faults.eclipse_victims t.faults)
    ~liveness:(liveness t) result

(* ------------------------------------------------------------------ *)
(* Repro-artifact serialization (Metrics.Json).                        *)
(* ------------------------------------------------------------------ *)

(* Version 2 added the attack vocabulary: eclipses / inflations inside
   "faults" and the top-level nullable "adversary". Version-1 artifacts
   (which predate all three) still load, with the new fields empty —
   the checked-in repro corpus must keep replaying. *)
let version = 2

let opt_int = function None -> Metrics.Json.Null | Some i -> Metrics.Json.Int i

let perturb_op_to_json (op : Sim.Perturb.op) =
  match op with
  | Sim.Perturb.Delay_nth d ->
      Metrics.Json.Obj
        [
          ("op", Metrics.Json.Str "delay-nth");
          ("nth", Metrics.Json.Int d.nth);
          ("extra_us", Metrics.Json.Int d.extra_us);
        ]
  | Sim.Perturb.Delay_window w ->
      Metrics.Json.Obj
        [
          ("op", Metrics.Json.Str "delay-window");
          ("from_us", Metrics.Json.Int w.from_us);
          ("until_us", Metrics.Json.Int w.until_us);
          ("src", opt_int w.src);
          ("dst", opt_int w.dst);
          ("extra_us", Metrics.Json.Int w.extra_us);
        ]
  | Sim.Perturb.Reverse_window w ->
      Metrics.Json.Obj
        [
          ("op", Metrics.Json.Str "reverse-window");
          ("from_us", Metrics.Json.Int w.from_us);
          ("until_us", Metrics.Json.Int w.until_us);
          ("src", opt_int w.src);
          ("dst", opt_int w.dst);
        ]

let faults_to_json (p : Sim.Faults.plan) =
  Metrics.Json.Obj
    [
      ( "losses",
        Metrics.Json.List
          (List.map
             (fun (l : Sim.Faults.loss_window) ->
               Metrics.Json.Obj
                 [
                   ("from_us", Metrics.Json.Int l.l_from_us);
                   ("until_us", Metrics.Json.Int l.l_until_us);
                   ("src", opt_int l.l_src);
                   ("dst", opt_int l.l_dst);
                   ("drop_p", Metrics.Json.num l.l_drop_p);
                   ("dup_p", Metrics.Json.num l.l_dup_p);
                 ])
             p.losses) );
      ( "partitions",
        Metrics.Json.List
          (List.map
             (fun (pt : Sim.Faults.partition) ->
               Metrics.Json.Obj
                 [
                   ("from_us", Metrics.Json.Int pt.p_from_us);
                   ("heal_us", Metrics.Json.Int pt.p_heal_us);
                   ( "island",
                     Metrics.Json.List
                       (List.map (fun i -> Metrics.Json.Int i) pt.p_island) );
                 ])
             p.partitions) );
      ( "crashes",
        Metrics.Json.List
          (List.map
             (fun (c : Sim.Faults.crash) ->
               Metrics.Json.Obj
                 [
                   ("node", Metrics.Json.Int c.c_node);
                   ("at_us", Metrics.Json.Int c.c_at_us);
                   ("recover_us", opt_int c.c_recover_us);
                 ])
             p.crashes) );
      ( "skews",
        Metrics.Json.List
          (List.map
             (fun (node, skew_us) ->
               Metrics.Json.Obj
                 [
                   ("node", Metrics.Json.Int node);
                   ("skew_us", Metrics.Json.Int skew_us);
                 ])
             p.skews_us) );
      ( "eclipses",
        Metrics.Json.List
          (List.map
             (fun (e : Sim.Faults.eclipse) ->
               Metrics.Json.Obj
                 [
                   ("victim", Metrics.Json.Int e.e_victim);
                   ("from_us", Metrics.Json.Int e.e_from_us);
                   ("until_us", Metrics.Json.Int e.e_until_us);
                   ( "owned",
                     Metrics.Json.List
                       (List.map (fun i -> Metrics.Json.Int i) e.e_owned) );
                   ( "diverse",
                     Metrics.Json.List
                       (List.map (fun i -> Metrics.Json.Int i) e.e_diverse) );
                   ("delay_us", opt_int e.e_delay_us);
                 ])
             p.eclipses) );
      ( "inflations",
        Metrics.Json.List
          (List.map
             (fun (d : Sim.Faults.delay_inflate) ->
               Metrics.Json.Obj
                 [
                   ("from_us", Metrics.Json.Int d.d_from_us);
                   ("until_us", Metrics.Json.Int d.d_until_us);
                   ( "a",
                     Metrics.Json.List
                       (List.map (fun i -> Metrics.Json.Int i) d.d_a) );
                   ( "b",
                     Metrics.Json.List
                       (List.map (fun i -> Metrics.Json.Int i) d.d_b) );
                   ("extra_us", Metrics.Json.Int d.d_extra_us);
                 ])
             p.inflations) );
    ]

let adversary_to_json = function
  | None -> Metrics.Json.Null
  | Some (Sim.Adversary.Pre_gst { gst; max_extra }) ->
      Metrics.Json.Obj
        [
          ("kind", Metrics.Json.Str "pre-gst");
          ("gst_us", Metrics.Json.Int gst);
          ("max_extra_us", Metrics.Json.Int max_extra);
        ]
  | Some (Sim.Adversary.Targeted { gst; max_extra; victims }) ->
      Metrics.Json.Obj
        [
          ("kind", Metrics.Json.Str "targeted");
          ("gst_us", Metrics.Json.Int gst);
          ("max_extra_us", Metrics.Json.Int max_extra);
          ( "victims",
            Metrics.Json.List (List.map (fun i -> Metrics.Json.Int i) victims)
          );
        ]

let to_json t =
  Metrics.Json.Obj
    [
      ("version", Metrics.Json.Int version);
      ("protocol", Metrics.Json.Str t.protocol);
      ("knob", Metrics.Json.Str t.knob);
      ("n", Metrics.Json.Int t.n);
      ("seed", Metrics.Json.Int (Int64.to_int t.seed));
      ("duration_us", Metrics.Json.Int t.duration_us);
      ("clients", Metrics.Json.Int t.clients);
      ("faults", faults_to_json t.faults);
      ("adversary", adversary_to_json t.adversary);
      ("perturb", Metrics.Json.List (List.map perturb_op_to_json t.perturb));
    ]

(* Hand-rolled result-typed parsing: the op objects are tagged unions,
   which the structural schema checker cannot express. *)
let ( let* ) r f = Result.bind r f

let field name v =
  match Metrics.Json.member name v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int name v =
  let* x = field name v in
  match x with
  | Metrics.Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S: expected int" name)

let as_str name v =
  let* x = field name v in
  match x with
  | Metrics.Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" name)

let as_num name v =
  let* x = field name v in
  match x with
  | Metrics.Json.Float f -> Ok f
  | Metrics.Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S: expected number" name)

let as_opt_int name v =
  let* x = field name v in
  match x with
  | Metrics.Json.Null -> Ok None
  | Metrics.Json.Int i -> Ok (Some i)
  | _ -> Error (Printf.sprintf "field %S: expected int or null" name)

let as_list name v =
  let* x = field name v in
  match x with
  | Metrics.Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "field %S: expected list" name)

(* Fields that version 1 did not have: absent reads as empty. *)
let as_list_default name v =
  match Metrics.Json.member name v with
  | None -> Ok []
  | Some (Metrics.Json.List l) -> Ok l
  | Some _ -> Error (Printf.sprintf "field %S: expected list" name)

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let as_int_list name v =
  let* l = as_list name v in
  map_result
    (function
      | Metrics.Json.Int i -> Ok i
      | _ -> Error (Printf.sprintf "field %S: expected int elements" name))
    l

let perturb_op_of_json v =
  let* op = as_str "op" v in
  match op with
  | "delay-nth" ->
      let* nth = as_int "nth" v in
      let* extra_us = as_int "extra_us" v in
      Ok (Sim.Perturb.Delay_nth { nth; extra_us })
  | "delay-window" ->
      let* from_us = as_int "from_us" v in
      let* until_us = as_int "until_us" v in
      let* src = as_opt_int "src" v in
      let* dst = as_opt_int "dst" v in
      let* extra_us = as_int "extra_us" v in
      Ok (Sim.Perturb.Delay_window { from_us; until_us; src; dst; extra_us })
  | "reverse-window" ->
      let* from_us = as_int "from_us" v in
      let* until_us = as_int "until_us" v in
      let* src = as_opt_int "src" v in
      let* dst = as_opt_int "dst" v in
      Ok (Sim.Perturb.Reverse_window { from_us; until_us; src; dst })
  | other -> Error (Printf.sprintf "unknown perturbation op %S" other)

let faults_of_json v =
  let* losses = as_list "losses" v in
  let* losses =
    map_result
      (fun l ->
        let* l_from_us = as_int "from_us" l in
        let* l_until_us = as_int "until_us" l in
        let* l_src = as_opt_int "src" l in
        let* l_dst = as_opt_int "dst" l in
        let* l_drop_p = as_num "drop_p" l in
        let* l_dup_p = as_num "dup_p" l in
        Ok
          {
            Sim.Faults.l_from_us;
            l_until_us;
            l_src;
            l_dst;
            l_drop_p;
            l_dup_p;
          })
      losses
  in
  let* partitions = as_list "partitions" v in
  let* partitions =
    map_result
      (fun p ->
        let* p_from_us = as_int "from_us" p in
        let* p_heal_us = as_int "heal_us" p in
        let* island = as_list "island" p in
        let* p_island =
          map_result
            (function
              | Metrics.Json.Int i -> Ok i
              | _ -> Error "island: expected int")
            island
        in
        Ok { Sim.Faults.p_from_us; p_heal_us; p_island })
      partitions
  in
  let* crashes = as_list "crashes" v in
  let* crashes =
    map_result
      (fun c ->
        let* c_node = as_int "node" c in
        let* c_at_us = as_int "at_us" c in
        let* c_recover_us = as_opt_int "recover_us" c in
        Ok { Sim.Faults.c_node; c_at_us; c_recover_us })
      crashes
  in
  let* skews = as_list "skews" v in
  let* skews_us =
    map_result
      (fun s ->
        let* node = as_int "node" s in
        let* skew_us = as_int "skew_us" s in
        Ok (node, skew_us))
      skews
  in
  let* eclipses = as_list_default "eclipses" v in
  let* eclipses =
    map_result
      (fun e ->
        let* e_victim = as_int "victim" e in
        let* e_from_us = as_int "from_us" e in
        let* e_until_us = as_int "until_us" e in
        let* e_owned = as_int_list "owned" e in
        let* e_diverse = as_int_list "diverse" e in
        let* e_delay_us = as_opt_int "delay_us" e in
        Ok
          {
            Sim.Faults.e_victim;
            e_from_us;
            e_until_us;
            e_owned;
            e_diverse;
            e_delay_us;
          })
      eclipses
  in
  let* inflations = as_list_default "inflations" v in
  let* inflations =
    map_result
      (fun d ->
        let* d_from_us = as_int "from_us" d in
        let* d_until_us = as_int "until_us" d in
        let* d_a = as_int_list "a" d in
        let* d_b = as_int_list "b" d in
        let* d_extra_us = as_int "extra_us" d in
        Ok { Sim.Faults.d_from_us; d_until_us; d_a; d_b; d_extra_us })
      inflations
  in
  Ok { Sim.Faults.losses; partitions; crashes; skews_us; eclipses; inflations }

let adversary_of_json v =
  match Metrics.Json.member "adversary" v with
  | None | Some Metrics.Json.Null -> Ok None
  | Some a -> (
      let* kind = as_str "kind" a in
      let* gst = as_int "gst_us" a in
      let* max_extra = as_int "max_extra_us" a in
      match kind with
      | "pre-gst" -> Ok (Some (Sim.Adversary.Pre_gst { gst; max_extra }))
      | "targeted" ->
          let* victims = as_int_list "victims" a in
          Ok (Some (Sim.Adversary.Targeted { gst; max_extra; victims }))
      | other -> Error (Printf.sprintf "unknown adversary kind %S" other))

let of_json v =
  let* version_read = as_int "version" v in
  if version_read < 1 || version_read > version then
    Error (Printf.sprintf "unsupported repro version %d" version_read)
  else
    let* protocol = as_str "protocol" v in
    let* knob = as_str "knob" v in
    let* n = as_int "n" v in
    let* seed = as_int "seed" v in
    let* duration_us = as_int "duration_us" v in
    let* clients = as_int "clients" v in
    let* faults_v = field "faults" v in
    let* faults = faults_of_json faults_v in
    let* adversary = adversary_of_json v in
    let* perturb_l = as_list "perturb" v in
    let* perturb = map_result perturb_op_of_json perturb_l in
    let t =
      {
        protocol;
        knob;
        n;
        seed = Int64.of_int seed;
        duration_us;
        clients;
        faults;
        adversary;
        perturb;
      }
    in
    (* Fail on load, not deep inside a replay: a hand-edited artifact
       with out-of-range nodes or inverted windows is a user error. *)
    (try
       Sim.Faults.validate t.faults ~n:t.n;
       Option.iter (fun a -> Sim.Adversary.validate a ~n:t.n) t.adversary;
       Sim.Perturb.validate t.perturb ~n:t.n;
       Ok t
     with Invalid_argument msg -> Error msg)

let to_string t = Metrics.Json.to_string (to_json t)

let of_string s =
  let* v = Metrics.Json.of_string s in
  of_json v
