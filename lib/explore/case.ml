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

(* Pompē commits in bursts farther apart than the monitor's stall
   budget even when healthy, so it only owes Commit_only. *)
let healthy_liveness protocol : Harness.Oracle.liveness_level =
  if String.equal protocol "pompe" then Harness.Oracle.Commit_only
  else Harness.Oracle.Full

(* Liveness is only *due* when nothing is scheduled to take the cluster
   down: fault plans legitimately stall progress, and the broken knobs
   void any liveness expectation. Perturbation delays are bounded by
   generation (well under the stall watchdog), so they do not disarm
   the check. *)
let liveness t : Harness.Oracle.liveness_level =
  if
    (not (Sim.Faults.is_none t.faults))
    || Option.is_some t.adversary
    || Knobs.is_broken ~protocol:t.protocol ~knob:t.knob
  then Harness.Oracle.Off
  else healthy_liveness t.protocol

(* Eclipse plans arm the per-victim oracles on their victims; the graded
   suite is unchanged for attack-free cases. *)
let check t result =
  Harness.Oracle.check
    ~victims:(Sim.Faults.eclipse_victims t.faults)
    ~liveness:(liveness t) result

(* ------------------------------------------------------------------ *)
(* Repro artifact: writer, reader and schema from one description.    *)
(* ------------------------------------------------------------------ *)

(* Version 2 added the attack vocabulary: eclipses / inflations inside
   "faults" and the top-level nullable "adversary". Version-1 artifacts
   (which predate all three) still load, with the new fields empty —
   the checked-in repro corpus must keep replaying. *)
let version = 2

module J = Metrics.Json

let node = J.(option int)

(* The description names shadow Sim.Faults' plan builders. *)
let plan =
  let open Sim.Faults in
  let open J in
  let loss =
    record (fun l_from_us l_until_us l_src l_dst l_drop_p l_dup_p ->
        { l_from_us; l_until_us; l_src; l_dst; l_drop_p; l_dup_p })
    |> mem "from_us" int (fun l -> l.l_from_us)
    |> mem "until_us" int (fun l -> l.l_until_us)
    |> mem "src" node (fun l -> l.l_src)
    |> mem "dst" node (fun l -> l.l_dst)
    |> mem "drop_p" float (fun l -> l.l_drop_p)
    |> mem "dup_p" float (fun l -> l.l_dup_p)
    |> seal
  in
  let partition =
    record (fun p_from_us p_heal_us p_island -> { p_from_us; p_heal_us; p_island })
    |> mem "from_us" int (fun p -> p.p_from_us)
    |> mem "heal_us" int (fun p -> p.p_heal_us)
    |> mem "island" (list int) (fun p -> p.p_island)
    |> seal
  in
  let crash =
    record (fun c_node c_at_us c_recover_us -> { c_node; c_at_us; c_recover_us })
    |> mem "node" int (fun c -> c.c_node)
    |> mem "at_us" int (fun c -> c.c_at_us)
    |> mem "recover_us" node (fun c -> c.c_recover_us)
    |> seal
  in
  let skew =
    record (fun node skew_us -> (node, skew_us))
    |> mem "node" int fst |> mem "skew_us" int snd |> seal
  in
  let eclipse =
    record (fun e_victim e_from_us e_until_us e_owned e_diverse e_delay_us ->
        { e_victim; e_from_us; e_until_us; e_owned; e_diverse; e_delay_us })
    |> mem "victim" int (fun e -> e.e_victim)
    |> mem "from_us" int (fun e -> e.e_from_us)
    |> mem "until_us" int (fun e -> e.e_until_us)
    |> mem "owned" (list int) (fun e -> e.e_owned)
    |> mem "diverse" (list int) (fun e -> e.e_diverse)
    |> mem "delay_us" node (fun e -> e.e_delay_us)
    |> seal
  in
  let inflation =
    record (fun d_from_us d_until_us d_a d_b d_extra_us ->
        { d_from_us; d_until_us; d_a; d_b; d_extra_us })
    |> mem "from_us" int (fun d -> d.d_from_us)
    |> mem "until_us" int (fun d -> d.d_until_us)
    |> mem "a" (list int) (fun d -> d.d_a)
    |> mem "b" (list int) (fun d -> d.d_b)
    |> mem "extra_us" int (fun d -> d.d_extra_us)
    |> seal
  in
  record (fun losses partitions crashes skews_us eclipses inflations ->
      { losses; partitions; crashes; skews_us; eclipses; inflations })
  |> mem "losses" (list loss) (fun p -> p.losses)
  |> mem "partitions" (list partition) (fun p -> p.partitions)
  |> mem "crashes" (list crash) (fun p -> p.crashes)
  |> mem "skews" (list skew) (fun p -> p.skews_us)
  |> mem "eclipses" ~default:[] (list eclipse) (fun p -> p.eclipses)
  |> mem "inflations" ~default:[] (list inflation) (fun p -> p.inflations)
  |> seal

let perturb_op =
  let open Sim.Perturb in
  let open J in
  let nth = function Delay_nth d -> d.nth | Delay_window _ | Reverse_window _ -> 0 in
  let extra_us = function
    | Delay_nth { extra_us; _ } | Delay_window { extra_us; _ } -> extra_us
    | Reverse_window _ -> 0
  in
  (* The two window ops share their first four members. *)
  let win f = function
    | Delay_window { from_us; until_us; src; dst; _ }
    | Reverse_window { from_us; until_us; src; dst } ->
        f from_us until_us src dst
    | Delay_nth _ -> f 0 0 None None
  in
  let window r =
    r
    |> mem "from_us" int (win (fun from _ _ _ -> from))
    |> mem "until_us" int (win (fun _ until _ _ -> until))
    |> mem "src" node (win (fun _ _ src _ -> src))
    |> mem "dst" node (win (fun _ _ _ dst -> dst))
  in
  tagged "op"
    (function
      | Delay_nth _ -> "delay-nth"
      | Delay_window _ -> "delay-window"
      | Reverse_window _ -> "reverse-window")
    [
      ( "delay-nth",
        record (fun nth extra_us -> Delay_nth { nth; extra_us })
        |> mem "nth" int nth |> mem "extra_us" int extra_us |> seal );
      ( "delay-window",
        record (fun from_us until_us src dst extra_us ->
            Delay_window { from_us; until_us; src; dst; extra_us })
        |> window |> mem "extra_us" int extra_us |> seal );
      ( "reverse-window",
        record (fun from_us until_us src dst -> Reverse_window { from_us; until_us; src; dst })
        |> window |> seal );
    ]

let adversary =
  let open Sim.Adversary in
  let open J in
  let gst = function Pre_gst { gst; _ } | Targeted { gst; _ } -> gst in
  let max_extra = function Pre_gst { max_extra; _ } | Targeted { max_extra; _ } -> max_extra in
  let bound r = r |> mem "gst_us" int gst |> mem "max_extra_us" int max_extra in
  tagged "kind"
    (function Pre_gst _ -> "pre-gst" | Targeted _ -> "targeted")
    [
      ("pre-gst", record (fun gst max_extra -> Pre_gst { gst; max_extra }) |> bound |> seal);
      ( "targeted",
        record (fun gst max_extra victims -> Targeted { gst; max_extra; victims })
        |> bound
        |> mem "victims" (list int) (function Targeted a -> a.victims | Pre_gst _ -> [])
        |> seal );
    ]

(* Fail on load, not deep inside a replay: an unknown knob, out-of-range
   nodes or inverted windows in a hand-edited artifact are user errors.
   [desc] checks the ranges of the scalar members. *)
let validate t =
  if Option.is_none (Knobs.make ~protocol:t.protocol ~knob:t.knob) then
    Error (Printf.sprintf "unknown knob %s/%s" t.protocol t.knob)
  else
    try
      Sim.Faults.validate t.faults ~n:t.n;
      Option.iter (fun a -> Sim.Adversary.validate a ~n:t.n) t.adversary;
      Sim.Perturb.validate t.perturb ~n:t.n;
      Ok t
    with Invalid_argument msg -> Error msg

let desc =
  let within ?(hi = max_int) lo =
    J.conv Fun.id
      (fun v ->
        if v < lo then Error (Printf.sprintf "%d is below %d" v lo)
        else if v > hi then Error (Printf.sprintf "%d is above %d" v hi)
        else Ok v)
      J.int
  in
  J.(
    record
      (fun _version protocol knob n seed duration_us clients faults adversary perturb ->
        { protocol; knob; n; seed; duration_us; clients; faults; adversary; perturb })
    |> mem "version" (within 1 ~hi:version) (fun _ -> version)
    |> mem "protocol" str (fun t -> t.protocol)
    |> mem "knob" str (fun t -> t.knob)
    |> mem "n" (within 1) (fun t -> t.n)
    |> mem "seed" (conv Int64.to_int (fun s -> Ok (Int64.of_int s)) int) (fun t -> t.seed)
    |> mem "duration_us" (within 1) (fun t -> t.duration_us)
    |> mem "clients" (within 0) (fun t -> t.clients)
    |> mem "faults" plan (fun t -> t.faults)
    |> mem "adversary" ~default:None (option adversary) (fun t -> t.adversary)
    |> mem "perturb" (list perturb_op) (fun t -> t.perturb)
    |> seal
    |> conv Fun.id validate)

let of_string s = Result.bind (J.of_string s) (J.read desc)
