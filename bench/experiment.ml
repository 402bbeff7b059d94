(* The bench's experiment framework: column lists that yield a text
   table, JSON rows and their schema at once; guards; the tracked
   scenario runner whose every row is guarded; and the driver that runs
   an experiment, prints it, writes and re-validates its
   BENCH_<NAME>.json artifact and checks its guards. *)

module J = Metrics.Json
module Scenario = Harness.Scenario

let smoke = ref false

(* Wall-clock time of the *host* machine, used only to report how long
   each experiment takes to run and to measure simulator events/sec. It
   never feeds simulated time, seeds or results — everything observable
   in the paper figures derives from Sim.Engine.now — so this is exempt
   from determinism rule D002.
   lint: allow D002 *)
let now_wall () = Unix.gettimeofday ()

(* Peak resident set (VmHWM, kB) from /proc/self/status; 0 where the
   proc filesystem is unavailable. Reported, never fed back into any
   simulation. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> kb)
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

(* ------------------------------------------------------------------ *)
(* Columns: one list per row type yields the text table, the JSON rows *)
(* and their schema, so the three cannot drift.                        *)
(* ------------------------------------------------------------------ *)

type 'r col = {
  field : 'r J.field option;  (** the row object's JSON field *)
  cell : (string * ('r -> string)) option;  (** text header, formatter *)
}

(* [both key head d fmt get]: JSON field [key] and text column [head]
   read the same getter. *)
let both key head d fmt get =
  { field = Some (J.field key d get); cell = Some (head, fun r -> fmt (get r)) }

let json key d get = { field = Some (J.field key d get); cell = None }

let text head cell = { field = None; cell = Some (head, cell) }

let row_desc cols = J.obj (List.filter_map (fun c -> c.field) cols)

(* An artifact field holding one object per row. *)
let rows key cols get = J.field key (J.list (row_desc cols)) get

let render title header rows =
  Printf.sprintf "\n== %s ==\n%s" title (Metrics.Table.render ~header rows)

let table title cols rows =
  let cells = List.filter_map (fun c -> c.cell) cols in
  render title (List.map fst cells)
    (List.map (fun r -> List.map (fun (_, f) -> f r) cells) rows)

(* The same columns turned sideways: one line per column, one cell per
   row, the first column's cells heading the rows. *)
let sideways title cols rows =
  match List.filter_map (fun c -> c.cell) cols with
  | [] -> ""
  | (head, label) :: cells ->
      render title
        (head :: List.map label rows)
        (List.map (fun (h, f) -> h :: List.map f rows) cells)

let f0 = Printf.sprintf "%.0f"

let f1 = Printf.sprintf "%.1f"

let f2 = Printf.sprintf "%.2f"

let f3 = Printf.sprintf "%.3f"

(* A ratio against a row that committed nothing is inf or nan: "-". *)
let ratio2 x = if Float.is_finite x then f2 x else "-"

let istr = string_of_int

let nnum = J.nullable J.float

(* ------------------------------------------------------------------ *)
(* Scale: what --smoke shrinks, and the rows most experiments share.   *)
(* ------------------------------------------------------------------ *)

let fig_ns () = if !smoke then [ 4 ] else [ 5; 10; 16; 31; 61; 100 ]

(* The measurement window of a [protocol] row: [full] in full mode; at
   smoke scale 0.6 s plus the protocol's stretch past its closed-loop
   turnaround. Clients start (and first submit) before the window
   opens, so only a *second* closed-loop turn can be measured: Lyra's
   and the DAG's land within ~2 s of the window opening, the
   leader-based pipelines' only after ~5.4 s (Pompe). Simulated seconds
   at n=4 are nearly free in wall-clock terms. *)
let window protocol full =
  if not !smoke then full
  else
    600_000
    + match protocol with "lyra" | "dag" -> 1_400_000 | _ -> 5_400_000

let scale_trials k = if !smoke then 1 else k

(* In smoke mode take only the first two points of a sweep. *)
let sweep xs = if !smoke then List.filteri (fun i _ -> i < 2) xs else xs

let small_n n = if !smoke then 4 else n

let pct p r =
  if Metrics.Recorder.is_empty r then Float.nan
  else Metrics.Recorder.percentile p r

let mean_ms (r : Scenario.result) = Metrics.Recorder.mean r.latency_ms

(* Rows labelled by their sweep point or setting. *)
type labelled = string * Scenario.result

let res ((_, r) : labelled) = r

(* The n a sweep actually ran at, for its title. *)
let n_of = function x :: _ -> (res x).n | [] -> 0

let c_tps : labelled col = text "tx/s" (fun x -> f0 (res x).throughput_tps)

let c_latency : labelled col = text "latency ms" (fun x -> f0 (mean_ms (res x)))

let c_accept : labelled col = text "accept rate" (fun x -> f3 (res x).accept_rate)

(* ------------------------------------------------------------------ *)
(* Experiments, guards and the driver.                                 *)
(* ------------------------------------------------------------------ *)

(* A claim about an experiment's results; a false one fails the run. *)
type guard = { ok : bool; msg : string }

let guard ok fmt = Printf.ksprintf (fun msg -> { ok; msg }) fmt

(* Every result [scenario] returned during the running experiment,
   newest first: the driver puts each one through [row_guards]. *)
let ran = ref []

let scenario ?warmup_us ?ns_per_byte ?faults ?adversary ?workload p ~n ~load
    ~duration_us () =
  let r =
    Scenario.run ?warmup_us ?ns_per_byte ?faults ?adversary ?workload p ~n
      ~load ~duration_us ()
  in
  ran := r :: !ran;
  r

(* Every Scenario.run row must be safe with a clean invariant monitor,
   and at smoke scale must commit: a row that commits nothing still
   prints a mean of 0 or NaN, so it must fail instead. *)
let row_guards (r : Scenario.result) =
  [
    guard
      (r.prefix_safe && r.late_accepts = 0)
      "%s n=%d: prefix %b late=%d" r.protocol r.n r.prefix_safe r.late_accepts;
    guard
      (Option.is_none r.first_violation)
      "%s n=%d: invariant monitor reports %s" r.protocol r.n
      (match r.first_violation with
      | Some v -> v.Harness.Invariant_monitor.v_kind
      | None -> "none");
    guard
      ((not !smoke) || r.committed_txs > 0)
      "%s n=%d committed 0 txs inside the measurement window (window_us=%d)"
      r.protocol r.n r.window_us;
  ]

type 'a experiment = {
  name : string;
  artifact : string;  (** ["experiment"] value; file BENCH_<ARTIFACT>.json *)
  run : unit -> 'a;
  sections : ('a -> string) list;  (** printed in order *)
  json : 'a J.field list;  (** artifact fields; [] writes no artifact *)
  guards : 'a -> guard list;
}

type packed = Exp : 'a experiment -> packed

let exp ?artifact ?(json = []) ?(guards = fun _ -> []) name run sections =
  Exp
    {
      name;
      artifact = Option.value artifact ~default:name;
      run;
      sections;
      json;
      guards;
    }

(* Run one experiment: print its sections, write its artifact, then
   check its guards. Returns whether every guard held. *)
let drive (Exp e) =
  let t0 = now_wall () in
  ran := [];
  let a = e.run () in
  List.iter (fun section -> print_string (section a)) e.sections;
  (* A writer bug fails the smoke run in CI instead of silently
     changing the artifact consumers see. *)
  (match e.json with
  | [] -> ()
  | fields ->
      let file = "BENCH_" ^ String.uppercase_ascii e.artifact ^ ".json" in
      J.write_file ~file
        (J.obj
           (J.field "experiment" J.str (fun _ -> e.artifact)
           :: J.field "smoke" J.bool (fun _ -> !smoke)
           :: fields))
        a;
      Printf.printf "[wrote %s]\n%!" file);
  let checks = List.concat_map row_guards (List.rev !ran) @ e.guards a in
  let failed = List.filter (fun g -> not g.ok) checks in
  List.iter (fun g -> Printf.eprintf "%s: guard failed: %s\n%!" e.name g.msg) failed;
  Printf.printf "[%s done in %.1fs]\n%!" e.name (now_wall () -. t0);
  failed = []

(* Validate every argument before running anything, then drive the
   selected experiments; exit non-zero if any guard failed. *)
let main all =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = List.map (fun (Exp e) -> e.name) all in
  let targets = List.filter (fun a -> not (String.equal a "--smoke")) args in
  (match List.filter (fun a -> not (List.mem a names)) targets with
  | [] -> ()
  | bad ->
      Printf.eprintf
        "unknown argument%s: %s\nusage: main.exe [--smoke] [EXPERIMENT...]\n\
         experiments: %s\n"
        (if List.length bad = 1 then "" else "s")
        (String.concat " " bad) (String.concat ", " names);
      exit 2);
  smoke := List.mem "--smoke" args;
  let selected =
    match targets with
    | [] -> all
    | _ ->
        List.map
          (fun t -> List.find (fun (Exp e) -> String.equal e.name t) all)
          targets
  in
  if not (List.fold_left (fun ok e -> drive e && ok) true selected) then exit 1
