type t = {
  engine : Engine.t;
  bucket_us : int;
  cpus : Cpu.t array;
  nics : Cpu.t array;
  cpu_tl : Metrics.Timeline.t array;
  nic_tl : Metrics.Timeline.t array;
  cpu_backlog : Metrics.Recorder.t array;
  nic_backlog : Metrics.Recorder.t array;
  mutable samples : int;
}

(* Profiling is strictly opt-in: attaching schedules sampling events on
   the engine, which perturbs event counts (never behaviour — sampling
   only reads state). Unprofiled runs are bit-for-bit unchanged. *)
let attach ?(bucket_us = 100_000) engine ~cpus ~nics ~until_us =
  if bucket_us <= 0 then invalid_arg "Profile.attach: bucket_us must be > 0";
  let n = Array.length cpus in
  if not (Int.equal (Array.length nics) n) then
    invalid_arg "Profile.attach: cpus/nics length mismatch";
  let mk_tl () = Metrics.Timeline.create ~bucket_us () in
  let t =
    {
      engine;
      bucket_us;
      cpus;
      nics;
      cpu_tl = Array.init n (fun _ -> mk_tl ());
      nic_tl = Array.init n (fun _ -> mk_tl ());
      cpu_backlog = Array.init n (fun _ -> Metrics.Recorder.create ());
      nic_backlog = Array.init n (fun _ -> Metrics.Recorder.create ());
      samples = 0;
    }
  in
  Array.iteri (fun i cpu -> Cpu.attach_timeline cpu t.cpu_tl.(i)) cpus;
  Array.iteri (fun i nic -> Cpu.attach_timeline nic t.nic_tl.(i)) nics;
  let rec sample () =
    t.samples <- t.samples + 1;
    for i = 0 to n - 1 do
      Metrics.Recorder.record t.cpu_backlog.(i)
        (float_of_int (Cpu.backlog_us cpus.(i)));
      Metrics.Recorder.record t.nic_backlog.(i)
        (float_of_int (Cpu.backlog_us nics.(i)))
    done;
    if Engine.now engine + bucket_us <= until_us then
      ignore (Engine.schedule engine ~delay:bucket_us sample : Engine.timer)
  in
  ignore (Engine.schedule engine ~delay:bucket_us sample : Engine.timer);
  t

let cpu_backlog t i = t.cpu_backlog.(i)

let nic_backlog t i = t.nic_backlog.(i)

let pct sorted p =
  if Int.equal (Array.length sorted) 0 then 0.0
  else Metrics.Stats.percentile_sorted p sorted

(* Peak single-bucket utilization: busiest bucket's service µs over the
   bucket's aggregate capacity. *)
let peak_util tl ~bucket_us ~cores =
  match Metrics.Timeline.peak tl with
  | None -> 0.0
  | Some (_, v) -> v /. float_of_int (bucket_us * cores)

let report t ~over_us =
  let n = Array.length t.cpus in
  let buf = Buffer.create 1024 in
  let kinds = Engine.executed_by_kind t.engine in
  Buffer.add_string buf
    (Printf.sprintf "events executed: %d (%s); pending at end: %d\n"
       (Engine.events_executed t.engine)
       (String.concat ", "
          (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) kinds))
       (Engine.pending t.engine));
  Buffer.add_string buf
    (Printf.sprintf "profiler: %d backlog samples per node, bucket=%dms\n"
       t.samples (t.bucket_us / 1000));
  let header =
    [
      "node";
      "cpu.util";
      "cpu.peak";
      "cpuq.p50us";
      "cpuq.p99us";
      "cpuq.maxus";
      "nic.util";
      "nic.peak";
      "nicq.p99us";
    ]
  in
  let rows =
    List.init n (fun i ->
        let cq = Metrics.Recorder.sorted t.cpu_backlog.(i) in
        let nq = Metrics.Recorder.sorted t.nic_backlog.(i) in
        let cq_max =
          if Int.equal (Array.length cq) 0 then 0.0
          else cq.(Array.length cq - 1)
        in
        [
          string_of_int i;
          Printf.sprintf "%.3f" (Cpu.utilization t.cpus.(i) ~over_us);
          Printf.sprintf "%.3f"
            (peak_util t.cpu_tl.(i) ~bucket_us:t.bucket_us
               ~cores:(Cpu.cores t.cpus.(i)));
          Printf.sprintf "%.0f" (pct cq 50.0);
          Printf.sprintf "%.0f" (pct cq 99.0);
          Printf.sprintf "%.0f" cq_max;
          Printf.sprintf "%.3f" (Cpu.utilization t.nics.(i) ~over_us);
          Printf.sprintf "%.3f"
            (peak_util t.nic_tl.(i) ~bucket_us:t.bucket_us
               ~cores:(Cpu.cores t.nics.(i)));
          Printf.sprintf "%.0f" (pct nq 99.0);
        ])
  in
  Buffer.add_string buf (Metrics.Table.render ~header rows);
  Buffer.contents buf
