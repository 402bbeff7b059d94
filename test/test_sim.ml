(* Discrete-event engine, heap, CPU model, latency models, adversary
   and network transport. *)

let test_heap_ordering () =
  let h = Sim.Event_heap.create () in
  List.iter (fun t -> Sim.Event_heap.push h ~time:t t) [ 5; 1; 9; 3; 7 ];
  let order = List.init 5 (fun _ -> fst (Option.get (Sim.Event_heap.pop h))) in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] order

let test_heap_fifo_ties () =
  let h = Sim.Event_heap.create () in
  List.iter (fun v -> Sim.Event_heap.push h ~time:42 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Sim.Event_heap.pop h))) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] order

let test_heap_grows () =
  let h = Sim.Event_heap.create () in
  for i = 999 downto 0 do
    Sim.Event_heap.push h ~time:i i
  done;
  Alcotest.(check int) "size" 1000 (Sim.Event_heap.size h);
  let prev = ref (-1) in
  for _ = 1 to 1000 do
    let t, _ = Option.get (Sim.Event_heap.pop h) in
    Alcotest.(check bool) "monotone" true (t > !prev);
    prev := t
  done;
  Alcotest.(check bool) "empty" true (Sim.Event_heap.is_empty h)

(* Property: popping drains events in non-decreasing time order, and
   events pushed with equal times come out in insertion order (the
   FIFO tie-break the deterministic engine relies on). Times are drawn
   from a tiny range so collisions are common. *)
let prop_heap_ordering =
  QCheck.Test.make ~name:"heap: time-ordered pops, FIFO on ties" ~count:200
    QCheck.(list (int_bound 7))
    (fun times ->
      let h = Sim.Event_heap.create () in
      List.iteri (fun seq t -> Sim.Event_heap.push h ~time:t (t, seq)) times;
      let popped = ref [] in
      let rec drain () =
        match Sim.Event_heap.pop h with
        | None -> ()
        | Some (t, (t', seq)) ->
            popped := (t, t', seq) :: !popped;
            drain ()
      in
      drain ();
      let popped = List.rev !popped in
      List.length popped = List.length times
      && Sim.Event_heap.is_empty h
      && fst
           (List.fold_left
              (fun (ok, prev) (t, t', seq) ->
                let monotone =
                  match prev with
                  | None -> true
                  | Some (pt, pseq) -> pt < t || (pt = t && pseq < seq)
                in
                (ok && monotone && t = t', Some (t, seq)))
              (true, None) popped))

let test_wheel_ordering () =
  let w = Sim.Timing_wheel.create () in
  List.iter (fun t -> Sim.Timing_wheel.push w ~time:t t) [ 5; 1; 9; 3; 7 ];
  let order =
    List.init 5 (fun _ -> fst (Option.get (Sim.Timing_wheel.pop w)))
  in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] order

let test_wheel_fifo_ties () =
  let w = Sim.Timing_wheel.create () in
  List.iter (fun v -> Sim.Timing_wheel.push w ~time:42 v) [ "a"; "b"; "c" ];
  let order =
    List.init 3 (fun _ -> snd (Option.get (Sim.Timing_wheel.pop w)))
  in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] order

(* Spread entries across every wheel level and past the 2^32 µs horizon
   (overflow calendar), interleaving ties, and check the drain is the
   (time, seq) total order. *)
let test_wheel_levels_and_overflow () =
  let w = Sim.Timing_wheel.create () in
  let times =
    [ 3; 300; 70_000; 17_000_000; 4_400_000_000; 3; 300; 5_000_000_000; 0 ]
  in
  List.iteri (fun seq t -> Sim.Timing_wheel.push w ~time:t (t, seq)) times;
  Alcotest.(check int) "size" (List.length times) (Sim.Timing_wheel.size w);
  let drained = ref [] in
  let rec drain () =
    match Sim.Timing_wheel.pop w with
    | None -> ()
    | Some (t, (t', seq)) ->
        Alcotest.(check int) "tag matches slot" t t';
        drained := (t, seq) :: !drained;
        drain ()
  in
  drain ();
  let expect =
    List.sort compare (List.mapi (fun seq t -> (t, seq)) times)
  in
  Alcotest.(check (list (pair int int))) "total order" expect
    (List.rev !drained);
  Alcotest.(check bool) "empty" true (Sim.Timing_wheel.is_empty w)

(* The structural proof the engine swap rests on: drive the heap and
   the wheel with an identical random schedule — pushes at or after the
   last popped time (the engine's monotonicity contract), interleaved
   pops and peeks (peeks force cascades, exercising the early-push
   path) — and require bit-identical output from both. Deltas mix
   scales so schedules cross slot, page and horizon boundaries.

   The engine consumes the wheel through [head_time] and [take], and
   cancels through entry handles, so the schedule also mixes those in.
   The heap has no cancellation: the model marks a cancelled seq dead
   and drops dead entries when they reach its head. A cancel may hit an
   entry already taken or cancelled, which must change nothing. *)
let prop_wheel_heap_equivalence =
  QCheck.Test.make ~name:"wheel ≡ heap on random engine schedules"
    ~count:300
    QCheck.(list (pair (int_bound 6) (int_bound 1_000_000)))
    (fun ops ->
      let h = Sim.Event_heap.create () in
      let w = Sim.Timing_wheel.create () in
      let handles = Hashtbl.create 64 in
      let dead = Hashtbl.create 16 in
      let live = ref 0 in
      let rec settle () =
        match Sim.Event_heap.peek h with
        | Some (_, s) when Hashtbl.mem dead s ->
            ignore (Sim.Event_heap.pop h);
            settle ()
        | _ -> ()
      in
      let heap_pop () =
        settle ();
        let a = Sim.Event_heap.pop h in
        (match a with
        | Some (_, s) ->
            Hashtbl.replace dead s ();
            decr live
        | None -> ());
        a
      in
      let floor = ref 0 in
      let seq = ref 0 in
      let same = ref true in
      List.iter
        (fun (tag, v) ->
          match tag with
          | 0 ->
              let a = heap_pop () in
              let b = Sim.Timing_wheel.pop w in
              same := !same && a = b;
              (match a with Some (t, _) -> floor := t | None -> ())
          | 4 ->
              settle ();
              same :=
                !same
                && Sim.Event_heap.peek h = Sim.Timing_wheel.peek w
                && Sim.Event_heap.peek_time h = Sim.Timing_wheel.peek_time w
          | 5 ->
              settle ();
              let expect =
                match Sim.Event_heap.peek_time h with Some t -> t | None -> max_int
              in
              same := !same && Int.equal expect (Sim.Timing_wheel.head_time w);
              if !live > 0 then begin
                let a = heap_pop () in
                let e = Sim.Timing_wheel.take w in
                same := !same && a = Some (e.Sim.Timing_wheel.time, e.payload);
                floor := e.time
              end
          | 6 ->
              if !seq > 0 then begin
                let s = 1 + (v mod !seq) in
                if not (Hashtbl.mem dead s) then begin
                  Hashtbl.replace dead s ();
                  decr live
                end;
                Sim.Timing_wheel.cancel (Hashtbl.find handles s)
              end
          | tag ->
              let delta =
                match tag with
                | 1 -> v mod 16 (* dense: ties and same-slot pile-ups *)
                | 2 -> v (* mid-range: crosses L0/L1 pages *)
                | _ -> v * 8192 (* sparse: upper levels and overflow *)
              in
              let time = !floor + delta in
              incr seq;
              incr live;
              Sim.Event_heap.push h ~time !seq;
              Hashtbl.replace handles !seq
                (Sim.Timing_wheel.add w ~time ~kind:tag !seq);
              same := !same && Int.equal !live (Sim.Timing_wheel.size w))
        ops;
      let rec drain () =
        let a = heap_pop () in
        let b = Sim.Timing_wheel.pop w in
        same := !same && a = b;
        if a <> None then drain ()
      in
      drain ();
      !same
      && Int.equal !live 0
      && Sim.Timing_wheel.is_empty w
      && Int.equal (Sim.Timing_wheel.head_time w) max_int)

(* The engine loop as it was before events became wheel entries: a
   separate timer record per event, purge-cancelled, peek-time, then
   pop, over the retired binary heap. The one change: cancelling a
   timer that already fired is a no-op here, as it is now in
   [Sim.Engine]; the old handle let such a cancel decrement the live
   count a second time. *)
module Old_engine = struct
  type timer = {
    mutable cancelled : bool;
    mutable fired : bool;
    action : unit -> unit;
    owner : t;
  }

  and t = { heap : timer Sim.Event_heap.t; mutable clock : int; mutable live : int }

  let create () = { heap = Sim.Event_heap.create (); clock = 0; live = 0 }

  let schedule_at t ~time action =
    let timer = { cancelled = false; fired = false; action; owner = t } in
    Sim.Event_heap.push t.heap ~time timer;
    t.live <- t.live + 1;
    timer

  let cancel timer =
    if not (timer.cancelled || timer.fired) then begin
      timer.cancelled <- true;
      timer.owner.live <- timer.owner.live - 1
    end

  let rec purge_cancelled t =
    match Sim.Event_heap.peek t.heap with
    | Some (_, timer) when timer.cancelled ->
        ignore (Sim.Event_heap.pop t.heap);
        purge_cancelled t
    | Some _ | None -> ()

  let rec step t =
    match Sim.Event_heap.pop t.heap with
    | None -> false
    | Some (_, timer) when timer.cancelled -> step t
    | Some (time, timer) ->
        t.clock <- time;
        t.live <- t.live - 1;
        timer.fired <- true;
        timer.action ();
        true

  let run t ~until =
    let continue = ref true in
    while !continue do
      purge_cancelled t;
      match Sim.Event_heap.peek_time t.heap with
      | Some time when time <= until -> ignore (step t)
      | Some _ | None -> continue := false
    done;
    t.clock <- max t.clock until

  let run_until_idle t =
    while t.live > 0 do
      ignore (step t)
    done
end

(* One engine as the schedule driver below sees it. *)
type 'timer engine_ops = {
  schedule_at : time:int -> (unit -> unit) -> 'timer;
  cancel : 'timer -> unit;
  run : until:int -> unit;
  run_until_idle : unit -> unit;
  now : unit -> int;
  pending : unit -> int;
}

(* Event i is scheduled at [time]. Mode 1 makes its action schedule a
   child; mode 2 makes it cancel another event (maybe one already
   fired); mode 3 cancels it before anything runs. Bounds include every
   cancelled event's time, so [run ~until] meets cancelled heads at
   and past its bound. Returns the (event, clock) firing log, and
   (now, pending) after each run. *)
let drive_engine ops specs untils =
  let log = ref [] and states = ref [] in
  let timers = Array.make (List.length specs) None in
  List.iteri
    (fun i (time, mode, aux) ->
      let action () =
        log := (i, ops.now ()) :: !log;
        match mode with
        | 1 ->
            let d = aux mod 300 in
            ignore
              (ops.schedule_at ~time:(ops.now () + d) (fun () ->
                   log := (1000 + i, ops.now ()) :: !log))
        | 2 -> Option.iter ops.cancel timers.(aux mod Array.length timers)
        | _ -> ()
      in
      timers.(i) <- Some (ops.schedule_at ~time action))
    specs;
  List.iteri
    (fun i (_, mode, _) -> if mode = 3 then Option.iter ops.cancel timers.(i))
    specs;
  let cancelled_times =
    List.filter_map (fun (time, mode, _) -> if mode = 3 then Some time else None) specs
  in
  List.iter
    (fun until ->
      if until >= ops.now () then begin
        ops.run ~until;
        states := (ops.now (), ops.pending ()) :: !states
      end)
    (List.sort_uniq Int.compare (untils @ cancelled_times));
  ops.run_until_idle ();
  states := (ops.now (), ops.pending ()) :: !states;
  (List.rev !log, List.rev !states)

let prop_engine_run_until_matches_old_loop =
  QCheck.Test.make ~name:"engine run ~until = old purge/peek/pop loop"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40)
           (triple (int_bound 2_000) (int_bound 3) (int_bound 1_000)))
        (list_of_size Gen.(int_range 0 6) (int_bound 2_500)))
    (fun (specs, untils) ->
      let e = Sim.Engine.create () in
      let fresh =
        drive_engine
          {
            schedule_at = (fun ~time f -> Sim.Engine.schedule_at e ~time f);
            cancel = Sim.Engine.cancel;
            run = (fun ~until -> Sim.Engine.run e ~until);
            run_until_idle = (fun () -> Sim.Engine.run_until_idle e);
            now = (fun () -> Sim.Engine.now e);
            pending = (fun () -> Sim.Engine.pending e);
          }
          specs untils
      in
      let o = Old_engine.create () in
      let old =
        drive_engine
          {
            schedule_at = (fun ~time f -> Old_engine.schedule_at o ~time f);
            cancel = Old_engine.cancel;
            run = (fun ~until -> Old_engine.run o ~until);
            run_until_idle = (fun () -> Old_engine.run_until_idle o);
            now = (fun () -> o.Old_engine.clock);
            pending = (fun () -> o.Old_engine.live);
          }
          specs untils
      in
      fresh = old)

(* Regional latency sampling inlines the Gaussian draw so the
   per-message path boxes no float. Its samples must stay what they
   were when [regional] called [Crypto.Rng.gaussian] (same draws, same
   float operations in the same order), with both RNG streams left in
   lockstep. A realistic jitter checks the truncated delays. A jitter
   of 1e12 puts almost every draw past 2^53, where a float is an
   integer and truncation is exact, so the positive draws are also
   compared bit for bit. *)
let prop_latency_gaussian_bits =
  QCheck.Test.make ~name:"inlined latency gaussian = Rng.gaussian, bit for bit"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 100))
    (fun (seed, jitter_pct) ->
      let a = Crypto.Rng.create (Int64.of_int seed) in
      let b = Crypto.Rng.copy a in
      let n = 7 in
      let placement = Sim.Regions.paper_placement n in
      let samples_agree jitter =
        let reg = Sim.Latency.regional ~jitter placement in
        List.for_all
          (fun k ->
            let src = k mod n and dst = k * 3 mod n in
            let base = float_of_int (Sim.Regions.one_way_us placement.(src) placement.(dst)) in
            let expect =
              max 50 (int_of_float (Crypto.Rng.gaussian b ~mu:base ~sigma:(jitter *. base)))
            in
            Int.equal expect (Sim.Latency.sample reg a ~src ~dst))
          (List.init 30 Fun.id)
      in
      samples_agree (float_of_int jitter_pct /. 100.0)
      && samples_agree 1e12
      && Int64.equal (Crypto.Rng.next_int64 a) (Crypto.Rng.next_int64 b))

let test_engine_ordering_and_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:30 (fun () -> log := 30 :: !log));
  ignore (Sim.Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log));
  ignore
    (Sim.Engine.schedule e ~delay:20 (fun () ->
         log := 20 :: !log;
         (* nested scheduling *)
         ignore (Sim.Engine.schedule e ~delay:5 (fun () -> log := 25 :: !log))));
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "order" [ 10; 20; 25; 30 ] (List.rev !log);
  Alcotest.(check int) "time" 30 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let t = Sim.Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Sim.Engine.cancel t;
  Sim.Engine.run_until_idle e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~delay:(i * 10) (fun () -> incr count))
  done;
  Sim.Engine.run e ~until:55;
  Alcotest.(check int) "5 fired" 5 !count;
  Alcotest.(check int) "clock at until" 55 (Sim.Engine.now e);
  Sim.Engine.run e ~until:200;
  Alcotest.(check int) "all fired" 10 !count

let test_engine_past_raises () =
  let e = Sim.Engine.create () in
  Sim.Engine.run e ~until:100;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sim.Engine.schedule_at e ~time:50 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_livelock_guard () =
  let e = Sim.Engine.create () in
  let rec loop () = ignore (Sim.Engine.schedule e ~delay:1 loop) in
  loop ();
  Alcotest.(check bool) "guard fires" true
    (try
       Sim.Engine.run_until_idle ~limit:1000 e;
       false
     with Failure _ -> true)

let test_cpu_fifo () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  let done_at = ref [] in
  Sim.Cpu.submit cpu ~service_us:100 (fun () -> done_at := Sim.Engine.now e :: !done_at);
  Sim.Cpu.submit cpu ~service_us:50 (fun () -> done_at := Sim.Engine.now e :: !done_at);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "serialized" [ 100; 150 ] (List.rev !done_at);
  Alcotest.(check int) "busy" 150 (Sim.Cpu.busy_us cpu)

(* Cores are parallel servers: each job runs for its full service time
   on one core; extra cores add concurrency, never speed. Four 100µs
   jobs on four cores all finish at t=100; a fifth waits for the
   earliest core and finishes at t=200. *)
let test_cpu_cores () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create ~cores:4 e in
  Alcotest.(check int) "cores" 4 (Sim.Cpu.cores cpu);
  let finished = Array.make 5 (-1) in
  for i = 0 to 4 do
    Sim.Cpu.submit cpu ~service_us:100 (fun () ->
        finished.(i) <- Sim.Engine.now e)
  done;
  Sim.Engine.run_until_idle e;
  for i = 0 to 3 do
    Alcotest.(check int) "parallel batch" 100 finished.(i)
  done;
  Alcotest.(check int) "queued job waits for a core" 200 finished.(4)

let test_cpu_idle_gap () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  Sim.Cpu.submit cpu ~service_us:10 (fun () -> ());
  Sim.Engine.run_until_idle e;
  (* CPU went idle; a later job starts from now, not from free_at *)
  ignore (Sim.Engine.schedule e ~delay:100 (fun () ->
      Sim.Cpu.submit cpu ~service_us:10 (fun () ->
          Alcotest.(check int) "starts at now" 120 (Sim.Engine.now e))));
  Sim.Engine.run_until_idle e

let test_latency_models () =
  let rng = Crypto.Rng.create 1L in
  let c = Sim.Latency.constant 500 in
  Alcotest.(check int) "constant" 500 (Sim.Latency.sample c rng ~src:0 ~dst:1);
  let u = Sim.Latency.uniform ~lo:10 ~hi:20 in
  for _ = 1 to 100 do
    let v = Sim.Latency.sample u rng ~src:0 ~dst:1 in
    Alcotest.(check bool) "uniform range" true (v >= 10 && v <= 20)
  done;
  let reg = Sim.Latency.regional ~jitter:0.05 [| Sim.Regions.Oregon; Sim.Regions.Sydney |] in
  for _ = 1 to 100 do
    let v = Sim.Latency.sample reg rng ~src:0 ~dst:1 in
    Alcotest.(check bool) "near base" true (abs (v - 69_000) < 20_000)
  done

let test_regions () =
  let open Sim.Regions in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) "symmetric" (one_way_us a b) (one_way_us b a))
        all)
    all;
  Alcotest.(check bool) "fig1 violation" true
    (violates_triangle ~src:Tokyo ~via:Singapore ~dst:Sydney);
  Alcotest.(check bool) "paper mesh has no violation" false
    (violates_triangle ~src:Oregon ~via:Ireland ~dst:Sydney);
  let placement = paper_placement 10 in
  Alcotest.(check int) "ten nodes" 10 (Array.length placement);
  Alcotest.(check bool) "three regions" true
    (Array.exists (equal Oregon) placement
    && Array.exists (equal Ireland) placement
    && Array.exists (equal Sydney) placement)

let test_adversary_pre_gst () =
  let rng = Crypto.Rng.create 4L in
  let adv = Sim.Adversary.Pre_gst { gst = 1_000; max_extra = 500 } in
  Alcotest.(check int) "gst" 1_000 (Sim.Adversary.gst adv);
  for _ = 1 to 100 do
    let d = Sim.Adversary.extra_delay adv rng ~now:100 ~src:0 ~dst:1 in
    Alcotest.(check bool) "bounded" true (d >= 0 && d <= 500)
  done;
  Alcotest.(check int) "post-gst silent" 0
    (Sim.Adversary.extra_delay adv rng ~now:2_000 ~src:0 ~dst:1)

let test_adversary_targeted () =
  let rng = Crypto.Rng.create 4L in
  let adv =
    Sim.Adversary.Targeted { gst = 1_000; max_extra = 500; victims = [ 2 ] }
  in
  Alcotest.(check int) "non-victim" 0
    (Sim.Adversary.extra_delay adv rng ~now:0 ~src:0 ~dst:1);
  let hit = ref false in
  for _ = 1 to 50 do
    if Sim.Adversary.extra_delay adv rng ~now:0 ~src:0 ~dst:2 > 0 then hit := true
  done;
  Alcotest.(check bool) "victim delayed" true !hit

type msg = Ping of int

let make_net ?(latency = Sim.Latency.constant 1_000) ?(cost = 10) e n =
  Sim.Network.create e ~n ~latency
    ~cost:(fun ~dst:_ _ -> cost)
    ~size:(fun (Ping _) -> 100)
    ()

let test_network_delivery () =
  let e = Sim.Engine.create () in
  let net = make_net e 3 in
  let got = ref [] in
  Sim.Network.register net ~id:1 (fun ~src (Ping k) -> got := (src, k) :: !got);
  Sim.Network.send net ~src:0 ~dst:1 (Ping 7);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 7) ] !got;
  (* latency 1000 + size 100B*8ns = 0 -> wire; + cost 10 on 8 cores -> 2 *)
  Alcotest.(check bool) "timing sane" true (Sim.Engine.now e >= 1_000);
  Alcotest.(check int) "sent" 1 (Sim.Network.messages_sent net);
  Alcotest.(check int) "delivered count" 1 (Sim.Network.messages_delivered net)

let test_network_broadcast_includes_self () =
  let e = Sim.Engine.create () in
  let net = make_net e 3 in
  let counts = Array.make 3 0 in
  for i = 0 to 2 do
    Sim.Network.register net ~id:i (fun ~src:_ (Ping _) -> counts.(i) <- counts.(i) + 1)
  done;
  Sim.Network.broadcast net ~src:0 (Ping 1);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (array int)) "all got one" [| 1; 1; 1 |] counts

let test_network_crash () =
  let e = Sim.Engine.create () in
  let net = make_net e 2 in
  let got = ref 0 in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping _) -> incr got);
  Sim.Network.crash net 1;
  Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "crashed silent" 0 !got;
  Alcotest.(check bool) "flag" true (Sim.Network.is_crashed net 1);
  (* crashed nodes do not send either *)
  Sim.Network.send net ~src:1 ~dst:0 (Ping 1);
  Alcotest.(check int) "no send" 1 (Sim.Network.messages_sent net)

let test_network_nic_serializes () =
  (* With 8 ns/byte, a 100-byte message takes 800ns = 0 (rounded to µs
     at 0.8) ... use a big ns_per_byte to observe serialization. *)
  let e = Sim.Engine.create () in
  let net =
    Sim.Network.create e ~n:3 ~latency:(Sim.Latency.constant 0) ~ns_per_byte:100_000
      ~cost:(fun ~dst:_ _ -> 0)
      ~size:(fun (Ping _) -> 100)
      ()
  in
  let times = ref [] in
  for i = 1 to 2 do
    Sim.Network.register net ~id:i (fun ~src:_ (Ping _) -> times := Sim.Engine.now e :: !times)
  done;
  (* Two 10ms transmissions from node 0 must serialize on its NIC. *)
  Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Network.send net ~src:0 ~dst:2 (Ping 2);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "serialized egress" [ 10_000; 20_000 ] (List.rev !times)

let test_network_bad_endpoint () =
  let e = Sim.Engine.create () in
  let net = make_net e 2 in
  Alcotest.(check bool) "raises" true
    (try
       Sim.Network.send net ~src:0 ~dst:5 (Ping 1);
       false
     with Invalid_argument _ -> true)

(* An adversary is validated when the network is built, not at its
   first delayed message: an out-of-range victim would otherwise never
   match, and a negative [max_extra] would raise mid-run. *)
let test_network_rejects_bad_adversary () =
  let rejects adversary =
    let e = Sim.Engine.create () in
    try
      ignore
        (Sim.Network.create e ~n:4 ~latency:(Sim.Latency.constant 1_000)
           ~adversary
           ~cost:(fun ~dst:_ _ -> 10)
           ~size:(fun (Ping _) -> 100)
           ()
          : msg Sim.Network.t);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "victim outside [0, n)" true
    (rejects
       (Sim.Adversary.Targeted { gst = 1_000; max_extra = 500; victims = [ 4 ] }));
  Alcotest.(check bool) "negative max_extra" true
    (rejects (Sim.Adversary.Pre_gst { gst = 1_000; max_extra = -1 }))

(* ------------------------------------------------------------------ *)
(* Fault plans (Sim.Faults executed by Sim.Network).                   *)
(* ------------------------------------------------------------------ *)

(* Crash must tombstone everything already in flight towards the node —
   wire deliveries and queued CPU work — so recovery never resurrects
   pre-crash messages. *)
let test_crash_tombstones_inflight () =
  let e = Sim.Engine.create () in
  let net = make_net e 2 in
  let got = ref [] in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping k) -> got := k :: !got);
  (* In flight on the wire when the crash hits (latency 1000). *)
  Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
  ignore (Sim.Engine.schedule e ~delay:500 (fun () -> Sim.Network.crash net 1));
  ignore (Sim.Engine.schedule e ~delay:2_000 (fun () -> Sim.Network.recover net 1));
  ignore
    (Sim.Engine.schedule e ~delay:2_500 (fun () ->
         Sim.Network.send net ~src:0 ~dst:1 (Ping 2)));
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "only the post-recovery message" [ 2 ] !got

let test_crash_tombstones_cpu_queue () =
  let e = Sim.Engine.create () in
  (* Latency 0, heavy CPU cost: the message is in the CPU queue when the
     crash lands mid-service. *)
  let net = make_net ~latency:(Sim.Latency.constant 0) ~cost:5_000 e 2 in
  let got = ref 0 in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping _) -> incr got);
  Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
  ignore (Sim.Engine.schedule e ~delay:2 (fun () -> Sim.Network.crash net 1));
  ignore (Sim.Engine.schedule e ~delay:10_000 (fun () -> Sim.Network.recover net 1));
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "queued CPU work tombstoned" 0 !got

let test_plan_crash_recover_hook () =
  let e = Sim.Engine.create () in
  let plan =
    Sim.Faults.(none |> crash ~node:1 ~at_us:500 ~recover_us:2_000)
  in
  let net =
    Sim.Network.create e ~n:2 ~latency:(Sim.Latency.constant 100) ~faults:plan
      ~cost:(fun ~dst:_ _ -> 1)
      ~size:(fun (Ping _) -> 100)
      ()
  in
  let got = ref 0 and recovered_at = ref (-1) in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping _) -> incr got);
  Sim.Network.on_recover net ~id:1 (fun () -> recovered_at := Sim.Engine.now e);
  ignore
    (Sim.Engine.schedule e ~delay:1_000 (fun () ->
         Alcotest.(check bool) "crashed on schedule" true
           (Sim.Network.is_crashed net 1);
         Sim.Network.send net ~src:0 ~dst:1 (Ping 1)));
  ignore
    (Sim.Engine.schedule e ~delay:2_500 (fun () ->
         Sim.Network.send net ~src:0 ~dst:1 (Ping 2)));
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "recovery hook ran on schedule" 2_000 !recovered_at;
  Alcotest.(check int) "only post-recovery delivery" 1 !got

(* Window edges: [from_us, until_us) applies at wire-entry time. *)
let test_drop_window_edges () =
  let e = Sim.Engine.create () in
  let plan =
    Sim.Faults.(none |> loss ~from_us:1_000 ~until_us:2_000 ~drop_p:1.0)
  in
  let net =
    Sim.Network.create e ~n:2 ~latency:(Sim.Latency.constant 10) ~faults:plan
      ~cost:(fun ~dst:_ _ -> 1)
      ~size:(fun (Ping _) -> 100)
      ()
  in
  let got = ref [] in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping k) -> got := k :: !got);
  List.iter
    (fun (at, k) ->
      ignore
        (Sim.Engine.schedule e ~delay:at (fun () ->
             Sim.Network.send net ~src:0 ~dst:1 (Ping k))))
    [ (999, 1); (1_000, 2); (1_999, 3); (2_000, 4) ];
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "outside the window" [ 1; 4 ] (List.rev !got);
  Alcotest.(check int) "dropped counted" 2 (Sim.Network.messages_dropped net)

let test_dup_window () =
  let e = Sim.Engine.create () in
  let plan =
    Sim.Faults.(
      none |> loss ~from_us:0 ~until_us:10_000 ~drop_p:0.0 ~dup_p:1.0)
  in
  let net =
    Sim.Network.create e ~n:2 ~latency:(Sim.Latency.constant 10) ~faults:plan
      ~cost:(fun ~dst:_ _ -> 1)
      ~size:(fun (Ping _) -> 100)
      ()
  in
  let got = ref 0 in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping _) -> incr got);
  Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "delivered twice" 2 !got;
  Alcotest.(check int) "one extra copy counted" 1
    (Sim.Network.messages_duplicated net);
  Alcotest.(check int) "sent counts the original only" 1
    (Sim.Network.messages_sent net)

let test_partition_heal () =
  let e = Sim.Engine.create () in
  let plan =
    Sim.Faults.(
      none |> partition ~from_us:1_000 ~heal_us:2_000 ~island:[ 0; 1 ])
  in
  let net =
    Sim.Network.create e ~n:3 ~latency:(Sim.Latency.constant 10) ~faults:plan
      ~cost:(fun ~dst:_ _ -> 1)
      ~size:(fun (Ping _) -> 100)
      ()
  in
  let got = Array.make 3 [] in
  for i = 0 to 2 do
    Sim.Network.register net ~id:i (fun ~src (Ping k) ->
        got.(i) <- (src, k) :: got.(i))
  done;
  ignore
    (Sim.Engine.schedule e ~delay:1_500 (fun () ->
         (* Across the cut: dropped. Inside the island: flows. *)
         Sim.Network.send net ~src:0 ~dst:2 (Ping 1);
         Sim.Network.send net ~src:2 ~dst:0 (Ping 2);
         Sim.Network.send net ~src:0 ~dst:1 (Ping 3)));
  ignore
    (Sim.Engine.schedule e ~delay:2_000 (fun () ->
         Sim.Network.send net ~src:0 ~dst:2 (Ping 4)));
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list (pair int int))) "healed link" [ (0, 4) ] got.(2);
  Alcotest.(check (list (pair int int))) "intra-island" [ (0, 3) ] got.(1);
  Alcotest.(check (list (pair int int))) "cut is bidirectional" [] got.(0);
  Alcotest.(check int) "two dropped" 2 (Sim.Network.messages_dropped net)

(* ------------------------------------------------------------------ *)
(* Schedule perturbations (Sim.Perturb executed by Sim.Network).       *)
(* ------------------------------------------------------------------ *)

let make_perturbed_net ?(latency = 1_000) e n perturb =
  Sim.Network.create e ~n ~latency:(Sim.Latency.constant latency) ~perturb
    ~cost:(fun ~dst:_ _ -> 1)
    ~size:(fun (Ping _) -> 100)
    ()

let test_perturb_delay_nth () =
  let e = Sim.Engine.create () in
  let net =
    make_perturbed_net e 2 [ Sim.Perturb.Delay_nth { nth = 1; extra_us = 5_000 } ]
  in
  let got = ref [] in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping k) ->
      got := (k, Sim.Engine.now e) :: !got);
  (* Three back-to-back sends; only the second wire message is held. *)
  Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Network.send net ~src:0 ~dst:1 (Ping 2);
  Sim.Network.send net ~src:0 ~dst:1 (Ping 3);
  Sim.Engine.run_until_idle e;
  (match List.rev !got with
  | [ (1, t1); (3, t3); (2, t2) ] ->
      Alcotest.(check bool) "first on time" true (t1 < 2_000);
      Alcotest.(check bool) "third on time" true (t3 < 2_000);
      Alcotest.(check bool) "second held past the others" true (t2 >= 6_000)
  | order ->
      Alcotest.failf "unexpected order: %s"
        (String.concat ","
           (List.map (fun (k, t) -> Printf.sprintf "%d@%d" k t) order)))

let test_perturb_window_filters () =
  let e = Sim.Engine.create () in
  let net =
    make_perturbed_net e 3
      [
        Sim.Perturb.Delay_window
          {
            from_us = 1_000;
            until_us = 2_000;
            src = Some 0;
            dst = Some 2;
            extra_us = 10_000;
          };
      ]
  in
  let at = Array.make 3 (-1) in
  for i = 1 to 2 do
    Sim.Network.register net ~id:i (fun ~src:_ (Ping _) ->
        at.(i) <- Sim.Engine.now e)
  done;
  ignore
    (Sim.Engine.schedule e ~delay:1_500 (fun () ->
         Sim.Network.send net ~src:0 ~dst:1 (Ping 1);
         Sim.Network.send net ~src:0 ~dst:2 (Ping 2)));
  Sim.Engine.run_until_idle e;
  Alcotest.(check bool) "unmatched dst on time" true (at.(1) < 3_000);
  Alcotest.(check bool) "matched link held" true (at.(2) >= 11_000)

let test_perturb_reverse_window () =
  let e = Sim.Engine.create () in
  let net =
    make_perturbed_net ~latency:10 e 2
      [
        Sim.Perturb.Reverse_window
          { from_us = 0; until_us = 10_000; src = None; dst = None };
      ]
  in
  let got = ref [] in
  Sim.Network.register net ~id:1 (fun ~src:_ (Ping k) -> got := k :: !got);
  List.iter
    (fun (delay, k) ->
      ignore
        (Sim.Engine.schedule e ~delay (fun () ->
             Sim.Network.send net ~src:0 ~dst:1 (Ping k))))
    [ (1_000, 1); (4_000, 2); (8_000, 3) ];
  Sim.Engine.run_until_idle e;
  (* Extra delay is 2x the remaining window: sent at 1/4/8ms, delivered
     around 19/16/12ms — arrival order flips. *)
  Alcotest.(check (list int)) "order reversed" [ 3; 2; 1 ] (List.rev !got)

(* The empty spec must leave the run bit-identical: same event count,
   same delivery times, no RNG split at creation. *)
let test_perturb_empty_is_free () =
  let run perturb =
    let e = Sim.Engine.create ~seed:9L () in
    let net =
      Sim.Network.create e ~n:3
        ~latency:(Sim.Latency.uniform ~lo:100 ~hi:900)
        ?perturb
        ~cost:(fun ~dst:_ _ -> 5)
        ~size:(fun (Ping _) -> 100)
        ()
    in
    let log = ref [] in
    for i = 0 to 2 do
      Sim.Network.register net ~id:i (fun ~src (Ping k) ->
          log := (i, src, k, Sim.Engine.now e) :: !log)
    done;
    for k = 0 to 9 do
      ignore
        (Sim.Engine.schedule e
           ~delay:(50 * (k + 1))
           (fun () -> Sim.Network.broadcast net ~src:(k mod 3) (Ping k)))
    done;
    Sim.Engine.run_until_idle e;
    (Sim.Engine.events_executed e, List.rev !log)
  in
  let ev_a, log_a = run None in
  let ev_b, log_b = run (Some Sim.Perturb.none) in
  Alcotest.(check int) "events identical" ev_a ev_b;
  Alcotest.(check bool) "deliveries identical" true
    (List.equal
       (fun (a, b, c, d) (a', b', c', d') ->
         Int.equal a a' && Int.equal b b' && Int.equal c c' && Int.equal d d')
       log_a log_b)

let test_perturb_validate () =
  let bad p =
    try
      Sim.Perturb.validate p ~n:3;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative delay" true
    (bad [ Sim.Perturb.Delay_nth { nth = 0; extra_us = -1 } ]);
  Alcotest.(check bool) "empty window" true
    (bad
       [
         Sim.Perturb.Delay_window
           { from_us = 10; until_us = 10; src = None; dst = None; extra_us = 1 };
       ]);
  Alcotest.(check bool) "bad endpoint" true
    (bad
       [
         Sim.Perturb.Reverse_window
           { from_us = 0; until_us = 10; src = Some 7; dst = None };
       ]);
  Sim.Perturb.validate
    [
      Sim.Perturb.Delay_nth { nth = 3; extra_us = 100 };
      Sim.Perturb.Reverse_window
        { from_us = 0; until_us = 10; src = Some 2; dst = None };
    ]
    ~n:3;
  Alcotest.(check bool) "none is none" true (Sim.Perturb.is_none Sim.Perturb.none)

let test_fault_plan_validate () =
  let bad p =
    try
      Sim.Faults.validate p ~n:3;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad node" true
    (bad Sim.Faults.(none |> crash ~node:5 ~at_us:0));
  Alcotest.(check bool) "bad probability" true
    (bad Sim.Faults.(none |> loss ~from_us:0 ~until_us:10 ~drop_p:1.5));
  Alcotest.(check bool) "inverted window" true
    (bad Sim.Faults.(none |> loss ~from_us:10 ~until_us:5 ~drop_p:0.1));
  Sim.Faults.validate
    Sim.Faults.(none |> crash ~node:2 ~at_us:0 ~recover_us:10)
    ~n:3;
  Alcotest.(check bool) "empty plan is none" true (Sim.Faults.is_none Sim.Faults.none)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap grows" `Quick test_heap_grows;
    QCheck_alcotest.to_alcotest prop_heap_ordering;
    Alcotest.test_case "wheel ordering" `Quick test_wheel_ordering;
    Alcotest.test_case "wheel fifo ties" `Quick test_wheel_fifo_ties;
    Alcotest.test_case "wheel levels + overflow" `Quick
      test_wheel_levels_and_overflow;
    QCheck_alcotest.to_alcotest prop_wheel_heap_equivalence;
    QCheck_alcotest.to_alcotest prop_engine_run_until_matches_old_loop;
    QCheck_alcotest.to_alcotest prop_latency_gaussian_bits;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering_and_time;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine past raises" `Quick test_engine_past_raises;
    Alcotest.test_case "engine livelock guard" `Quick test_engine_livelock_guard;
    Alcotest.test_case "cpu fifo" `Quick test_cpu_fifo;
    Alcotest.test_case "cpu cores" `Quick test_cpu_cores;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "latency models" `Quick test_latency_models;
    Alcotest.test_case "regions" `Quick test_regions;
    Alcotest.test_case "adversary pre-gst" `Quick test_adversary_pre_gst;
    Alcotest.test_case "adversary targeted" `Quick test_adversary_targeted;
    Alcotest.test_case "network delivery" `Quick test_network_delivery;
    Alcotest.test_case "network broadcast" `Quick test_network_broadcast_includes_self;
    Alcotest.test_case "network crash" `Quick test_network_crash;
    Alcotest.test_case "network nic serializes" `Quick test_network_nic_serializes;
    Alcotest.test_case "network bad endpoint" `Quick test_network_bad_endpoint;
    Alcotest.test_case "network rejects bad adversary" `Quick
      test_network_rejects_bad_adversary;
    Alcotest.test_case "crash tombstones in-flight" `Quick
      test_crash_tombstones_inflight;
    Alcotest.test_case "crash tombstones cpu queue" `Quick
      test_crash_tombstones_cpu_queue;
    Alcotest.test_case "plan crash + recovery hook" `Quick
      test_plan_crash_recover_hook;
    Alcotest.test_case "drop window edges" `Quick test_drop_window_edges;
    Alcotest.test_case "dup window" `Quick test_dup_window;
    Alcotest.test_case "partition heal" `Quick test_partition_heal;
    Alcotest.test_case "fault plan validation" `Quick test_fault_plan_validate;
    Alcotest.test_case "perturb delay-nth" `Quick test_perturb_delay_nth;
    Alcotest.test_case "perturb window filters" `Quick test_perturb_window_filters;
    Alcotest.test_case "perturb reverse window" `Quick test_perturb_reverse_window;
    Alcotest.test_case "perturb empty is free" `Quick test_perturb_empty_is_free;
    Alcotest.test_case "perturb validation" `Quick test_perturb_validate;
  ]
