(* Two regimes behind one interface. Exact mode appends every sample
   into a growable array (summaries sort on demand) — the default, and
   all any caller saw before streaming existed. The array starts empty
   and doubles from its first sample: a cluster holds several recorders
   per node, and most record few samples or none. A recorder created
   with a finite [cap] converts itself to streaming mode when the
   cap-th sample lands: the retained samples seed a bank of P²
   estimators (p50/p90/p95/p99) plus exact count/sum/min/max, the
   array is dropped, and memory stays O(1) no matter how many samples
   follow — what a million-client open-loop run needs. *)

type streaming = {
  marks : P2.t array;  (* one per entry of [streamed_quantiles] *)
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
}

type t = {
  cap : int;
  mutable data : float array;
  mutable len : int;
  mutable stream : streaming option;
}

(* The quantile grid streaming mode tracks; [percentile] snaps to the
   nearest grid point (plus min/max at the extremes). *)
let streamed_quantiles = [| 50.0; 90.0; 95.0; 99.0 |]

let create ?(cap = max_int) () =
  if cap < 8 then invalid_arg "Recorder.create: cap must be >= 8";
  { cap; data = [||]; len = 0; stream = None }

let is_streaming t = Option.is_some t.stream

let stream_add s x =
  s.s_count <- s.s_count + 1;
  s.s_sum <- s.s_sum +. x;
  if x < s.s_min then s.s_min <- x;
  if x > s.s_max then s.s_max <- x;
  Array.iter (fun m -> P2.add m x) s.marks

let to_streaming t =
  let s =
    {
      marks = Array.map (fun p -> P2.create ~p:(p /. 100.0)) streamed_quantiles;
      s_count = 0;
      s_sum = 0.0;
      s_min = infinity;
      s_max = neg_infinity;
    }
  in
  for i = 0 to t.len - 1 do
    stream_add s t.data.(i)
  done;
  t.stream <- Some s;
  t.data <- [||];
  t.len <- 0

let record t x =
  match t.stream with
  | Some s -> stream_add s x
  | None ->
      if t.len >= t.cap then begin
        to_streaming t;
        match t.stream with Some s -> stream_add s x | None -> assert false
      end
      else begin
        if t.len = Array.length t.data then begin
          let data = Array.make (min (2 * max 1 t.len) t.cap) 0.0 in
          Array.blit t.data 0 data 0 t.len;
          t.data <- data
        end;
        t.data.(t.len) <- x;
        t.len <- t.len + 1
      end

let count t = match t.stream with Some s -> s.s_count | None -> t.len

let retained_samples t = t.len

let is_empty t = count t = 0

let not_retained fn =
  invalid_arg
    (Printf.sprintf
       "Recorder.%s: raw samples are not retained in streaming mode" fn)

let to_array t =
  match t.stream with
  | Some _ -> not_retained "to_array"
  | None -> Array.sub t.data 0 t.len

let sorted t =
  match t.stream with
  | Some _ -> not_retained "sorted"
  | None ->
      let xs = Array.sub t.data 0 t.len in
      Array.sort Float.compare xs;
      xs

let mean t =
  match t.stream with
  | Some s -> if s.s_count = 0 then 0.0 else s.s_sum /. float_of_int s.s_count
  | None -> Stats.mean (Array.sub t.data 0 t.len)

let stream_percentile s p =
  if s.s_count = 0 then 0.0
  else if p <= 0.0 then s.s_min
  else if p >= 100.0 then s.s_max
  else begin
    let best = ref 0 in
    Array.iteri
      (fun i q ->
        if Float.abs (q -. p) < Float.abs (streamed_quantiles.(!best) -. p)
        then best := i)
      streamed_quantiles;
    P2.value s.marks.(!best)
  end

let percentile p t =
  if p < 0.0 || p > 100.0 then
    invalid_arg "Recorder.percentile: p out of range";
  match t.stream with
  | Some s -> stream_percentile s p
  | None -> Stats.percentile p (Array.sub t.data 0 t.len)

let summary t =
  match t.stream with
  | Some s ->
      if s.s_count = 0 then (0.0, 0.0, 0.0, 0.0, 0.0)
      else
        ( s.s_sum /. float_of_int s.s_count,
          stream_percentile s 50.0,
          stream_percentile s 95.0,
          stream_percentile s 99.0,
          s.s_max )
  | None -> Stats.summary_sorted (sorted t)

let clear t =
  t.len <- 0;
  match t.stream with
  | None -> ()
  | Some _ ->
      t.stream <- None;
      t.data <- [||]
