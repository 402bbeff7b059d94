(* Pure ordering-fairness metrics over (decided log, receive logs).
   See docs/FAIRNESS.md for the definitions and their SoK citations. *)

type gamma_row = { gamma : float; mandated : int; violations : int }

type sender_row = { sender : int; batches : int; advantage : float }

type report = {
  decided : int;
  observers : int;
  pairs : int;
  inversions : int;
  inversion_rate : float;
  gamma_rows : gamma_row list;
  senders : sender_row list;
  frontrun_success : float option;
}

let sender_of_key key =
  match String.index_opt key '/' with
  | None -> -1
  | Some i -> (
      match int_of_string_opt (String.sub key 0 i) with
      | Some p when p >= 0 -> p
      | _ -> -1)

(* Merge-sort inversion counting: O(k log k), exact over all pairs. *)
let count_inversions (a : int array) =
  let n = Array.length a in
  let buf = Array.make n 0 in
  let inv = ref 0 in
  let rec sort lo hi =
    (* sorts a.(lo..hi-1), counting crossings *)
    if hi - lo > 1 then begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      Array.blit a lo buf lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !i < mid && (!j >= hi || buf.(!i) <= buf.(!j)) then begin
          a.(k) <- buf.(!i);
          incr i
        end
        else begin
          (* buf.(j) jumps ahead of the mid - i left elements *)
          a.(k) <- buf.(!j);
          incr j;
          inv := !inv + (mid - !i)
        end
      done
    end
  in
  sort 0 n;
  !inv

(* Decided keys, first occurrence only, in decided order, and the rank
   of each key: its index in that array. A repeated decided key (a
   protocol bug, but scoring must not crash on one) keeps its first
   rank. *)
let decided_ranks decided =
  let rank = Hashtbl.create 257 in
  let rev =
    List.fold_left
      (fun acc key ->
        if Hashtbl.mem rank key then acc
        else begin
          Hashtbl.add rank key (Hashtbl.length rank);
          key :: acc
        end)
      [] decided
  in
  (Array.of_list (List.rev rev), rank)

(* One observer's receive log projected onto decided ranks: [pos.(r)]
   is decided key r's position among the observer's first sightings of
   decided keys, or -1 when it never saw r; [seen] counts the sighted
   keys. Unknown keys are invisible to the decided order and repeats
   (the tap dedups, this is defensive) keep the first sighting. *)
let project rank k key log =
  let pos = Array.make k (-1) in
  let seen =
    List.fold_left
      (fun seen entry ->
        match Hashtbl.find_opt rank (key entry) with
        | Some r when pos.(r) < 0 ->
            pos.(r) <- seen;
            seen + 1
        | _ -> seen)
      0 log
  in
  (pos, seen)

(* The decided ranks of a projection in receive order. *)
let receive_order (pos, seen) =
  let ranks = Array.make seen 0 in
  Array.iteri (fun r p -> if p >= 0 then ranks.(p) <- r) pos;
  ranks

let inversions ~decided ~received =
  let dec, rank = decided_ranks decided in
  let ranks = receive_order (project rank (Array.length dec) Fun.id received) in
  let k = Array.length ranks in
  (count_inversions ranks, k * (k - 1) / 2)

(* The γ thresholds reported, ascending. *)
let gammas = [ 0.55; 0.67; 0.75; 0.9; 1.0 ]

(* γ-batch-order pairs are at most this many decided positions apart. *)
let max_lag = 64

(* Lower median of a sorted float array. *)
let median_sorted (a : float array) = a.((Array.length a - 1) / 2)

let score ?frontrun_success ~decided ~received () =
  let dec, rank = decided_ranks decided in
  let k = Array.length dec in
  let m = Array.length received in
  (* Every pass below reads this one projection per observer. *)
  let proj = Array.map (project rank k fst) received in
  (* Kendall inversions, exact over all pairs, per observer. *)
  let inv = ref 0 and pairs = ref 0 in
  Array.iter
    (fun ((_, seen) as p) ->
      inv := !inv + count_inversions (receive_order p);
      pairs := !pairs + (seen * (seen - 1) / 2))
    proj;
  let pos = Array.map fst proj in
  (* γ-batch-order violations over decided pairs within [max_lag]. *)
  let counters = List.map (fun g -> (g, ref 0, ref 0)) gammas in
  for i = 0 to k - 1 do
    let hi = min (k - 1) (i + max_lag) in
    for j = i + 1 to hi do
      let both = ref 0 and b_first = ref 0 in
      for o = 0 to m - 1 do
        let p = pos.(o) in
        let ra = p.(i) and rb = p.(j) in
        if ra >= 0 && rb >= 0 then begin
          incr both;
          if rb < ra then incr b_first
        end
      done;
      let both = !both and b_first = !b_first in
      let a_first = both - b_first in
      if both > 0 then
        List.iter
          (fun (g, mandated, viol) ->
            let super x =
              2 * x > both && float_of_int x >= g *. float_of_int both
            in
            if super a_first || super b_first then begin
              incr mandated;
              (* decided order is (a, b): a b_first supermajority
                 contradicts it *)
              if super b_first then incr viol
            end)
          counters
    done
  done;
  let gamma_rows =
    List.map
      (fun (gamma, mandated, viol) ->
        { gamma; mandated = !mandated; violations = !viol })
      counters
  in
  (* Positional advantage: normalized receive position per observer,
     median across observers, against normalized decided position. *)
  let norm pos len =
    if len <= 1 then 0.0 else float_of_int pos /. float_of_int (len - 1)
  in
  let norms = Array.make m 0.0 in
  let sender_acc : (int, (float * int) ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun r key ->
      let c = ref 0 in
      Array.iter
        (fun (p, seen) ->
          if p.(r) >= 0 then begin
            norms.(!c) <- norm p.(r) seen;
            incr c
          end)
        proj;
      if !c > 0 then begin
        let prs = Array.sub norms 0 !c in
        Array.sort Float.compare prs;
        let adv = median_sorted prs -. norm r k in
        let sender = sender_of_key key in
        match Hashtbl.find_opt sender_acc sender with
        | Some acc ->
            let s, c = !acc in
            acc := (s +. adv, c + 1)
        | None -> Hashtbl.replace sender_acc sender (ref (adv, 1))
      end)
    dec;
  let senders =
    List.map
      (fun (sender, r) ->
        let s, c = !r in
        { sender; batches = c; advantage = s /. float_of_int c })
      (Sim.Det.sorted_bindings ~cmp:Int.compare sender_acc)
  in
  {
    decided = k;
    observers = m;
    pairs = !pairs;
    inversions = !inv;
    inversion_rate =
      (if !pairs > 0 then float_of_int !inv /. float_of_int !pairs else 0.0);
    gamma_rows;
    senders;
    frontrun_success;
  }

let pp fmt r =
  Format.fprintf fmt
    "decided=%d observers=%d inversions=%d/%d (rate %.4f)" r.decided
    r.observers r.inversions r.pairs r.inversion_rate;
  List.iter
    (fun g ->
      Format.fprintf fmt ", γ=%.2f: %d/%d" g.gamma g.violations g.mandated)
    r.gamma_rows;
  (match r.frontrun_success with
  | Some f -> Format.fprintf fmt ", frontrun_success=%.2f" f
  | None -> ());
  match
    List.filter (fun s -> Float.abs s.advantage > 0.05) r.senders
  with
  | [] -> ()
  | biased ->
      Format.fprintf fmt ", biased_senders=[%s]"
        (String.concat ";"
           (List.map
              (fun s -> Printf.sprintf "%d:%+.3f" s.sender s.advantage)
              biased))

let json =
  let open Metrics.Json in
  obj
    [
      field "decided" int (fun r -> r.decided);
      field "observers" int (fun r -> r.observers);
      field "pairs" int (fun r -> r.pairs);
      field "inversions" int (fun r -> r.inversions);
      field "inversion_rate" float (fun r -> r.inversion_rate);
      field "gamma"
        (list
           (obj
              [
                field "gamma" float (fun g -> g.gamma);
                field "mandated" int (fun g -> g.mandated);
                field "violations" int (fun g -> g.violations);
              ]))
        (fun r -> r.gamma_rows);
      field "senders"
        (list
           (obj
              [
                field "sender" int (fun s -> s.sender);
                field "batches" int (fun s -> s.batches);
                field "advantage" float (fun s -> s.advantage);
              ]))
        (fun r -> r.senders);
      field "frontrun_success" (option float) (fun r -> r.frontrun_success);
    ]
