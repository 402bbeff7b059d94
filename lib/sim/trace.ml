type category = Fault | Phase | Net

let category_bit = function Fault -> 1 | Phase -> 2 | Net -> 4

let default_categories = [ Fault; Phase ]

type detail =
  | Text of string
  | Drop of { src : int }
  | Dup of { src : int }
  | Partition_drop of { src : int }
  | Eclipse_drop of { src : int }
  | Crash
  | Recover
  | Send of { dst : int; bytes : int }
  | Span of { span : string; from_us : int }
  | Mark of { mark : string; proposer : int; index : int }

type event = { at_us : int; node : int; category : category; detail : detail }

type t = {
  engine : Engine.t;
  mask : int;
  capacity : int;
  store : event Queue.t;
  mutable dropped : int;
}

let create ?(categories = default_categories) ?(capacity = 1_000_000) engine =
  let mask = List.fold_left (fun m c -> m lor category_bit c) 0 categories in
  { engine; mask; capacity; store = Queue.create (); dropped = 0 }

(* A single mask test: the per-message hot path pays this and nothing
   else when the category is off — callers build the detail payload
   inside an [enabled] guard, so disabled tracing allocates nothing. *)
let enabled t category = t.mask land category_bit category <> 0

let record t ~node category detail =
  if enabled t category then begin
    if Queue.length t.store >= t.capacity then begin
      ignore (Queue.pop t.store : event);
      t.dropped <- t.dropped + 1
    end;
    Queue.push { at_us = Engine.now t.engine; node; category; detail } t.store
  end

let category_equal a b = Int.equal (category_bit a) (category_bit b)

let events ?node ?category ?(since_us = min_int) t =
  Queue.fold
    (fun acc e ->
      let keep =
        e.at_us >= since_us
        && (match node with None -> true | Some n -> Int.equal e.node n)
        && match category with
           | None -> true
           | Some c -> category_equal c e.category
      in
      if keep then e :: acc else acc)
    [] t.store
  |> List.rev

let count t = Queue.length t.store

let dropped t = t.dropped
