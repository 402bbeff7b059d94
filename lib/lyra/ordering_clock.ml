type t = { engine : Sim.Engine.t; offset : int; mutable last : int }

let create engine ~offset_us = { engine; offset = offset_us; last = min_int }

let peek t = Sim.Engine.now t.engine + t.offset

let read t =
  let v = max (peek t) (t.last + 1) in
  t.last <- v;
  v

