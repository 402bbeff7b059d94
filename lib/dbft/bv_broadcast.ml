type t = {
  n : int;
  f : int;
  echo : int -> unit;
  received : bool array array;  (** received.(b).(src) *)
  count : int array;
  echoed : bool array;
  bin : bool array;
}

let create ~n ~echo =
  {
    n;
    f = Quorums.max_faulty n;
    echo;
    received = [| Array.make n false; Array.make n false |];
    count = [| 0; 0 |];
    echoed = [| false; false |];
    bin = [| false; false |];
  }

let check_value b =
  if b <> 0 && b <> 1 then invalid_arg "Bv_broadcast: value must be 0 or 1"

let input t b =
  check_value b;
  if not t.echoed.(b) then begin
    t.echoed.(b) <- true;
    t.echo b
  end

let on_est t ~src b =
  check_value b;
  if src < 0 || src >= t.n then invalid_arg "Bv_broadcast.on_est: bad source";
  if not t.received.(b).(src) then begin
    t.received.(b).(src) <- true;
    t.count.(b) <- t.count.(b) + 1;
    (* Relay after f+1 so all correct processes reach the 2f+1 bar. *)
    if t.count.(b) >= t.f + 1 && not t.echoed.(b) then begin
      t.echoed.(b) <- true;
      t.echo b
    end;
    if t.count.(b) >= (2 * t.f) + 1 then t.bin.(b) <- true
  end

let delivered t b =
  check_value b;
  t.bin.(b)
