type t = {
  f : int;
  echo : int -> unit;
  received : Senders.t array;  (** received.(b): EST(b) senders *)
  echoed : bool array;
  bin : bool array;
}

let create ~n ~echo =
  {
    f = Quorums.max_faulty n;
    echo;
    received = [| Senders.create n; Senders.create n |];
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
  let senders = t.received.(b) in
  if Senders.add senders src then begin
    let count = Senders.count senders in
    (* Relay after f+1 so all correct processes reach the 2f+1 bar. *)
    if count >= t.f + 1 && not t.echoed.(b) then begin
      t.echoed.(b) <- true;
      t.echo b
    end;
    if count >= (2 * t.f) + 1 then t.bin.(b) <- true
  end

let delivered t b =
  check_value b;
  t.bin.(b)
