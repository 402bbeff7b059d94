module Closed = struct
  type t = {
    clients : int;
    payload : unit -> string;
    submit : payload:string -> string;
    outstanding : (string, unit) Hashtbl.t;
    mutable submitted : int;
    mutable completed : int;
    mutable started : bool;
  }

  let create ~clients ~payload ~submit () =
    {
      clients;
      payload;
      submit;
      outstanding = Hashtbl.create 64;
      submitted = 0;
      completed = 0;
      started = false;
    }

  let launch_one t =
    let id = t.submit ~payload:(t.payload ()) in
    t.submitted <- t.submitted + 1;
    Hashtbl.replace t.outstanding id ()

  let start t =
    if not t.started then begin
      t.started <- true;
      for _ = 1 to t.clients do
        launch_one t
      done
    end

  let tx_done t tx_id =
    if Hashtbl.mem t.outstanding tx_id then begin
      Hashtbl.remove t.outstanding tx_id;
      t.completed <- t.completed + 1;
      launch_one t
    end

  let submitted t = t.submitted

  let completed t = t.completed
end

module Open = struct
  type t = {
    engine : Sim.Engine.t;
    rate_per_sec : float;
    payload : unit -> string;
    submit : payload:string -> string;
    rng : Crypto.Rng.t;
    mutable submitted : int;
    mutable running : bool;
  }

  let create engine ~rate_per_sec ~payload ~submit () =
    {
      engine;
      rate_per_sec;
      payload;
      submit;
      rng = Crypto.Rng.split (Sim.Engine.rng engine);
      submitted = 0;
      running = false;
    }

  let rec schedule_next t =
    let gap =
      Crypto.Rng.exponential t.rng ~mean:(1_000_000.0 /. t.rate_per_sec)
    in
    Sim.Engine.schedule t.engine
      ~delay:(max 1 (int_of_float gap))
      (fun () -> arrival t)

  and arrival t =
    ignore (t.submit ~payload:(t.payload ()) : string);
    t.submitted <- t.submitted + 1;
    schedule_next t

  (* A Poisson stream's first arrival is itself an exponential gap
     away: submitting at the instant the client starts would put a
     deterministic cluster-wide burst at t=0 (n simultaneous one-tx
     batches at low rates — exactly what an open-loop load is not). *)
  let start t =
    if not t.running then begin
      t.running <- true;
      schedule_next t
    end

  let submitted t = t.submitted
end

let fixed_payload ~size rng () = Crypto.Rng.bytes rng size
