(* Open-loop packet accounting.

   Packet [i] falls due at [start + i / rate] whatever the device is
   doing. The loop injects every due packet (in batches of at most
   [max_batch]) and times each from its due time to its egress, so a
   stall — a control operation, a slow batch — counts against every
   packet that fell due behind it, not only the one it hit. *)

type t = {
  rate : float; (* offered packets per second *)
  start : float;
  mutable injected : int;
  mutable latency : float list; (* due -> egress, seconds, one per packet *)
  mutable wait : float list; (* due -> injection, per packet *)
  mutable service : float list; (* injection -> egress over the batch size, per batch *)
}

let due t i = t.start +. (float_of_int i /. t.rate)

(* Run for [duration] seconds of schedule. [clock] reads the time;
   [inject ~first ~n] sends packets [first, first + n); [control ~now]
   runs whatever control work is due and may take as long as it takes.
   Returns once every packet scheduled inside the window is out. *)
let run ~clock ~rate ~duration ~max_batch ~inject ~control =
  let start = clock () in
  let t = { rate; start; injected = 0; latency = []; wait = []; service = [] } in
  let total = int_of_float (duration *. rate) in
  while t.injected < total do
    let now = clock () in
    control ~now;
    let now = clock () in
    let ready = ref 0 in
    while t.injected + !ready < total && !ready < max_batch && due t (t.injected + !ready) <= now do
      incr ready
    done;
    if !ready > 0 then begin
      let first = t.injected and n = !ready in
      inject ~first ~n;
      let egress = clock () in
      t.service <- ((egress -. now) /. float_of_int n) :: t.service;
      for i = first to first + n - 1 do
        t.wait <- (now -. due t i) :: t.wait;
        t.latency <- (egress -. due t i) :: t.latency
      done;
      t.injected <- first + n
    end
  done;
  t

(* Packets later than [limit] seconds. *)
let late t ~limit = List.fold_left (fun n l -> if l > limit then n + 1 else n) 0 t.latency
