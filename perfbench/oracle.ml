(* Output oracle: what a packet must look like when it leaves the device,
   and the tally of operations checked against it. *)

(* Egress port and bytes; port -1 = the packet did not leave the device. *)
type verdict = { v_port : int; v_bytes : string }

let no_egress = { v_port = -1; v_bytes = "" }

let agrees ~expected ~got =
  expected.v_port = got.v_port
  && (expected.v_port < 0 || String.equal expected.v_bytes got.v_bytes)

(* One packet through [Ipsa.Device.inject], egress drained. *)
let inject device pkt =
  let v =
    match Ipsa.Device.inject device pkt with
    | Some (port, ctx) -> { v_port = port; v_bytes = Net.Packet.contents ctx.Ipsa.Context.pkt }
    | None -> no_egress
  in
  ignore (Ipsa.Device.collect_all device);
  v

(* Verdicts of one batch through [Ipsa.Device.inject_batch]: the batch
   path writes the egress bytes back into the injected packets. *)
let of_batch pkts (res : Ipsa.Device.batch_result option array) =
  Array.mapi
    (fun i r ->
      match r with
      | Some br -> { v_port = br.Ipsa.Device.br_port; v_bytes = Net.Packet.contents pkts.(i) }
      | None -> no_egress)
    res

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let tally () = { attempted = 0; failed = 0; first_failure = None }

let ok tally = tally.attempted <- tally.attempted + 1

let fail tally what =
  tally.attempted <- tally.attempted + 1;
  tally.failed <- tally.failed + 1;
  if tally.first_failure = None then tally.first_failure <- Some what

let check tally ~what ~expected ~got =
  if agrees ~expected ~got then ok tally
  else
    fail tally
      (Printf.sprintf "%s: expected port %d (%d B), got port %d (%d B)%s" what
         expected.v_port (String.length expected.v_bytes) got.v_port
         (String.length got.v_bytes)
         (if expected.v_port = got.v_port then ", bytes differ" else ""))

let merge into from =
  into.attempted <- into.attempted + from.attempted;
  into.failed <- into.failed + from.failed;
  if into.first_failure = None then into.first_failure <- from.first_failure
