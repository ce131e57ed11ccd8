(* The calibration kernel: a fixed piece of work that calls nothing in
   the program under test, timed beside every loop.

   A shared virtual machine changes speed by tens of percent for seconds
   at a time, and a change of the machine's speed moves the kernel as it
   moves the program. Each loop's round runs the kernel [edge] times at
   its start and at its end and once every [interval] seconds in between
   where the loop can pause, and divides its timings by the median kernel
   time of that round: a number that moves with the machine cancels, a
   number that moves with the program does not. Kernels were chosen by how well they cancelled the machine's
   speed in each loop over repeated runs: pointer chasing through 8 MB
   and an arithmetic loop hardly tracked it, scanning an array of records
   and sorting strings did, sorting best in most loops. *)

(* Sorted by every kernel call: 8000 short strings, built once. *)
let strings = Array.init 8000 (fun i -> Printf.sprintf "s%08d" (i * 7919 mod 100003))

(* One call: a few milliseconds on the baseline machine. It sorts a
   fresh list of the strings and copies each: allocation, garbage
   collection and comparisons over a working set of a few hundred
   kilobytes, which is how the program spends its time. *)
let kernel () =
  let l = List.sort compare (Array.to_list strings) in
  Sys.opaque_identity (List.length (List.rev_map (fun s -> s ^ "x") l))

(* Seconds between kernel calls inside a round. *)
let interval = 0.05

type round = { mutable samples : float list; mutable last : float }

let current = { samples = []; last = 0.0 }

let sample () =
  let t0 = Stats.now () in
  ignore (kernel ());
  let t1 = Stats.now () in
  current.samples <- (t1 -. t0) :: current.samples;
  current.last <- t1

(* Called by a loop between units of work: runs the kernel when
   [interval] has passed since the last call. *)
let tick () = if Stats.now () -. current.last >= interval then sample ()

(* Calls at each end of a round: a loop that cannot stop for the kernel
   mid-round (the open loop) still gets a median of several. *)
let edge = 5

let begin_round () =
  current.samples <- [];
  for _ = 1 to edge do
    sample ()
  done

(* The round's kernel time in seconds: the median of its calls. *)
let end_round () =
  for _ = 1 to edge do
    sample ()
  done;
  Stats.median current.samples
