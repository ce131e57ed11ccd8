(* Order statistics and clocks shared by every loop of the benchmark. *)

let now () = Unix.gettimeofday ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median; the mean of the two middle samples for an even count. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples a percentile must leave above its rank before it is reported:
   a p99 from 200 samples is the 2nd-largest value, one outlier wide. *)
let min_beyond = 10

(* Nearest-rank percentile [p] (0 < p < 1): the smallest sample with at
   least [p] of the samples at or below it. [None] unless at least
   [min_beyond] samples lie strictly beyond that rank. *)
let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || p <= 0.0 || p >= 1.0 then None
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    if n - rank >= min_beyond then Some a.(rank - 1) else None
  end

(* Samples needed before [percentile ~p] answers. *)
let samples_for ~p = int_of_float (Float.ceil (float_of_int min_beyond /. (1.0 -. p))) + 1

exception Too_few_samples of string

let percentile_exn ~name ~p xs =
  match percentile ~p xs with
  | Some v -> v
  | None ->
    raise
      (Too_few_samples
         (Printf.sprintf "%s: %d samples cannot support p%g" name (List.length xs)
            (100.0 *. p)))

(* Rounds per run: the measured window is cut into this many rounds, each
   running every loop in turn, each loop's round calibrated on its own
   ([Calib]). *)
let rounds = 8
