(* Order statistics over timing samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type percentile = {
  value : float;
  samples : int;  (** size of the sample set *)
  beyond : int;  (** samples strictly above the percentile's rank *)
}

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  if p <= 0. || p > 100. then invalid_arg "Stats.percentile: p outside (0, 100]";
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank =
    max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))
  in
  { value = a.(rank - 1); samples = n; beyond = n - rank }

(* A tail percentile is reportable when at least ten samples lie beyond
   it; below that it is an anecdote, not a distribution. *)
let reportable pc = pc.beyond >= 10

(* The sample count at which percentile [p] has ten samples beyond it. *)
let samples_for p = int_of_float (Float.ceil ((1000. /. (100. -. p)) -. 1e-9))

let sum xs = List.fold_left ( +. ) 0. xs
