(* Order statistics for the benchmark's latency samples.

   A tail percentile is only reported where it is backed by data: the
   helper picks the highest candidate percentile that still has at least
   ten samples strictly above its rank, and always reports the
   sample count next to it, so a p99 over 200 samples (two samples beyond
   it) is never printed as if it meant something. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank: the smallest sample with at least [p]% of the samples at
   or below it. Returns the 1-based rank alongside the value. *)
let rank_of ~n p =
  max 1 (min n (int_of_float (Float.ceil (p *. Float.of_int n /. 100.0))))

let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else a.(rank_of ~n p - 1)

let median (xs : float list) : float = percentile (sorted xs) 50.0

type tail = {
  t_pct : float;   (** the percentile reported *)
  t_value : float; (** its value *)
  t_n : int;       (** samples it was computed from *)
}

(* The highest of p99.9, p99, p90 and p50 with at least ten samples
   ranked above it; [None] when even p50 lacks them. *)
let tail (xs : float list) : tail option =
  let a = sorted xs in
  let n = Array.length a in
  let ok p = n > 0 && n - rank_of ~n p >= 10 in
  List.find_opt ok [ 99.9; 99.0; 90.0; 50.0 ]
  |> Option.map (fun p -> { t_pct = p; t_value = percentile a p; t_n = n })
