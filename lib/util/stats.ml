type summary = {
  count : int;
  mean : float;
  stddev : float;
  stddev_sample : float;
  min : float;
  max : float;
}

(* Floats are sorted with [Float.compare] throughout, never polymorphic
   [compare]: the two agree on non-NaN floats, but a NaN poisons a
   polymorphic sort silently (its comparisons are inconsistent), so NaN
   inputs are rejected loudly up front instead. *)
let reject_nan fn xs =
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg ("Stats." ^ fn ^ ": NaN sample"))
    xs

let summarize xs =
  let n = Array.length xs in
  if n = 0 then
    { count = 0; mean = 0.; stddev = 0.; stddev_sample = 0.; min = 0.; max = 0. }
  else begin
    reject_nan "summarize" xs;
    let sum = Array.fold_left ( +. ) 0. xs in
    let mean = sum /. float_of_int n in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs in
    let stddev = sqrt (sq /. float_of_int n) in
    let stddev_sample =
      if n < 2 then 0. else sqrt (sq /. float_of_int (n - 1))
    in
    let mn = Array.fold_left min xs.(0) xs in
    let mx = Array.fold_left max xs.(0) xs in
    { count = n; mean; stddev; stddev_sample; min = mn; max = mx }
  end

let mean xs = (summarize xs).mean

let geomean xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let log_sum =
      Array.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Stats.geomean: non-positive entry";
          acc +. log x)
        0. xs
    in
    exp (log_sum /. float_of_int n)
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  reject_nan "percentile" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.
