type t = {
  lo : float;
  hi : float;
  width : float;
  counts : float array;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if lo >= hi then invalid_arg "Histogram.create: lo >= hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  let width = (hi -. lo) /. float_of_int bins in
  { lo; hi; width; counts = Array.make bins 0.; total = 0 }

let bin_of_value t v =
  let bins = Array.length t.counts in
  let i = int_of_float ((v -. t.lo) /. t.width) in
  if i < 0 then 0 else if i >= bins then bins - 1 else i

let add t v =
  t.counts.(bin_of_value t v) <- t.counts.(bin_of_value t v) +. 1.;
  t.total <- t.total + 1

let counts t = Array.copy t.counts
let total t = t.total
let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. t.width)
let bin_width t = t.width

let of_samples ?(bins = 128) xs =
  if Array.length xs = 0 then invalid_arg "Histogram.of_samples: empty";
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  let margin = Float.max 1.0 ((mx -. mn) *. 0.02) in
  let t = create ~lo:(mn -. margin) ~hi:(mx +. margin) ~bins in
  Array.iter (add t) xs;
  t
