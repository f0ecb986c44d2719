(* Order statistics over float samples.  [quartiles] reproduces Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method),
   so the spreads [compare] prints are the ones an outside checker
   computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, q2, q3).  Needs at least two samples; a single sample is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let rel_spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
