(* Exact order statistics over retained samples.  Every timing the
   benchmark reports is a quantile of the samples themselves, never of a
   bucketed histogram. *)

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let length b = b.n
let to_array b = Array.sub b.a 0 b.n

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it.  0 for an empty set. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.
  else s.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile b q =
  let s = to_array b in
  Array.sort compare s;
  quantile_sorted s q

(* The middle value, or the mean of the two middle values. *)
let median_list l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0. else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (its default "exclusive" method), so a spread printed here matches one
   computed from the same runs with Python. *)
let quartiles l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n < 2 then (quantile_sorted s 0.5, quantile_sorted s 0.5)
  else
    let q k =
      let m = float_of_int (n + 1) *. float_of_int k /. 4. in
      let j = max 1 (min (n - 1) (int_of_float (Float.floor m))) in
      let frac = m -. float_of_int j in
      s.(j - 1) +. ((s.(j) -. s.(j - 1)) *. frac)
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread l =
  let med = median_list l in
  let q1, q3 = quartiles l in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

let ratio a b = if b = 0. then 0. else a /. b
