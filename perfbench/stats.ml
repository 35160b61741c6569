(* Order statistics for op latencies. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the sample at rank ceil(p/100 * n).  The
   epsilon keeps decimal percentiles such as 99.9 from rounding up. *)
let rank ~n p =
  Int.max 1 (int_of_float (Float.ceil ((p *. float n /. 100.0) -. 1e-9)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(Int.min n (rank ~n p) - 1)

(* Samples strictly beyond the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p = n - rank ~n p

let ladder = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]

(* The highest percentile of the ladder with at least ten samples beyond
   it, or [None] when even the median has fewer. *)
let tail_percentile n =
  List.fold_left
    (fun best p -> if beyond ~n p >= 10 then Some p else best)
    None ladder

(* Smallest sample count at which [p] keeps ten samples beyond it. *)
let min_samples p =
  let rec go n = if beyond ~n p >= 10 then n else go (n + 1) in
  go 1

let percentile_name p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p
  else Printf.sprintf "p%g" p
