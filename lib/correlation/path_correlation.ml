module Params = Ssta_tech.Params

let inter_covariance budget (a : Path_coeffs.t) (b : Path_coeffs.t) =
  List.fold_left
    (fun acc rv ->
      let s = Budget.sigma_of_layer budget ~total_sigma:(Params.sigma rv) 0 in
      acc
      +. (Params.get a.Path_coeffs.grad_sum rv
         *. Params.get b.Path_coeffs.grad_sum rv
         *. s *. s))
    0.0 Params.all_rvs

(* Both covariance sums visit the smaller path's keys in layout order
   and look each one up in the larger path through an index built once
   per call, so a pair costs O(n + m) rather than O(n * m). *)
let small_large (a : Path_coeffs.t) (b : Path_coeffs.t) =
  if Array.length a.Path_coeffs.keys <= Array.length b.Path_coeffs.keys then
    (a, b)
  else (b, a)

let index (t : Path_coeffs.t) =
  let idx = Hashtbl.create (Array.length t.Path_coeffs.keys) in
  Array.iteri (fun i k -> Hashtbl.replace idx k i) t.Path_coeffs.keys;
  idx

let intra_covariance budget a b =
  let small, large = small_large a b in
  let idx = index large in
  let acc = ref 0.0 in
  Array.iteri
    (fun i k ->
      match Hashtbl.find_opt idx k with
      | Some j ->
          let ca = small.Path_coeffs.values.(i)
          and cb = large.Path_coeffs.values.(j) in
          let key = Path_coeffs.unpack k in
          let s =
            Budget.sigma_of_layer budget
              ~total_sigma:(Params.sigma key.Path_coeffs.rv)
              key.Path_coeffs.layer
          in
          acc := !acc +. (ca *. cb *. s *. s)
      | None -> ())
    small.Path_coeffs.keys;
  !acc

let covariance budget a b =
  inter_covariance budget a b +. intra_covariance budget a b

let variance budget a = covariance budget a a

let correlation budget a b =
  let va = variance budget a and vb = variance budget b in
  if va <= 0.0 || vb <= 0.0 then 0.0
  else covariance budget a b /. sqrt (va *. vb)

let shared_keys a b =
  let small, large = small_large a b in
  let idx = index large in
  Array.fold_left
    (fun acc k -> if Hashtbl.mem idx k then acc + 1 else acc)
    0 small.Path_coeffs.keys
