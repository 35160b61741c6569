module Params = Ssta_tech.Params
module Erf = Ssta_prob.Erf
module Budget = Ssta_correlation.Budget
module Path_coeffs = Ssta_correlation.Path_coeffs

type canonical = {
  mean : float;
  terms : (Path_coeffs.key, float) Hashtbl.t;
  indep : float;
}

let sigma_of_key (config : Config.t) (key : Path_coeffs.key) =
  Budget.sigma_of_layer config.Config.budget
    ~total_sigma:(Params.sigma key.Path_coeffs.rv)
    key.Path_coeffs.layer

let variance config c =
  Hashtbl.fold
    (fun key a acc ->
      let s = sigma_of_key config key in
      acc +. (a *. a *. s *. s))
    c.terms c.indep

let std config c = sqrt (Float.max 0.0 (variance config c))

let covariance config a b =
  (* Iterate the smaller table. *)
  let small, large =
    if Hashtbl.length a.terms <= Hashtbl.length b.terms then (a, b)
    else (b, a)
  in
  Hashtbl.fold
    (fun key ca acc ->
      match Hashtbl.find_opt large.terms key with
      | Some cb ->
          let s = sigma_of_key config key in
          acc +. (ca *. cb *. s *. s)
      | None -> acc)
    small.terms 0.0

let merge_terms ~wa ~wb a b =
  let terms =
    Hashtbl.create ~random:false (Hashtbl.length a + Hashtbl.length b)
  in
  Hashtbl.iter (fun key v -> Hashtbl.replace terms key (wa *. v)) a;
  Hashtbl.iter
    (fun key v ->
      let prev = try Hashtbl.find terms key with Not_found -> 0.0 in
      Hashtbl.replace terms key (prev +. (wb *. v)))
    b;
  terms

let add a b =
  { mean = a.mean +. b.mean;
    terms = merge_terms ~wa:1.0 ~wb:1.0 a.terms b.terms;
    indep = a.indep +. b.indep }

(* Clark's max of two correlated Gaussians, with linear sensitivities
   blended by the tightness probability phi = P(A > B). *)
let clark_max config a b =
  let va = variance config a and vb = variance config b in
  let cov = covariance config a b in
  let theta2 = Float.max 1e-300 (va +. vb -. (2.0 *. cov)) in
  let theta = sqrt theta2 in
  let d = (a.mean -. b.mean) /. theta in
  if d > 8.0 then a
  else if d < -8.0 then b
  else begin
    let phi = Erf.normal_cdf d in
    let dens = Erf.normal_pdf d in
    let mean = (a.mean *. phi) +. (b.mean *. (1.0 -. phi)) +. (theta *. dens) in
    let second_moment =
      ((va +. (a.mean *. a.mean)) *. phi)
      +. ((vb +. (b.mean *. b.mean)) *. (1.0 -. phi))
      +. ((a.mean +. b.mean) *. theta *. dens)
    in
    let var = Float.max 0.0 (second_moment -. (mean *. mean)) in
    let terms = merge_terms ~wa:phi ~wb:(1.0 -. phi) a.terms b.terms in
    (* Match the total variance by assigning the remainder (not explained
       by the blended shared terms) to the independent residual. *)
    let blended = { mean; terms; indep = 0.0 } in
    let shared_var = variance config blended in
    { mean; terms; indep = Float.max 0.0 (var -. shared_var) }
  end
