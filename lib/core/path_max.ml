module Params = Ssta_tech.Params
module Erf = Ssta_prob.Erf
module Path_coeffs = Ssta_correlation.Path_coeffs

type result = {
  mean : float;
  std : float;
  confidence_point : float;
  paths_used : int;
}

let canonical_of_analysis (config : Config.t) (a : Path_analysis.t) =
  let coeffs = a.Path_analysis.coeffs in
  let terms = Hashtbl.create ~random:false 64 in
  (* Intra layer RVs carry the Eq. (13) coefficients verbatim. *)
  Path_coeffs.iter (fun key c -> Hashtbl.replace terms key c) coeffs;
  (* The inter part is shared by every path: key it on layer 0. *)
  List.iter
    (fun rv ->
      Hashtbl.replace terms
        { Path_coeffs.rv; layer = 0; partition = 0 }
        (Params.get coeffs.Path_coeffs.grad_sum rv))
    Params.all_rvs;
  let linear = { Canonical.mean = a.Path_analysis.mean; terms; indep = 0.0 } in
  (* Keep the numeric PDF's variance: whatever the linearization misses
     goes into the independent residual. *)
  let linear_var = Canonical.variance config linear in
  let numeric_var = a.Path_analysis.std *. a.Path_analysis.std in
  { linear with
    Canonical.indep = Float.max 0.0 (numeric_var -. linear_var) }

let statistical_max ?config ?(max_paths = 200) (m : Methodology.t) =
  let config =
    match config with Some c -> c | None -> m.Methodology.config
  in
  let ranked = m.Methodology.ranked in
  let used = Int.min max_paths (Array.length ranked) in
  if used = 0 then invalid_arg "Path_max.statistical_max: no paths";
  let folded = ref None in
  for i = 0 to used - 1 do
    let canon =
      canonical_of_analysis config ranked.(i).Ranking.analysis
    in
    folded :=
      (match !folded with
      | None -> Some canon
      | Some acc -> Some (Canonical.clark_max config acc canon))
  done;
  match !folded with
  | None -> assert false
  | Some acc ->
      let std = Canonical.std config acc in
      { mean = acc.Canonical.mean;
        std;
        confidence_point =
          acc.Canonical.mean +. (config.Config.confidence_sigma *. std);
        paths_used = used }

let yield_at ?config m ~clock =
  let r = statistical_max ?config m in
  if r.std <= 0.0 then if clock >= r.mean then 1.0 else 0.0
  else Erf.normal_cdf ~mu:r.mean ~sigma:r.std clock
