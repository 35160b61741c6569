(** Canonical first-order forms and their statistical algebra.

    The paper's introduction contrasts its path-based approach with
    full-chip analyses that propagate arrival-time distributions through
    the timing graph [2-9].  Their common currency is the canonical
    first-order form

    {v A = mean + sum_i a_i * xi_i + a_r * xi_r v}

    over the same layer RVs as the path-based engine (with the inter-die
    layer 0 linearized too — one of the approximations the paper
    criticizes), plus an independent residual term.  This module is
    that algebra: exact addition, covariance from shared terms, and
    Clark's moment-matching approximation for max, which is exact only
    for jointly Gaussian inputs and accumulates error through
    reconvergent fan-out.  The block engine
    ([Ssta_block.Arrival]) and the correlated path max ({!Path_max})
    build on it.

    Build term tables with [Hashtbl.create ~random:false], as
    {!merge_terms} does: fold orders — and every float sum over them —
    then do not depend on [OCAMLRUNPARAM=R]. *)

type canonical = {
  mean : float;
  terms : (Ssta_correlation.Path_coeffs.key, float) Hashtbl.t;
      (** shared layer-RV sensitivities (layer 0 included) *)
  indep : float;  (** variance of the independent residual *)
}

val variance : Config.t -> canonical -> float
val std : Config.t -> canonical -> float

val covariance : Config.t -> canonical -> canonical -> float
(** Via shared terms only (residuals are independent). *)

val merge_terms :
  wa:float ->
  wb:float ->
  (Ssta_correlation.Path_coeffs.key, float) Hashtbl.t ->
  (Ssta_correlation.Path_coeffs.key, float) Hashtbl.t ->
  (Ssta_correlation.Path_coeffs.key, float) Hashtbl.t
(** [wa * a + wb * b] over the union of the keys, in a fresh table. *)

val add : canonical -> canonical -> canonical

val clark_max : Config.t -> canonical -> canonical -> canonical
(** Clark (1961) moment matching; sensitivities blended by the tightness
    probability.  Operands more than 8 sigma apart return the larger
    one unchanged (physically equal). *)
