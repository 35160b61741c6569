(** Arrival-time distributions for the block-based engine, and the
    statistical [sum]/[max] operator algebra over them.

    The path-based flow of the paper analyzes each near-critical path in
    isolation; the block engine instead propagates one arrival-time
    object per node through the netlist DAG.  An arrival is a hybrid of
    the two representations the codebase already has:

    {v A  =  mean  +  sum_k a_k * xi_k  +  R v}

    - the [sum_k a_k xi_k] part is the canonical first-order form over
      the shared correlation-layer RVs ({!Ssta_core.Canonical}, with
      layer 0 the inter-die layer), which preserves inter/intra
      correlation (Eq. 14's variance split) through merges: two arrivals
      that share upstream gates share terms, and their covariance is
      recovered exactly from the shared keys;
    - [R] is an independent residual carried as a discretized PDF on a
      grid ({!Ssta_prob.Pdf}), seeded by each gate's random-layer
      contribution and combined by grid convolution — the same numeric
      machinery as the paper's intra-PDF.

    The invariant [canon.indep = Var(resid)] keeps the canonical-form
    covariance machinery and the grid in agreement. *)

type t = {
  canon : Ssta_core.Canonical.canonical;
      (** mean + shared-layer sensitivities + residual variance *)
  resid : Ssta_prob.Pdf.t option;
      (** zero-mean grid residual ([None] when its width is negligible
          at the scale of the mean); its variance is mirrored in
          [canon.indep] *)
}

val zero : unit -> t
(** The arrival of a primary input: deterministic zero. *)

val of_gate :
  Ssta_core.Config.t ->
  Ssta_correlation.Layers.t ->
  Ssta_circuit.Placement.t ->
  Ssta_timing.Graph.t ->
  int ->
  t
(** [of_gate config layers placement graph id] is the delay contribution
    of gate [id]: nominal delay as the mean, first-order sensitivities
    to every shared-layer RV at the gate's spatial partitions, and the
    per-gate random-layer variance as a truncated-Gaussian grid
    residual.  Raises [Invalid_argument] on a primary input. *)

val sum : Ssta_core.Config.t -> t -> t -> t
(** Statistical sum: exact on the canonical part (means and shared
    sensitivities add), grid convolution ({!Ssta_prob.Combine.sum} at
    [quality_intra] cells) on the residuals.  Exact for independent
    residuals, which holds by construction along any path. *)

val max : Ssta_core.Config.t -> t -> t -> t
(** Statistical max at a merge point, per [config.block_max]:

    - [Clark_max] — Clark's (1961) moment-matched max of correlated
      Gaussians on the canonical forms, with the covariance taken from
      the shared layer terms; the residual is re-seeded as a Gaussian of
      the matched leftover variance.  Sound under correlation,
      Gaussian-approximate in shape.
    - [Grid_max] — the grid-exact independent max: both operands are
      concretized to total PDFs and combined with
      P(max <= x) = F(x) G(x); shared sensitivities are blended by the
      tightness probability and the recentered max grid (deflated so
      shared + residual variance matches the exact grid moments) becomes
      the residual.  Exact in shape for independent operands but
      {e unsound} when they share terms — it ignores their correlation,
      which can both over- and under-estimate the max (see the
      anti-correlated counterexample in HANDBOOK section 9). *)

val mean : t -> float

val variance : Ssta_core.Config.t -> t -> float
(** Total variance: shared layer terms plus the grid residual. *)

val std : Ssta_core.Config.t -> t -> float

val inter_sigma : Ssta_core.Config.t -> t -> float
(** Standard deviation explained by the inter-die (layer 0) terms alone
    — the block engine's version of Eq. 14's sigma_inter. *)

val intra_sigma : Ssta_core.Config.t -> t -> float
(** sqrt(total variance - inter variance): everything below the
    inter-die layer, residual included. *)

val confidence_point : Ssta_core.Config.t -> t -> float
(** [mean + confidence_sigma * std] — comparable to the path engine's
    ranking point. *)

val total_pdf : Ssta_core.Config.t -> t -> Ssta_prob.Pdf.t
(** Concretize to one delay PDF: the grid residual convolved with a
    truncated Gaussian of the shared variance, shifted by the mean.
    Degenerate arrivals concretize to a point mass. *)

val quantile : Ssta_core.Config.t -> t -> float -> float
(** Quantile of {!total_pdf} (rebuilt per call; cache the PDF when
    reading several quantiles). *)
