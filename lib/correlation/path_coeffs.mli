(** Per-path accumulation of layer-RV coefficients — Eq. (13).

    After the Taylor linearization, a path's intra-die delay is
    [sum over (rv, layer u, partition w) of coeff * RV(rv, u, w)], where
    the coefficient is the sum of the nominal delay derivatives of the
    path's gates that fall in partition (u, w).  Gates of the same path
    that share a partition add their derivatives {e before} squaring —
    this is exactly how the layering model carries spatial correlation
    into the variance of Eq. (14).

    The inter-die part stays nonlinear; for it we accumulate the alpha
    and beta sums of Eq. (5) so the inter-delay PDF can be computed as
    [0.345 tox Leff / eps_ox * (A F(vdd,vtn) + B F(vdd,vtp))]. *)

type key = { rv : Ssta_tech.Params.rv; layer : int; partition : int }

type t = {
  alpha_sum : float;  (** A = sum of gate alphas along the path *)
  beta_sum : float;  (** B = sum of gate betas *)
  gate_count : int;
  nominal_delay : float;  (** sum of nominal gate delays, seconds *)
  grad_sum : Ssta_tech.Params.t;
      (** per-RV sum of the nominal delay derivatives over the path's
          gates — the linearized sensitivity of the whole path, used for
          analytic path-to-path covariances *)
  keys : int array;
      (** the distinct intra keys (layer >= 1), packed (see {!unpack}),
          in layout order *)
  values : float array;
      (** [values.(i)] is the summed delay derivative of [keys.(i)] *)
}
(** {b Layout.}  The coefficient table is two flat arrays: one packed
    int per (rv, layer, partition) key and one unboxed float per key.
    Their order is a contract: it is exactly the order in which
    [Hashtbl.fold] visits a [Hashtbl.create 64] filled by inserting each
    key with [Hashtbl.replace] on its first touch, so every Eq. (14) sum
    over the layout keeps the bits it had when the table was such a
    hashtable.  For [n] keys, with [b] the smallest [64 * 2^k] such that
    [n <= 2b], the layout visits keys in ascending
    [Hashtbl.hash key land (b - 1)] and, within one such bucket, the
    most recently first-touched key first.

    [Hashtbl.hash] is unseeded, so unlike a hashtable created under
    [OCAMLRUNPARAM=R] (or after [Hashtbl.randomize]) the order — and
    every report built on it — does not depend on the process. *)

val unpack : int -> key
(** The key an element of [keys] stands for.  A packed key holds the rv
    index in bits 0-2, the layer in bits 3-10 and the partition above. *)

type workspace
(** Reusable flat accumulation scratch for {!of_path}: epoch-stamped
    dense-array writes over the (rv, layer, partition) key space, plus a
    per-slot cache of key hashes for the layout's counting sort.
    Single-domain scratch: never share across domains. *)

val workspace_create : unit -> workspace
(** Empty workspace; sized lazily on first use and resized when the
    graph or layering changes. *)

val of_path :
  ?grads:Ssta_tech.Params.t array ->
  ?ws:workspace ->
  Ssta_timing.Graph.t ->
  Ssta_circuit.Placement.t ->
  Layers.t ->
  Ssta_timing.Paths.path ->
  t
(** Accumulate coefficients for one path.  Derivatives are evaluated at
    nominal (the paper's zeroth-order approximation, Eq. 11).

    [grads], when given, must hold for every non-input node [id] the
    value [Derivatives.gradient (Graph.electrical_exn g id)
    Params.nominal]; callers analyzing many paths precompute it once per
    graph.  [ws] defaults to a fresh workspace; callers analyzing many
    paths reuse one.  Neither option changes any output bit. *)

val iter : (key -> float -> unit) -> t -> unit
(** Visit every intra key with its coefficient, in layout order. *)

val fold : (key -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the intra keys in layout order. *)

val intra_variance : t -> Budget.t -> float
(** Eq. (14): [sum coeff^2 * sigma_layer^2] over all intra keys, in
    layout order, with per-layer sigmas from the budget and
    {!Ssta_tech.Params.sigma}. *)

val layer_variances : t -> Budget.t -> float array
(** Per-layer decomposition of {!intra_variance}: element [u] (for
    [1 <= u < Budget.layers budget]) is the variance contributed by
    layer [u]'s RVs; element 0 is 0 (the inter part is not in the
    coefficient table).  Summing the array recovers
    [intra_variance t budget] up to rounding. *)

val coeff : t -> key -> float
(** 0 when the key is absent.  A linear scan: callers looking up many
    keys build their own index over [keys]. *)

val num_layer_rvs : t -> int
(** Number of distinct (rv, layer, partition) triples on the path — the
    paper's Omega in the complexity analysis. *)
