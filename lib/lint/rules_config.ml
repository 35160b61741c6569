module Config = Ssta_core.Config
module Budget = Ssta_correlation.Budget
module D = Diagnostic

let rules =
  [ ("config-invalid", "Config.validate rejected the configuration");
    ("config-quality", "suspicious PDF discretization quality points");
    ("config-confidence", "confidence constant beyond 1.0");
    ("config-deadline",
     "configured inter quality cannot cold-build its kernel within the \
      deadline budget");
    ("config-jobs", "worker count exceeds the host's available cores");
    ("budget-shares", "layer variance shares do not sum to the total");
    ("budget-degenerate", "intra-die layers carry zero variance") ]

let quality_ceiling = 4000

(* Conservative per-cell cost of the O(Q^3) inter-kernel cold build
   (dominant term: Q_inter^3 density evaluations when the scale-covariant
   cache is cold).  8 ns/cell is calibrated well above the measured
   cold-build times, so the estimate errs toward warning early: the
   paper's Q = 50 estimates at 1 ms, the 4000-cell sanity ceiling at
   ~8.5 min. *)
let cold_build_cell_ns = 8.0

let inter_cold_build_estimate_s q =
  let q = float_of_int q in
  q *. q *. q *. cold_build_cell_ns *. 1e-9

let check_budget_weights ?layers weights =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let n = Array.length weights in
  if n = 0 then
    emit
      (D.make ~rule:"budget-shares" ~severity:D.Error ~location:D.Config
         "empty budget weight vector")
  else begin
    (match layers with
    | Some l when l <> n ->
        emit
          (D.make ~rule:"budget-shares" ~severity:D.Error ~location:D.Config
             ~hint:"one weight per correlation layer (layer 0 is inter-die)"
             (Printf.sprintf "%d weights for %d layers" n l))
    | _ -> ());
    let bad = ref false in
    Array.iteri
      (fun i w ->
        if (not (Float.is_finite w)) || w < 0.0 then begin
          bad := true;
          emit
            (D.make ~rule:"budget-shares" ~severity:D.Error ~location:D.Config
               (Printf.sprintf "weight %g of layer %d is negative or not finite"
                  w i))
        end)
      weights;
    if not !bad then begin
      let sum = Array.fold_left ( +. ) 0.0 weights in
      if Float.abs (sum -. 1.0) > 1e-6 then
        emit
          (D.make ~rule:"budget-shares" ~severity:D.Error ~location:D.Config
             ~hint:"Eq. (14): per-layer variances must sum to the total"
             (Printf.sprintf "weights sum to %.6f, expected 1" sum));
      (* All the variance on layer 0 means no intra-die variation. *)
      let intra = Array.sub weights 1 (Int.max 0 (n - 1)) in
      if n > 1 && Array.for_all (fun w -> w = 0.0) intra then
        emit
          (D.make ~rule:"budget-degenerate" ~severity:D.Warning
             ~location:D.Config
             ~hint:"path PDFs collapse to the inter-die part"
             "intra-die layers carry zero variance")
    end
  end;
  List.rev !ds

let check ?deadline_s ?jobs ?host_cores (cfg : Config.t) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg ->
      emit
        (D.make ~rule:"config-invalid" ~severity:D.Error ~location:D.Config
           msg));
  if cfg.Config.quality_inter > cfg.Config.quality_intra then
    emit
      (D.make ~rule:"config-quality" ~severity:D.Warning ~location:D.Config
         ~hint:"the paper picks QUALITY_intra 100 >= QUALITY_inter 50"
         (Printf.sprintf "quality_inter %d exceeds quality_intra %d"
            cfg.Config.quality_inter cfg.Config.quality_intra));
  if
    cfg.Config.quality_intra > quality_ceiling
    || cfg.Config.quality_inter > quality_ceiling
  then
    emit
      (D.make ~rule:"config-quality" ~severity:D.Warning ~location:D.Config
         ~hint:"PDF combination cost grows quadratically in the quality"
         (Printf.sprintf "quality points %d/%d beyond the %d sanity ceiling"
            cfg.Config.quality_intra cfg.Config.quality_inter quality_ceiling));
  (match deadline_s with
  | Some deadline when deadline > 0.0 ->
      let estimate = inter_cold_build_estimate_s cfg.Config.quality_inter in
      if estimate > deadline then
        emit
          (D.make ~rule:"config-deadline" ~severity:D.Warning
             ~location:D.Config
             ~hint:
               "lower quality_inter or raise the deadline; the run will \
                start but degrade before producing results"
             (Printf.sprintf
                "quality_inter %d estimates a %.3g s inter-kernel cold \
                 build (O(Q^3), %.0f ns/cell), beyond the %.3g s deadline"
                cfg.Config.quality_inter estimate cold_build_cell_ns
                deadline))
  | _ -> ());
  (* Results are jobs-independent by the pool's determinism contract, so
     an over-subscribed worker count is purely a performance smell:
     extra domains time-share the cores (speedup ~1.0 at best, minor
     slowdown from the pool machinery at worst). *)
  (match jobs with
  | Some jobs when jobs > 1 ->
      let host_cores =
        match host_cores with
        | Some c -> c
        | None -> Domain.recommended_domain_count ()
      in
      if jobs > host_cores then
        emit
          (D.make ~rule:"config-jobs" ~severity:D.Warning ~location:D.Config
             ~hint:
               "results are byte-identical at any --jobs value; extra \
                domains only time-share the cores"
             (Printf.sprintf
                "%d worker domains requested on a host with %d core%s"
                jobs host_cores (if host_cores = 1 then "" else "s")))
  | _ -> ());
  if cfg.Config.confidence > 1.0 then
    emit
      (D.make ~rule:"config-confidence" ~severity:D.Warning ~location:D.Config
         ~hint:"the paper uses C in [0.05, 0.2]"
         (Printf.sprintf
            "confidence constant %g makes near-critical enumeration explode"
            cfg.Config.confidence));
  let budget = cfg.Config.budget in
  let weights =
    Array.init (Budget.layers budget) (fun i -> Budget.weight budget i)
  in
  let layers = Config.num_layers cfg in
  List.rev !ds @ check_budget_weights ~layers weights
