(* Monte-Carlo golden baseline and block-based (Clark) SSTA tests: the
   block engine at its default config and the canonical-form algebra. *)

open Ssta_circuit
open Ssta_timing
open Ssta_prob
open Ssta_core
open Helpers
module Arrival = Ssta_block.Arrival
module Engine = Ssta_block.Engine

let setup ?(config = fast_config) circuit =
  let sta = Sta.analyze circuit in
  let pl = Placement.place circuit in
  let sampler = Monte_carlo.sampler config sta.Sta.graph pl in
  (sta, pl, sampler)

(* ---------------- Monte-Carlo ---------------- *)

let test_gate_delays_shape () =
  let circuit = small_random () in
  let sta, _, sampler = setup circuit in
  let rng = Rng.create 1 in
  let delays = Monte_carlo.sample_gate_delays sampler rng in
  check_int "delay per node" (Graph.num_nodes sta.Sta.graph)
    (Array.length delays);
  Array.iteri
    (fun id d ->
      if Graph.is_input sta.Sta.graph id then
        check_close ~tol:0.0 "inputs have no delay" 0.0 d
      else check_true "gates have positive sampled delay" (d > 0.0))
    delays

let test_gate_delays_vary_across_dies () =
  let circuit = tiny_chain () in
  let _, _, sampler = setup circuit in
  let rng = Rng.create 5 in
  let a = Monte_carlo.sample_gate_delays sampler rng in
  let b = Monte_carlo.sample_gate_delays sampler rng in
  check_true "independent dies differ" (a <> b)

let test_path_samples_mean_near_nominal () =
  let circuit = small_random () in
  let sta, _, sampler = setup circuit in
  let rng = Rng.create 9 in
  let samples =
    Monte_carlo.path_delay_samples sampler ~n:4000 rng sta.Sta.critical_path
  in
  let s = Stats.summarize samples in
  let nominal = sta.Sta.critical_path.Paths.delay in
  check_true "sampled mean within 2% of nominal"
    (Float.abs (s.Stats.mean -. nominal) < 0.02 *. nominal);
  check_true "sampled spread plausible"
    (s.Stats.std > 0.01 *. nominal && s.Stats.std < 0.3 *. nominal)

let test_validate_path_agreement () =
  (* The central claim: the analytic (Taylor + grid) PDF matches exact
     sampling of the nonlinear correlated model.  Full paper quality
     (100/50): the coarse test config under-resolves the inter PDF. *)
  let circuit = small_random () in
  let sta, pl, sampler = setup ~config:Config.default circuit in
  let ctx = Path_analysis.context Config.default sta.Sta.graph pl in
  let a = Path_analysis.analyze ctx sta.Sta.critical_path in
  let rng = Rng.create 31337 in
  let v = Monte_carlo.validate_path ~n:8000 sampler rng a in
  check_true "mean error below 0.5%"
    (v.Monte_carlo.mean_err < 0.005 *. a.Path_analysis.mean);
  check_true "std error below 10%"
    (v.Monte_carlo.std_err < 0.1 *. a.Path_analysis.std);
  check_true "KS below 0.05" (v.Monte_carlo.ks < 0.05)

let test_circuit_samples_dominate_paths () =
  (* The circuit delay (max over all paths) stochastically dominates any
     single path's delay. *)
  let circuit = small_random () in
  let sta, _, sampler = setup circuit in
  let rng = Rng.create 12 in
  let circuit_samples =
    Monte_carlo.circuit_delay_samples sampler ~n:600 rng
  in
  let path_samples =
    Monte_carlo.path_delay_samples sampler ~n:600 rng sta.Sta.critical_path
  in
  check_true "mean(max) >= mean(single path)"
    (Stats.mean circuit_samples >= Stats.mean path_samples -. 1e-15);
  check_true "circuit delay at least the nominal critical delay on average"
    (Stats.mean circuit_samples > 0.97 *. sta.Sta.critical_delay)

let test_mc_determinism () =
  let circuit = tiny_chain () in
  let sta, _, sampler = setup circuit in
  let a =
    Monte_carlo.path_delay_samples sampler ~n:50 (Rng.create 3)
      sta.Sta.critical_path
  in
  let b =
    Monte_carlo.path_delay_samples sampler ~n:50 (Rng.create 3)
      sta.Sta.critical_path
  in
  check_true "same seed, same samples" (a = b)

let test_mc_input_validation () =
  let circuit = tiny_chain () in
  let sta, _, sampler = setup circuit in
  check_raises_invalid "n=0 path samples" (fun () ->
      ignore
        (Monte_carlo.path_delay_samples sampler ~n:0 (Rng.create 1)
           sta.Sta.critical_path));
  check_raises_invalid "n=0 circuit samples" (fun () ->
      ignore (Monte_carlo.circuit_delay_samples sampler ~n:0 (Rng.create 1)))

(* ---------------- Block-based ---------------- *)

(* The block engine's circuit arrival, as a canonical form. *)
let block_canonical circuit =
  (Engine.analyze circuit).Engine.arrival.Arrival.canon

let test_block_based_matches_mc () =
  let circuit = small_random () in
  let _, pl, sampler = setup ~config:Config.default circuit in
  let bb = Engine.analyze ~placement:pl circuit in
  let rng = Rng.create 8 in
  let mc = Monte_carlo.circuit_delay_samples sampler ~n:1500 rng in
  let s = Stats.summarize mc in
  check_true "mean within 2%"
    (Float.abs (bb.Engine.mean -. s.Stats.mean) < 0.02 *. s.Stats.mean);
  check_true "std within 25%"
    (Float.abs (bb.Engine.std -. s.Stats.std) < 0.25 *. s.Stats.std)

let test_block_based_vs_sta_mean () =
  (* With max-of-Gaussians, the statistical arrival mean must be at least
     the deterministic critical delay. *)
  let circuit = small_random () in
  let sta = Sta.analyze circuit in
  let bb = Engine.analyze circuit in
  check_true "mean >= deterministic critical"
    (bb.Engine.mean >= sta.Sta.critical_delay -. 1e-15);
  check_true "3-sigma above mean"
    (bb.Engine.confidence_point > bb.Engine.mean)

let test_canonical_algebra () =
  let a = block_canonical (tiny_chain ()) in
  let doubled = Canonical.add a a in
  check_close ~tol:1e-12 "add means" (2.0 *. a.Canonical.mean)
    doubled.Canonical.mean;
  check_close ~tol:1e-9 "fully correlated sum doubles the std"
    (2.0 *. Canonical.std Config.default a)
    (Canonical.std Config.default doubled);
  (* covariance with itself = variance *)
  check_close ~tol:1e-9 "cov(X,X) = var(X) (shared terms)"
    (Canonical.variance Config.default a -. a.Canonical.indep)
    (Canonical.covariance Config.default a a)

let test_clark_max_dominates () =
  let a = block_canonical (small_adder ()) in
  let shifted = { a with Canonical.mean = a.Canonical.mean *. 0.5 } in
  let m = Canonical.clark_max Config.default a shifted in
  check_true "max mean >= both inputs"
    (m.Canonical.mean >= a.Canonical.mean -. 1e-15
    && m.Canonical.mean >= shifted.Canonical.mean -. 1e-15)

let test_clark_max_far_apart_picks_larger () =
  let a = block_canonical (tiny_chain ()) in
  let tiny = { a with Canonical.mean = a.Canonical.mean /. 100.0 } in
  let m = Canonical.clark_max Config.default a tiny in
  check_close ~tol:1e-12 "distant max = larger operand" a.Canonical.mean
    m.Canonical.mean

(* ---------------- Quality sweep ---------------- *)

let test_quality_sweep_converges () =
  let circuit = small_random () in
  let grid = [ (10, 5); (30, 15); (60, 30) ] in
  let sweep = Quality_sweep.run ~config:fast_config ~grid circuit in
  check_int "three points" 3 (List.length sweep.Quality_sweep.points);
  check_true "reference positive" (sweep.Quality_sweep.reference_sigma3 > 0.0);
  (* error at the finest grid point is the smallest *)
  let errs =
    List.map (fun p -> p.Quality_sweep.error_pct) sweep.Quality_sweep.points
  in
  (match (errs, List.rev errs) with
  | coarse :: _, fine :: _ ->
      check_true "finer grid is at least as accurate" (fine <= coarse)
  | _ -> Alcotest.fail "missing points");
  let k = Quality_sweep.knee sweep in
  check_true "knee is one of the points"
    (List.exists
       (fun p ->
         p.Quality_sweep.quality_intra = k.Quality_sweep.quality_intra
         && p.Quality_sweep.quality_inter = k.Quality_sweep.quality_inter)
       sweep.Quality_sweep.points)

let test_quality_sweep_empty_grid () =
  check_raises_invalid "empty grid" (fun () ->
      ignore (Quality_sweep.run ~grid:[] (tiny_chain ())))

let suite =
  ( "baselines",
    [ case "sampled gate delays shape" test_gate_delays_shape;
      case "independent dies differ" test_gate_delays_vary_across_dies;
      case "path sample mean near nominal" test_path_samples_mean_near_nominal;
      case "analytic PDF matches exact sampling" test_validate_path_agreement;
      case "circuit delay dominates path delay"
        test_circuit_samples_dominate_paths;
      case "monte-carlo determinism" test_mc_determinism;
      case "monte-carlo input validation" test_mc_input_validation;
      case "block-based matches monte-carlo" test_block_based_matches_mc;
      case "block-based above deterministic" test_block_based_vs_sta_mean;
      case "canonical algebra" test_canonical_algebra;
      case "clark max dominates operands" test_clark_max_dominates;
      case "clark max with distant operands"
        test_clark_max_far_apart_picks_larger;
      case "quality sweep converges" test_quality_sweep_converges;
      case "quality sweep rejects empty grid" test_quality_sweep_empty_grid ]
  )
