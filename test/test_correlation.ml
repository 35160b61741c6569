open Ssta_circuit
open Ssta_correlation
open Ssta_timing
open Helpers

let layers4 () =
  Layers.create ~quad_levels:4 ~random_layer:true ~die_width:100.0
    ~die_height:100.0 ()

(* ---------------- Layers ---------------- *)

let test_layer_counts () =
  let l = layers4 () in
  check_int "5 layers total" 5 (Layers.num_layers l);
  check_int "layer 0 partitions" 1 (Layers.partitions_at l 0);
  check_int "layer 1 partitions" 4 (Layers.partitions_at l 1);
  check_int "layer 3 partitions" 64 (Layers.partitions_at l 3);
  check_true "layer 4 is random" (Layers.is_random_layer l 4);
  check_true "layer 3 is spatial" (not (Layers.is_random_layer l 3))

let test_partitions_at_random_rejected () =
  let l = layers4 () in
  check_raises_invalid "random layer has per-gate partitions" (fun () ->
      ignore (Layers.partitions_at l 4));
  check_raises_invalid "bad level" (fun () ->
      ignore (Layers.partitions_at l 9))

let test_partition_of_quadrants () =
  let l = layers4 () in
  (* level 1 splits the die in 4: row-major quadrants *)
  check_int "bottom-left" 0 (Layers.partition_of l ~level:1 ~x:10.0 ~y:10.0);
  check_int "bottom-right" 1 (Layers.partition_of l ~level:1 ~x:90.0 ~y:10.0);
  check_int "top-left" 2 (Layers.partition_of l ~level:1 ~x:10.0 ~y:90.0);
  check_int "top-right" 3 (Layers.partition_of l ~level:1 ~x:90.0 ~y:90.0)

let test_partition_of_level0 () =
  let l = layers4 () in
  check_int "whole die" 0 (Layers.partition_of l ~level:0 ~x:55.0 ~y:3.0)

let test_partition_clamping () =
  let l = layers4 () in
  check_int "clamped below" 0 (Layers.partition_of l ~level:1 ~x:(-5.0) ~y:0.0);
  check_int "clamped above" 3
    (Layers.partition_of l ~level:1 ~x:200.0 ~y:200.0)

let test_partition_of_gate_random_layer () =
  let l = layers4 () in
  check_int "random partition = gate id" 17
    (Layers.partition_of_gate l ~level:4 ~gate_id:17 ~x:0.0 ~y:0.0)

let test_create_validation () =
  check_raises_invalid "quad_levels >= 1" (fun () ->
      ignore (Layers.create ~quad_levels:0 ~die_width:1.0 ~die_height:1.0 ()));
  check_raises_invalid "positive die" (fun () ->
      ignore (Layers.create ~die_width:0.0 ~die_height:1.0 ()))

let prop_partition_in_range =
  qcheck "partition index within 4^level"
    QCheck.(triple (int_range 0 3) (float_range 0.0 100.0)
              (float_range 0.0 100.0))
    (fun (level, x, y) ->
      let l = layers4 () in
      let p = Layers.partition_of l ~level ~x ~y in
      p >= 0 && p < Layers.partitions_at l level)

let prop_nearby_points_share_partitions =
  qcheck "same point, same partition at every level"
    QCheck.(pair (float_range 0.0 99.0) (float_range 0.0 99.0))
    (fun (x, y) ->
      let l = layers4 () in
      List.for_all
        (fun level ->
          Layers.partition_of l ~level ~x ~y
          = Layers.partition_of l ~level ~x ~y)
        [ 0; 1; 2; 3 ])

(* ---------------- Budget ---------------- *)

let test_equal_budget () =
  let b = Budget.equal ~layers:5 in
  check_int "layers" 5 (Budget.layers b);
  for u = 0 to 4 do
    check_close ~tol:1e-12 "equal weights" 0.2 (Budget.weight b u)
  done;
  check_close ~tol:1e-12 "inter fraction" 0.2 (Budget.inter_fraction b)

let test_inter_intra_budget () =
  let b = Budget.inter_intra ~inter_fraction:0.5 ~layers:5 in
  check_close ~tol:1e-12 "layer 0" 0.5 (Budget.weight b 0);
  check_close ~tol:1e-12 "intra layers split the rest" 0.125
    (Budget.weight b 1);
  let zero = Budget.inter_intra ~inter_fraction:0.0 ~layers:5 in
  check_close ~tol:1e-12 "pure intra" 0.0 (Budget.inter_fraction zero)

let test_budget_normalization () =
  let b = Budget.of_weights [| 2.0; 6.0 |] in
  check_close ~tol:1e-12 "normalized" 0.25 (Budget.weight b 0)

let test_budget_validation () =
  check_raises_invalid "empty" (fun () -> ignore (Budget.of_weights [||]));
  check_raises_invalid "negative" (fun () ->
      ignore (Budget.of_weights [| 1.0; -1.0 |]));
  check_raises_invalid "all zero" (fun () ->
      ignore (Budget.of_weights [| 0.0; 0.0 |]));
  check_raises_invalid "bad fraction" (fun () ->
      ignore (Budget.inter_intra ~inter_fraction:1.5 ~layers:3))

let test_variance_conservation () =
  (* Eq. (6): the per-layer variances must sum to the total variance. *)
  List.iter
    (fun b ->
      let total_sigma = 0.04 in
      let recombined =
        List.init (Budget.layers b) (fun u ->
            let s = Budget.sigma_of_layer b ~total_sigma u in
            s *. s)
        |> List.fold_left ( +. ) 0.0
      in
      check_close ~tol:1e-12 "sum of layer variances = total variance"
        (total_sigma *. total_sigma) recombined)
    [ Budget.equal ~layers:5;
      Budget.inter_intra ~inter_fraction:0.75 ~layers:5;
      Budget.of_weights [| 0.1; 0.2; 0.3; 0.4 |] ]

let prop_variance_check =
  qcheck "variance_check returns sigma^2"
    QCheck.(pair (float_range 0.01 1.0) (int_range 1 8))
    (fun (sigma, layers) ->
      let b = Budget.equal ~layers in
      Float.abs (Budget.variance_check b ~total_sigma:sigma -. (sigma *. sigma))
      < 1e-12)

(* ---------------- Path coefficients ---------------- *)

let context () =
  let c = small_random () in
  let g = Graph.of_netlist c in
  let pl = Placement.place c in
  let layers = Layers.of_placement pl in
  let labels = Longest_path.bellman_ford g in
  let nodes = Longest_path.critical_path g labels in
  let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
  (g, pl, layers, path)

let test_coeffs_accumulate () =
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  check_int "gate count matches path" (Paths.path_gate_count g path)
    pc.Path_coeffs.gate_count;
  check_close ~tol:1e-12 "nominal delay matches" path.Paths.delay
    pc.Path_coeffs.nominal_delay;
  check_true "alpha sum positive" (pc.Path_coeffs.alpha_sum > 0.0);
  check_true "beta sum positive" (pc.Path_coeffs.beta_sum > 0.0);
  (* alpha_sum must equal the sum over path gates *)
  let by_hand =
    List.fold_left
      (fun acc (e : Ssta_tech.Gate.electrical) -> acc +. e.Ssta_tech.Gate.alpha)
      0.0 (Paths.path_gates g path)
  in
  check_close ~tol:1e-12 "alpha sum by hand" by_hand pc.Path_coeffs.alpha_sum

let test_coeffs_layer_structure () =
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  check_true "has layer RVs" (Path_coeffs.num_layer_rvs pc > 0);
  (* No layer-0 keys: inter stays nonlinear. *)
  Path_coeffs.iter
    (fun (key : Path_coeffs.key) c ->
      check_true "intra layers only" (key.Path_coeffs.layer >= 1);
      check_true "layer in range"
        (key.Path_coeffs.layer < Layers.num_layers layers);
      check_true "coeff reads the key's value" (Path_coeffs.coeff pc key = c))
    pc;
  check_true "absent key reads 0"
    (Path_coeffs.coeff pc
       { Path_coeffs.rv = Ssta_tech.Params.Tox; layer = 0; partition = 0 }
    = 0.0)

let test_coeffs_level1_sum_equals_gradient_sum () =
  (* On layer 1 the coefficients partition the path's gates, so summing
     them over partitions recovers the total derivative sum. *)
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  List.iter
    (fun rv ->
      let total_by_partition = ref 0.0 in
      Path_coeffs.iter
        (fun (key : Path_coeffs.key) c ->
          if key.Path_coeffs.layer = 1 && key.Path_coeffs.rv = rv then
            total_by_partition := !total_by_partition +. c)
        pc;
      let total_direct =
        Array.fold_left
          (fun acc id ->
            if Graph.is_input g id then acc
            else
              acc
              +. Ssta_tech.Params.get
                   (Ssta_tech.Derivatives.gradient (Graph.electrical_exn g id)
                      Ssta_tech.Params.nominal)
                   rv)
          0.0 path.Paths.nodes
      in
      check_close ~tol:1e-9 "partition sums = derivative total" total_direct
        !total_by_partition)
    Ssta_tech.Params.all_rvs

let test_intra_variance_positive_and_split_sensitivity () =
  let g, pl, layers, path = context () in
  let pc = Path_coeffs.of_path g pl layers path in
  let equal = Budget.equal ~layers:5 in
  let v_equal = Path_coeffs.intra_variance pc equal in
  check_true "variance positive" (v_equal > 0.0);
  let pure_inter = Budget.inter_intra ~inter_fraction:1.0 ~layers:5 in
  check_close ~tol:1e-15 "pure inter-die has zero intra variance" 0.0
    (Path_coeffs.intra_variance pc pure_inter);
  let pure_intra = Budget.inter_intra ~inter_fraction:0.0 ~layers:5 in
  check_true "pure intra has more intra variance"
    (Path_coeffs.intra_variance pc pure_intra > v_equal)

(* ---------------- Coefficient layout vs the hashtable oracle ---------------- *)

(* The coefficient table as it was built before the flat layout: a
   [Hashtbl.create 64] filled by first-touch [replace], with the
   derivative evaluated inline.  [~random:false] keeps the oracle on the
   unseeded hash even if the process randomizes hashtables.  Its fold
   order and every sum over it are what [Path_coeffs] must reproduce. *)
let oracle_table g pl layers (path : Paths.path) =
  let coeffs = Hashtbl.create ~random:false 64 in
  Array.iter
    (fun id ->
      if not (Graph.is_input g id) then begin
        let x, y = Placement.coord pl id in
        let grad =
          Ssta_tech.Derivatives.gradient (Graph.electrical_exn g id)
            Ssta_tech.Params.nominal
        in
        List.iter
          (fun rv ->
            let d = Ssta_tech.Params.get grad rv in
            for layer = 1 to Layers.num_layers layers - 1 do
              let partition =
                Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y
              in
              let key = { Path_coeffs.rv; layer; partition } in
              let prev = try Hashtbl.find coeffs key with Not_found -> 0.0 in
              Hashtbl.replace coeffs key (prev +. d)
            done)
          Ssta_tech.Params.all_rvs
      end)
    path.Paths.nodes;
  coeffs

let oracle_sigma budget (key : Path_coeffs.key) =
  Budget.sigma_of_layer budget
    ~total_sigma:(Ssta_tech.Params.sigma key.Path_coeffs.rv)
    key.Path_coeffs.layer

let oracle_intra_variance tbl budget =
  Hashtbl.fold
    (fun key c acc ->
      let sigma = oracle_sigma budget key in
      acc +. (c *. c *. sigma *. sigma))
    tbl 0.0

let oracle_layer_variances tbl budget =
  let n = Budget.layers budget in
  let shares = Array.make n 0.0 in
  Hashtbl.iter
    (fun (key : Path_coeffs.key) c ->
      if key.Path_coeffs.layer >= 1 && key.Path_coeffs.layer < n then begin
        let sigma = oracle_sigma budget key in
        shares.(key.Path_coeffs.layer) <-
          shares.(key.Path_coeffs.layer) +. (c *. c *. sigma *. sigma)
      end)
    tbl;
  shares

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* [None] when [pc] matches the oracle entry by entry (same keys, same
   order, same coefficient bits) and bit for bit on both Eq. 14 sums;
   otherwise the first mismatch. *)
let layout_mismatch tbl (pc : Path_coeffs.t) budget =
  let entries fold t = List.rev (fold (fun k v acc -> (k, v) :: acc) t []) in
  let want = entries Hashtbl.fold tbl and got = entries Path_coeffs.fold pc in
  let rec first i = function
    | [], [] -> None
    | (k, v) :: w, (k', v') :: g ->
        if k <> k' || not (bits_equal v v') then
          Some (Printf.sprintf "entry %d differs" i)
        else first (i + 1) (w, g)
    | _ ->
        Some
          (Printf.sprintf "%d keys in the oracle, %d in the layout"
             (List.length want) (List.length got))
  in
  match first 0 (want, got) with
  | Some _ as m -> m
  | None ->
      if
        not
          (bits_equal
             (oracle_intra_variance tbl budget)
             (Path_coeffs.intra_variance pc budget))
      then Some "intra_variance bits differ"
      else if
        not
          (Array.for_all2 bits_equal
             (oracle_layer_variances tbl budget)
             (Path_coeffs.layer_variances pc budget))
      then Some "layer_variances bits differ"
      else if Path_coeffs.num_layer_rvs pc <> Hashtbl.length tbl then
        Some "num_layer_rvs differs"
      else None

let grads_of g =
  Array.init (Graph.num_nodes g) (fun id ->
      match g.Graph.electrical.(id) with
      | Some e -> Ssta_tech.Derivatives.gradient e Ssta_tech.Params.nominal
      | None -> Ssta_tech.Params.zero)

let check_layout ?ws ?grads what g pl layers path budget =
  match
    layout_mismatch
      (oracle_table g pl layers path)
      (Path_coeffs.of_path ?grads ?ws g pl layers path)
      budget
  with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" what m

let test_of_path_fast_options_bit_identical () =
  (* [~grads] and [~ws] are pure accelerations: every field of the
     result must match the plain call exactly, and the coefficient
     layout must match the hashtable oracle in order and bits. *)
  let g, pl, layers, path = context () in
  let budget = Budget.equal ~layers:(Layers.num_layers layers) in
  let reference = Path_coeffs.of_path g pl layers path in
  let grads = grads_of g in
  let ws = Path_coeffs.workspace_create () in
  let same what (fast : Path_coeffs.t) =
    check_true (what ^ ": alpha_sum")
      (fast.Path_coeffs.alpha_sum = reference.Path_coeffs.alpha_sum);
    check_true (what ^ ": beta_sum")
      (fast.Path_coeffs.beta_sum = reference.Path_coeffs.beta_sum);
    check_int (what ^ ": gate_count") reference.Path_coeffs.gate_count
      fast.Path_coeffs.gate_count;
    check_true (what ^ ": nominal_delay")
      (fast.Path_coeffs.nominal_delay = reference.Path_coeffs.nominal_delay);
    List.iter
      (fun rv ->
        check_true (what ^ ": grad_sum")
          (Ssta_tech.Params.get fast.Path_coeffs.grad_sum rv
          = Ssta_tech.Params.get reference.Path_coeffs.grad_sum rv))
      Ssta_tech.Params.all_rvs;
    match layout_mismatch (oracle_table g pl layers path) fast budget with
    | None -> ()
    | Some m -> Alcotest.failf "%s: %s" what m
  in
  same "plain" reference;
  same "grads" (Path_coeffs.of_path ~grads g pl layers path);
  same "ws" (Path_coeffs.of_path ~ws g pl layers path);
  same "grads+ws" (Path_coeffs.of_path ~grads ~ws g pl layers path);
  (* second call reuses the workspace's epoch-stamped scratch *)
  same "ws reuse" (Path_coeffs.of_path ~grads ~ws g pl layers path)

(* Random circuits, placements and layerings; several enumerated paths
   per case, all through one reused workspace. *)
let layout_case_gen =
  QCheck.(
    quad
      (pair (int_range 10 120) (int_range 2 10))
      (int_range 0 2)
      (pair (int_range 1 5) bool)
      (int_range 0 10_000))

let prop_layout_matches_hashtable =
  qcheck ~count:60 "coefficient layout = hashtable fold order"
    layout_case_gen
    (fun ((gates, depth), strat, (quad_levels, random_layer), seed) ->
      let c =
        Generators.random_layered ~name:"lay" ~inputs:6 ~outputs:3 ~gates
          ~depth ~seed ()
      in
      let strategy =
        match strat with
        | 0 -> Placement.Levelized
        | 1 -> Placement.Row_major
        | _ -> Placement.Scattered seed
      in
      let pl = Placement.place ~strategy c in
      let layers = Layers.of_placement ~quad_levels ~random_layer pl in
      let budget = Budget.equal ~layers:(Layers.num_layers layers) in
      let g = Graph.of_netlist c in
      let labels = Longest_path.bellman_ford g in
      let enum =
        Paths.enumerate ~max_paths:8 g ~labels
          ~slack:(0.5 *. Longest_path.critical_delay g labels)
      in
      let ws = Path_coeffs.workspace_create () in
      List.for_all
        (fun path ->
          layout_mismatch
            (oracle_table g pl layers path)
            (Path_coeffs.of_path ~ws g pl layers path)
            budget
          = None)
        enum.Paths.paths)

let test_layout_iscas85_first_paths () =
  List.iter
    (fun spec ->
      let c, pl = Iscas85.build_placed spec in
      let sta = Sta.analyze c in
      let g = sta.Sta.graph in
      let layers = Layers.of_placement pl in
      let budget = Budget.equal ~layers:(Layers.num_layers layers) in
      let enum =
        Sta.near_critical ~max_paths:4 sta
          ~slack:(0.05 *. sta.Sta.critical_delay)
      in
      let grads = grads_of g and ws = Path_coeffs.workspace_create () in
      List.iteri
        (fun i path ->
          check_layout ~grads ~ws
            (Printf.sprintf "%s path %d" spec.Iscas85.name i)
            g pl layers path budget)
        (sta.Sta.critical_path :: enum.Paths.paths))
    Iscas85.all

let test_layout_resize_boundaries () =
  (* A table of n keys has the smallest 64 * 2^k buckets with n <= 2b.
     With only the per-gate random layer every gate adds exactly five
     keys (one per RV), so n is a multiple of 5: 125/130, 255/260 and
     510/515 sit on both sides of the resizes at 128, 256 and 512. *)
  let c = Generators.chain ~name:"long" ~length:110 () in
  let g = Graph.of_netlist c in
  let pl = Placement.place c in
  let layers = Layers.of_placement ~quad_levels:1 ~random_layer:true pl in
  let budget = Budget.equal ~layers:(Layers.num_layers layers) in
  let gates =
    List.filter
      (fun id -> not (Graph.is_input g id))
      (List.init (Graph.num_nodes g) Fun.id)
  in
  let ws = Path_coeffs.workspace_create () in
  List.iter
    (fun (keys, buckets) ->
      let nodes = Array.of_list (List.filteri (fun i _ -> i < keys / 5) gates) in
      let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
      let tbl = oracle_table g pl layers path in
      check_int (Printf.sprintf "%d keys" keys) keys (Hashtbl.length tbl);
      check_int
        (Printf.sprintf "%d keys fill %d buckets" keys buckets)
        buckets (Hashtbl.stats tbl).Hashtbl.num_buckets;
      match
        layout_mismatch tbl (Path_coeffs.of_path ~ws g pl layers path) budget
      with
      | None -> ()
      | Some m -> Alcotest.failf "%d keys: %s" keys m)
    [ (5, 64); (125, 64); (130, 128); (255, 128); (260, 256); (510, 256);
      (515, 512) ]

let test_correlation_increases_variance () =
  (* Two gates in the same partition add coefficients before squaring:
     a path through co-located gates must have a larger intra variance
     than the same path spread across the die. *)
  let c = Generators.chain ~name:"ch" ~length:8 () in
  let g = Graph.of_netlist c in
  let n = Netlist.num_nodes c in
  let co_located =
    Placement.with_coords ~die_width:100.0 ~die_height:100.0
      (Array.make n (5.0, 5.0))
  in
  let spread =
    Placement.with_coords ~die_width:100.0 ~die_height:100.0
      (Array.init n (fun i ->
           (float_of_int (i * 11) +. 2.0, float_of_int (i * 11) +. 2.0)))
  in
  let labels = Longest_path.bellman_ford g in
  let nodes = Longest_path.critical_path g labels in
  let path = { Paths.nodes; delay = Paths.recompute_delay g nodes } in
  let budget = Budget.equal ~layers:5 in
  let variance pl =
    let layers = Layers.of_placement pl in
    Path_coeffs.intra_variance (Path_coeffs.of_path g pl layers path) budget
  in
  check_true "co-located (correlated) variance is larger"
    (variance co_located > variance spread)

let suite =
  ( "correlation",
    [ case "layer counts" test_layer_counts;
      case "random layer partition queries rejected"
        test_partitions_at_random_rejected;
      case "quadrant partitioning" test_partition_of_quadrants;
      case "level 0 is the whole die" test_partition_of_level0;
      case "partition clamping" test_partition_clamping;
      case "random layer uses gate ids" test_partition_of_gate_random_layer;
      case "layer creation validation" test_create_validation;
      prop_partition_in_range;
      prop_nearby_points_share_partitions;
      case "equal budget" test_equal_budget;
      case "inter/intra budget" test_inter_intra_budget;
      case "budget normalization" test_budget_normalization;
      case "budget validation" test_budget_validation;
      case "Eq. 6 variance conservation" test_variance_conservation;
      prop_variance_check;
      case "coefficient accumulation" test_coeffs_accumulate;
      case "intra layers only in coefficients" test_coeffs_layer_structure;
      case "partition sums recover derivative totals"
        test_coeffs_level1_sum_equals_gradient_sum;
      case "intra variance responds to the split"
        test_intra_variance_positive_and_split_sensitivity;
      case "of_path grads/workspace options are bit-identical"
        test_of_path_fast_options_bit_identical;
      prop_layout_matches_hashtable;
      case "layout matches the hashtable on ISCAS85 first paths"
        test_layout_iscas85_first_paths;
      case "layout across hashtable resize boundaries"
        test_layout_resize_boundaries;
      case "spatial correlation increases path variance"
        test_correlation_increases_variance ] )
