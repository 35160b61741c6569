(* The two batch ops of the benchmark — a cold path flow as [ssta run]
   makes it, and a cold block sweep — plus the traced replay of the path
   flow that times each layer from outside the program. *)

module Iscas85 = Ssta_circuit.Iscas85
module Bench_format = Ssta_circuit.Bench_format
module Placement = Ssta_circuit.Placement
module Netlist = Ssta_circuit.Netlist
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Path_analysis = Ssta_core.Path_analysis
module Ranking = Ssta_core.Ranking
module Report = Ssta_core.Report
module Intra = Ssta_core.Intra
module Inter = Ssta_core.Inter
module Sta = Ssta_timing.Sta
module Paths = Ssta_timing.Paths
module Graph = Ssta_timing.Graph
module Path_coeffs = Ssta_correlation.Path_coeffs
module Guard = Ssta_runtime.Guard
module Health = Ssta_runtime.Health
module Rbudget = Ssta_runtime.Budget
module Err = Ssta_runtime.Ssta_error
module Pdf = Ssta_prob.Pdf
module Arena = Ssta_prob.Arena
module Pool = Ssta_parallel.Pool
module Affine = Ssta_check.Affine
module Lint = Ssta_lint.Engine
module Diagnostic = Ssta_lint.Diagnostic
module Block = Ssta_block.Engine

let ok = function Ok v -> v | Error e -> Err.raise_error e

(* The paper's Table 2 configuration: the circuit's own C, Q_intra 100,
   Q_inter 50 and a 2000-path cap; every other setting is [ssta run]'s
   default (inter cache and affine screen on). *)
let max_paths = 2000

let table2_config (spec : Iscas85.spec) =
  let c =
    Config.with_confidence Config.default spec.Iscas85.paper.Iscas85.confidence
  in
  { c with Config.max_paths }

let block_config spec =
  { (table2_config spec) with
    Config.engine = Config.Block;
    block_max = Config.Clark_max }

(* Where an op reads its circuit from. *)
type source =
  | Builtin of Iscas85.spec  (* [ssta run NAME] *)
  | Bench_text of Iscas85.spec * string  (* [ssta run --bench FILE] *)

let spec_of = function Builtin s | Bench_text (s, _) -> s

let load tr source =
  Trace.span tr "circuit.load" (fun () ->
      match source with
      | Builtin spec -> Iscas85.build_placed spec
      | Bench_text (spec, text) ->
          let c =
            ok (Bench_format.parse_string_res ~name:spec.Iscas85.name text)
          in
          (c, Placement.place c))

(* The automatic pre-analysis lint of [ssta run]: warnings and worse are
   kept (the CLI prints them; the benchmark only counts them). *)
let lint tr ~config ~placement circuit =
  Trace.span tr "lint.run" (fun () ->
      Lint.filter ~min_severity:Diagnostic.Warning
        (Lint.run (Lint.input ~placement ~config ~deep:false circuit)))

(* What the answer check compares with the stored reference. *)
type answer = {
  paths : int;
  top10 : int list;
      (* det ranks of probabilistic ranks 1..10 (path flow), or the
         node ids of the ten worst endpoints by 3-sigma point (block) *)
  mean : float;
  std : float;
  cp : float;  (* probabilistic-critical 3-sigma point *)
}

let answer_of_methodology m =
  let ranked = m.Methodology.ranked in
  let top = Int.min 10 (Array.length ranked) in
  let pc = m.Methodology.prob_critical.Ranking.analysis in
  { paths = Array.length ranked;
    top10 = List.init top (fun i -> ranked.(i).Ranking.det_rank);
    mean = pc.Path_analysis.mean;
    std = pc.Path_analysis.std;
    cp = pc.Path_analysis.confidence_point }

let answer_of_block (r : Block.t) =
  let eps =
    List.stable_sort
      (fun (a : Block.endpoint) (b : Block.endpoint) ->
        compare b.Block.confidence_point a.Block.confidence_point)
      r.Block.endpoints
  in
  { paths = List.length r.Block.endpoints;
    top10 =
      List.filteri (fun i _ -> i < 10) eps
      |> List.map (fun (e : Block.endpoint) -> e.Block.node);
    mean = r.Block.mean;
    std = r.Block.std;
    cp = r.Block.confidence_point }

(* --- the path flow, as [ssta run --jobs 1 --json] makes it ---------- *)

type path_flow = {
  m : Methodology.t;
  report : string;
  methodology_s : float;  (* wall of Methodology.analyze alone *)
  major_collections : int;  (* during Methodology.analyze *)
}

let path_flow source =
  let tr = Trace.create false in
  let config = table2_config (spec_of source) in
  let circuit, placement = load tr source in
  ignore (lint tr ~config ~placement circuit : Diagnostic.t list);
  let screen = Affine.methodology_screen config in
  let budget = Rbudget.make ~max_paths:config.Config.max_paths () in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Unix.gettimeofday () in
  let m =
    Pool.with_pool ~jobs:1 (fun pool ->
        ok (Methodology.analyze ~config ~budget ~placement ~screen ~pool circuit))
  in
  let methodology_s = Unix.gettimeofday () -. t0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  let report = Report.json_report m in
  { m; report; methodology_s; major_collections }

(* --- the traced replay of the same flow ------------------------------ *)

(* Counts read from the layers' return values during a replay. *)
type counts = {
  mutable explored : int;
  mutable enumerated : int;
  mutable screen_pruned : int;
  mutable screen_visited : int;
  mutable cache_lookups : int;
  mutable cache_hits : int;
  mutable arena_reused : int;
  mutable analyzed : int;
  mutable report_bytes : int;
}

let counts () =
  { explored = 0; enumerated = 0; screen_pruned = 0; screen_visited = 0;
    cache_lookups = 0; cache_hits = 0; arena_reused = 0; analyzed = 0;
    report_bytes = 0 }

(* Methodology.analyze re-made from the public calls it makes, in its
   order, each under its own span: STA, context and the deterministic
   critical path; the screen and the enumeration; per path the Eq. 13
   coefficients, the intra PDF, the inter kernel, the convolution and
   the moments; then rank and report.  It reproduces the untraced
   flow's analyses bit for bit (checked per op by [same_analyses]);
   a jobs-1 run without budget pressure never degrades, so the replay
   has no degradation branches. *)
let replay tr counts source =
  let config = table2_config (spec_of source) in
  let circuit, placement = load tr source in
  ignore (lint tr ~config ~placement circuit : Diagnostic.t list);
  let t0 = Unix.gettimeofday () in
  let m =
    Trace.span tr "core.methodology" @@ fun () ->
    let sta = Trace.span tr "timing.sta" (fun () -> Sta.analyze circuit) in
    let graph = sta.Sta.graph in
    let health = Health.create () in
    let layers, tables, caches, grads =
      Trace.span tr "core.context" (fun () ->
          let layers = Config.layers_for config placement in
          let tables = Inter.tables config in
          let caches =
            if config.Config.inter_cache then Some (Inter.caches_create tables)
            else None
          in
          let grads =
            Array.init (Graph.num_nodes graph) (fun id ->
                match graph.Graph.electrical.(id) with
                | Some e ->
                    Ssta_tech.Derivatives.gradient e Ssta_tech.Params.nominal
                | None -> Ssta_tech.Params.zero)
          in
          (layers, tables, caches, grads))
    in
    let arena = Arena.create () and ws = Path_coeffs.workspace_create () in
    let cache = Option.map Inter.caches_get caches in
    let analyze path =
      Trace.span tr "core.path" @@ fun () ->
      counts.analyzed <- counts.analyzed + 1;
      let coeffs =
        Trace.span tr "correlation.coeffs" (fun () ->
            Path_coeffs.of_path ~grads ~ws graph placement layers path)
      in
      let intra_pdf =
        Trace.span tr "core.intra" (fun () ->
            Guard.check health ~op:"intra pdf" (Intra.pdf config coeffs))
      in
      let inter_pdf =
        Trace.span tr "core.inter" (fun () ->
            Guard.check health ~op:"inter pdf"
              (Inter.of_coeffs ?cache ~arena tables coeffs))
      in
      let total_pdf =
        Trace.span tr "prob.convolve" (fun () ->
            Guard.sum ~n:config.Config.quality_intra ~arena health inter_pdf
              intra_pdf)
      in
      let mo = Trace.span tr "prob.moments" (fun () -> Pdf.moments total_pdf) in
      let mean = mo.Pdf.m_mean and std = sqrt mo.Pdf.m_var in
      { Path_analysis.path;
        gate_count = Paths.path_gate_count graph path;
        coeffs;
        intra_pdf;
        inter_pdf;
        total_pdf;
        det_delay = path.Paths.delay;
        mean;
        std;
        intra_sigma = Pdf.std intra_pdf;
        inter_sigma = Pdf.std inter_pdf;
        confidence_point = mean +. (config.Config.confidence_sigma *. std);
        worst_case =
          Ssta_tech.Corner.path_delay ~k:config.Config.corner_k
            Ssta_tech.Corner.Worst
            (Paths.path_gates graph path) }
    in
    let det_critical = analyze sta.Sta.critical_path in
    let sigma_c = det_critical.Path_analysis.std in
    let slack = config.Config.confidence *. sigma_c in
    let prune, screen_counters =
      Trace.span tr "check.screen" (fun () ->
          Affine.methodology_screen config ~sta ~slack)
    in
    let enumeration =
      Trace.span tr "timing.enum" (fun () ->
          Sta.near_critical ~max_paths:config.Config.max_paths ~prune sta
            ~slack)
    in
    counts.explored <- counts.explored + enumeration.Paths.explored;
    let det_nodes = det_critical.Path_analysis.path.Paths.nodes in
    let analyses =
      List.map
        (fun p -> if p.Paths.nodes = det_nodes then det_critical else analyze p)
        enumeration.Paths.paths
    in
    counts.enumerated <- counts.enumerated + List.length analyses;
    (match Option.map Inter.caches_stats caches with
    | None -> ()
    | Some st ->
        counts.cache_lookups <- counts.cache_lookups + st.Inter.cs_lookups;
        counts.cache_hits <- counts.cache_hits + st.Inter.cs_hits;
        Health.counter_set health "inter-cache-lookups" st.Inter.cs_lookups;
        Health.counter_set health "inter-cache-distinct" st.Inter.cs_distinct;
        Health.counter_set health "inter-cache-hits" st.Inter.cs_hits);
    (let st = Arena.merged_stats [ Arena.stats arena ] in
     counts.arena_reused <- counts.arena_reused + Arena.bytes_reused st;
     if st.Arena.st_borrow_bytes > 0 then begin
       Health.counter_set health "arena-buffers-created"
         (Arena.buffers_created st);
       Health.counter_set health "arena-bytes-reused" (Arena.bytes_reused st);
       Health.counter_set health "arena-peak-bytes" st.Arena.st_peak_bytes
     end);
    List.iter
      (fun (k, v) ->
        if k = "affine-screen-nodes-pruned" then
          counts.screen_pruned <- counts.screen_pruned + v;
        if k = "affine-screen-nodes-visited" then
          counts.screen_visited <- counts.screen_visited + v;
        Health.counter_set health k v)
      screen_counters;
    let analyses = match analyses with [] -> [ det_critical ] | l -> l in
    let ranked = Trace.span tr "core.rank" (fun () -> Ranking.rank analyses) in
    { Methodology.circuit_name = circuit.Netlist.name;
      num_gates = Netlist.num_gates circuit;
      config;
      sta;
      sigma_c;
      slack;
      truncated = enumeration.Paths.truncated || enumeration.Paths.deadline_hit;
      ranked;
      det_critical;
      prob_critical = Ranking.probabilistic_critical ranked;
      runtime_s = 0.0;
      status = Methodology.Complete;
      health }
  in
  let methodology_s = Unix.gettimeofday () -. t0 in
  let report = Trace.span tr "core.report" (fun () -> Report.json_report m) in
  counts.report_bytes <- counts.report_bytes + String.length report;
  (m, report, methodology_s)

(* Bit-for-bit agreement of two runs' per-path means and sigmas, in
   probabilistic order. *)
let same_analyses a b =
  let ra = a.Methodology.ranked and rb = b.Methodology.ranked in
  let bits x = Int64.bits_of_float x in
  Array.length ra = Array.length rb
  && Array.for_all2
       (fun x y ->
         let x = x.Ranking.analysis and y = y.Ranking.analysis in
         bits x.Path_analysis.mean = bits y.Path_analysis.mean
         && bits x.Path_analysis.std = bits y.Path_analysis.std)
       ra rb

(* --- the block sweep ------------------------------------------------- *)

let block_sweep ?(tr = Trace.create false) spec =
  let config = block_config spec in
  let circuit, placement = load tr (Builtin spec) in
  let r =
    Trace.span tr "block.analyze" (fun () ->
        Block.analyze ~config ~placement circuit)
  in
  let report = Trace.span tr "block.report" (fun () -> Block.json_report r) in
  (r, report)
