(* The four workloads.  Each is a closed loop with one caller: it sets
   up, makes a warm-up pass, then runs whole passes over its seeded input
   mix until the run's seconds are spent and the tail percentile has ten
   samples beyond it, timing every op and checking every answer.  Each
   op is preceded by calibration slices, and its wall is reported in
   reference seconds (see Calib).

   With tracing on, each op runs untraced as usual and then again
   traced, where the benchmark times its own calls into each layer.
   Per-layer figures are totals per pass (one op per circuit, or one
   block of thirty requests), averaged over the run's passes. *)

module Iscas85 = Ssta_circuit.Iscas85
module Netlist = Ssta_circuit.Netlist
module Edit = Ssta_circuit.Edit
module Bench_format = Ssta_circuit.Bench_format
module Methodology = Ssta_core.Methodology
module Impact = Ssta_check.Impact
module Server = Ssta_server.Server
module Json = Ssta_server.Json
module Pool = Ssta_parallel.Pool
module Rng = Ssta_prob.Rng

let now = Unix.gettimeofday

type workload = {
  name : string;
  tail : float;  (* the op_tail_s percentile *)
  slices : int;  (* calibration slices before each op *)
  why : string;
}

let all =
  [ { name = "deep-paths";
      tail = 75.0;
      slices = 4;
      why =
        "cold path flows on c499, c1355 and c6288 with 1280-2000 \
         near-critical paths each, so the per-path layers do most of the \
         work" };
    { name = "wide-shallow";
      tail = 95.0;
      slices = 1;
      why =
        "cold path flows from .bench text on c2670, c3540, c5315 and \
         c7552: 1269-3513 gates but only 10-88 paths, so per-circuit layers \
         and inter-kernel misses carry the cost" };
    { name = "eco-session";
      tail = 90.0;
      slices = 1;
      why =
        "a warm c1355 server answering seeded what-if, edit \
         and inverse, query and run requests: the only workload where \
         the impact path cache serves repeated work" };
    { name = "block-sweep";
      tail = 75.0;
      slices = 2;
      why =
        "a cold block-engine sweep with the Clark max and its JSON report \
         on all ten circuits: block cost grows with gates, not paths" } ]

let find name = List.find_opt (fun w -> w.name = name) all

let spec name = Option.get (Iscas85.by_name name)

type result = {
  setup_s : float;
  latencies : (string * float) list;  (* op kind and untraced wall *)
  timed_s : float;  (* wall of the timed region *)
  attempted : int;
  failed : int;
  cp_rel_err : float;
  layers : (string * float * string) list;  (* traced run only *)
  notes : string list;  (* per traced op, in order *)
  calib : Calib.t;  (* the slices taken before the timed ops *)
}

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* The start of a fresh process of the tool, which every [ssta]
   invocation pays once: the OCaml runtime and the initialisation of
   every library module.  The benchmark's own executable links the same
   libraries; started with [noop] it exits at once. *)
let process_start () = Calib.run_process [| Sys.executable_name; "noop" |]

(* Set-up: a process start, then [setup]; run [n] times, each on a
   collected heap that no longer holds the previous set-up's value, and
   after a calibration slice and a reference process start.  The median
   in reference seconds -- the process start scaled by the reference
   start, [setup] by the slice -- and the last value. *)
let setups n setup =
  let calib = Calib.create () and starts = Calib.starts () in
  let walls = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.full_major ();
    let slice = Calib.measure calib in
    let start = Calib.measure starts in
    let (), start_s = timed process_start in
    let v, dt = timed setup in
    walls := (slice, dt, start, start_s) :: !walls;
    last := Some v
  done;
  let f = Calib.factors calib and g = Calib.factors starts in
  ( Stats.median
      (List.map (fun (i, dt, j, p) -> (g.(j) *. p) +. (f.(i) *. dt)) !walls),
    Option.get !last )

(* Op walls, each taken next to calibration slice [i], in reference
   seconds, and the wall of the timed region scaled by the factor of its
   ops, weighted by their walls. *)
let calibrated calib lats ~timed_s =
  let f = Calib.factors calib in
  let scaled = List.map (fun (k, dt, i) -> (k, f.(i) *. dt)) lats in
  let sum l = List.fold_left ( +. ) 0.0 l in
  let walls = sum (List.map (fun (_, dt, _) -> dt) lats) in
  let scale = if walls > 0.0 then sum (List.map snd scaled) /. walls else 1.0 in
  (scaled, scale *. timed_s)

(* An untraced run's warm-up pass, whose ops are run and checked but not
   timed, then whole passes until [seconds] have passed and there are
   [min_ops] ops.  [pass i] runs pass [i] and returns its op count;
   [warming] is set during the warm-up pass, and [start] runs between it
   and the timed region.  A traced run has no warm-up, so that its
   replays meet every op.  The wall of the timed region and its pass
   count. *)
let loop ~tr ~seconds ~min_ops ~warming ?(start = ignore) pass =
  let first = if Trace.enabled tr then 0 else 1 in
  if first = 1 then begin
    warming := true;
    ignore (pass 0);
    warming := false
  end;
  start ();
  let t0 = now () in
  let ops = ref 0 and passes = ref first in
  while now () -. t0 < seconds || !ops < min_ops do
    ops := !ops + pass !passes;
    incr passes
  done;
  (now () -. t0, !passes - first)

(* An untraced run goes on until its tail percentile has ten samples
   beyond it; a traced run reports no percentile. *)
let min_ops tr w = if Trace.enabled tr then 1 else Stats.min_samples w.tail

(* The seeded order of [items] in pass [i]. *)
let shuffled ~seed i items =
  let a = Array.of_list items in
  Rng.shuffle (Rng.create ((seed * 7919) + i)) a;
  Array.to_list a

(* --- per-layer bookkeeping of a traced run ------------------------------ *)

(* The tracing overhead compares each traced op with an untraced twin
   that runs the same code just before it, each on a collected heap: the
   replay for a path flow, the same calls for a block sweep, the served
   request for eco-session. *)

type acc = {
  counts : Flows.counts;
  mutable untraced_s : float;  (* walls of the untraced twins *)
  mutable traced_s : float;  (* traced op walls *)
  mutable methodology_gap_s : float;
  mutable major : int;
  mutable mismatches : int;  (* replays that did not reproduce the op *)
  mutable reused : int;
  mutable reanalyzed : int;
  mutable cone_nodes : int;
  mutable full : int;  (* impact outcomes that reused no path *)
  mutable impact_ops : int;
  mutable dispatch_self_s : float;
  mutable parks : int;  (* worker park sessions during the timed region *)
  mutable idle_workers : int;  (* parked workers at its end *)
  mutable notes : string list;  (* one line per traced op, newest first *)
}

let acc () =
  { counts = Flows.counts (); untraced_s = 0.0; traced_s = 0.0;
    methodology_gap_s = 0.0; major = 0; mismatches = 0; reused = 0;
    reanalyzed = 0; cone_nodes = 0; full = 0; impact_ops = 0;
    dispatch_self_s = 0.0; parks = 0; idle_workers = 0; notes = [] }

let ratio a b = if b = 0 then 0.0 else float a /. float b

let per_path_spans =
  [ "correlation.coeffs"; "core.intra"; "core.inter"; "prob.convolve";
    "prob.moments"; "core.path" ]

let per_circuit_spans =
  [ "circuit.load"; "lint.run"; "timing.sta"; "check.screen"; "core.context";
    "timing.enum" ]

let spans_s tr names =
  List.fold_left (fun acc n -> acc +. Trace.self_s tr n) 0.0 names

(* Every per-layer metric, in BENCHMARK.json's order; layers a workload
   does not reach read 0. *)
let layer_metrics tr a ~passes =
  let p = float (Int.max 1 passes) in
  let s name = Trace.self_s tr name /. p in
  let w name = Trace.self_words tr name /. p in
  let c = a.counts in
  let op_wall = a.traced_s /. p in
  let ops_s = Trace.total_self_s tr in
  [ ("circuit.load_s", s "circuit.load", "s");
    ("circuit.edit_parse_s", s "circuit.edit_parse", "s");
    ("lint.run_s", s "lint.run", "s");
    ("lint.edit_check_s", s "lint.edit_check", "s");
    ("timing.sta_s", s "timing.sta", "s");
    ("timing.enum_s", s "timing.enum", "s");
    ("timing.enum_explored", float c.Flows.explored /. p, "count");
    ("timing.enum_yield", ratio c.Flows.enumerated c.Flows.explored, "ratio");
    ("check.screen_s", s "check.screen", "s");
    ( "check.screen_prune_ratio",
      ratio c.Flows.screen_pruned c.Flows.screen_visited,
      "ratio" );
    ("core.context_s", s "core.context", "s");
    ("correlation.coeffs_s", s "correlation.coeffs", "s");
    ("correlation.coeffs_words", w "correlation.coeffs", "words");
    ("core.intra_s", s "core.intra", "s");
    ("core.intra_words", w "core.intra", "words");
    ("core.inter_s", s "core.inter", "s");
    ( "core.inter_cache_hit_ratio",
      ratio c.Flows.cache_hits c.Flows.cache_lookups,
      "ratio" );
    ("prob.convolve_s", s "prob.convolve", "s");
    ("prob.convolve_words", w "prob.convolve", "words");
    ("prob.moments_s", s "prob.moments", "s");
    ("prob.arena_bytes_reused", float c.Flows.arena_reused /. p, "B");
    ("core.path_s", s "core.path", "s");
    ( "core.path_words_per_path",
      (if c.Flows.analyzed = 0 then 0.0
       else
         List.fold_left (fun acc n -> acc +. Trace.self_words tr n) 0.0
           per_path_spans
         /. float c.Flows.analyzed),
      "words" );
    ("core.methodology_s", s "core.methodology", "s");
    ("core.methodology_gap_s", a.methodology_gap_s /. p, "s");
    ("gc.major_collections", float a.major /. p, "count");
    ("core.rank_s", s "core.rank", "s");
    ("core.report_s", s "core.report", "s");
    ("core.report_bytes", float c.Flows.report_bytes /. p, "B");
    ("block.analyze_s", s "block.analyze", "s");
    ("block.report_s", s "block.report", "s");
    ("block.words", (w "block.analyze" +. w "block.report"), "words");
    ("check.impact_s", s "check.impact", "s");
    ("check.impact_reuse_ratio", ratio a.reused (a.reused + a.reanalyzed), "ratio");
    ("check.impact_cone_nodes", float a.cone_nodes /. p, "count");
    ("check.impact_full_share", ratio a.full a.impact_ops, "ratio");
    ("server.decode_s", s "server.decode", "s");
    ("server.dispatch_self_s", (a.dispatch_self_s +. Trace.self_s tr "server.dispatch") /. p, "s");
    ("parallel.park_count", float a.parks /. p, "count");
    ("parallel.idle_workers", float a.idle_workers, "count");
    ("trace.op_wall_s", op_wall, "s");
    ("trace.untraced_op_wall_s", a.untraced_s /. p, "s");
    ("trace.overhead_s", (a.traced_s -. a.untraced_s) /. p, "s");
    ("trace.unattributed_s", s "op", "s");
    ("trace.balance_s", (a.traced_s -. ops_s) /. p, "s");
    ("trace.replay_mismatches", float a.mismatches, "count");
    ( "share.per_path_layers",
      (if a.traced_s = 0.0 then 0.0 else spans_s tr per_path_spans /. a.traced_s),
      "ratio" );
    ( "share.per_circuit_layers",
      (if a.traced_s = 0.0 then 0.0 else spans_s tr per_circuit_spans /. a.traced_s),
      "ratio" ) ]

(* --- batch workloads: deep-paths, wide-shallow, block-sweep ----------- *)

(* One op of a batch workload: [run] makes it untraced and returns its
   answer plus the traced replay, which reruns the op under spans and
   compares it with the untraced result. *)
type batch_op = {
  label : string;
  run : unit -> Flows.answer * (Trace.t -> acc -> unit);
}

let traced_op tr a f =
  let v, wall = Trace.op tr "op" f in
  a.traced_s <- a.traced_s +. wall;
  v

let path_op source =
  let name = (Flows.spec_of source).Iscas85.name in
  let run () =
    let f = Flows.path_flow source in
    let replay tr a =
      (* The gap is measured against an untraced replay, so that it
         holds no tracing overhead.  Each replay starts on a collected
         heap, like the op it is compared with. *)
      Gc.full_major ();
      let (_, _, replayed_s), twin_s =
        timed (fun () -> Flows.replay (Trace.create false) (Flows.counts ()) source)
      in
      a.untraced_s <- a.untraced_s +. twin_s;
      Gc.full_major ();
      let per_path0 = spans_s tr per_path_spans in
      let m, report, _ =
        traced_op tr a (fun () -> Flows.replay tr a.counts source)
      in
      a.major <- a.major + f.Flows.major_collections;
      a.methodology_gap_s <-
        a.methodology_gap_s +. (f.Flows.methodology_s -. replayed_s);
      a.notes <-
        Printf.sprintf
          "%s: Methodology.analyze %.4f s, untraced replay %.4f s (gap \
           %+.4f s), traced per-path layers %.4f s, %d major GCs"
          name f.Flows.methodology_s replayed_s
          (f.Flows.methodology_s -. replayed_s)
          (spans_s tr per_path_spans -. per_path0)
          f.Flows.major_collections
        :: a.notes;
      if not (Flows.same_analyses f.Flows.m m && report = f.Flows.report) then begin
        a.mismatches <- a.mismatches + 1;
        Printf.eprintf "replay of %s differs from Methodology\n%!" name
      end
    in
    (Flows.answer_of_methodology f.Flows.m, replay)
  in
  { label = name; run }

let block_op spec =
  let run () =
    let r, _ = Flows.block_sweep spec in
    let replay tr a =
      Gc.full_major ();
      let (), twin_s = timed (fun () -> ignore (Flows.block_sweep spec)) in
      a.untraced_s <- a.untraced_s +. twin_s;
      let analyze0 = Trace.self_s tr "block.analyze" in
      Gc.full_major ();
      traced_op tr a (fun () -> ignore (Flows.block_sweep ~tr spec));
      a.notes <-
        Printf.sprintf "%s: Engine.analyze %.4f s" spec.Iscas85.name
          (Trace.self_s tr "block.analyze" -. analyze0)
        :: a.notes
    in
    (Flows.answer_of_block r, replay)
  in
  { label = spec.Iscas85.name; run }

let deep_circuits = [ "c499"; "c1355"; "c6288" ]
let wide_circuits = [ "c2670"; "c3540"; "c5315"; "c7552" ]

(* Set-up is a process start and the op list.  Each op pays its own
   load, as [ssta run] does, so on deep-paths and block-sweep the op list
   is only the circuit lookups.  On wide-shallow it also renders each
   circuit's .bench text once, as a user's files would already exist;
   each op then parses it, as [ssta run --bench] does.  The stored
   references are read before, outside set-up. *)
let run_batch w ~seed ~seconds ~tr =
  let refs = Refs.load () in
  let calib = Calib.create () in
  let setup_s, ops =
    setups 25 (fun () ->
        match w.name with
        | "deep-paths" ->
            List.map (fun n -> path_op (Flows.Builtin (spec n))) deep_circuits
        | "wide-shallow" ->
            List.map
              (fun n ->
                let circuit, _ = Iscas85.build_placed (spec n) in
                path_op
                  (Flows.Bench_text (spec n, Bench_format.to_string circuit)))
              wide_circuits
        | _ -> List.map block_op Iscas85.all)
  in
  let reference =
    if w.name = "block-sweep" then refs.Refs.block else refs.Refs.path
  in
  let a = acc () in
  let lats = ref [] and attempted = ref 0 and failed = ref 0 in
  let cp_rel_err = ref 0.0 in
  let isolation_s = ref 0.0 and warming = ref false in
  let one op =
    incr attempted;
    (* Each op starts on a collected heap, as a fresh [ssta run] process
       would, after calibration slices; neither is part of the op or of
       the timed region. *)
    let slice, gc_s =
      timed (fun () ->
          Gc.full_major ();
          if !warming then -1 else Calib.measure ~slices:w.slices calib)
    in
    if not !warming then isolation_s := !isolation_s +. gc_s;
    match timed op.run with
    | exception e ->
        incr failed;
        Printf.eprintf "op %s failed: %s\n%!" op.label (Printexc.to_string e)
    | (answer, replay), dt ->
        if not !warming then lats := (op.label, dt, slice) :: !lats;
        if not (Refs.matches (List.assoc op.label reference) answer) then begin
          incr failed;
          Printf.eprintf "op %s: answer differs from the reference: %s\n%!"
            op.label (Refs.pp_answer answer)
        end;
        cp_rel_err :=
          Float.max !cp_rel_err
            (Refs.rel_err ~reference:(List.assoc op.label refs.Refs.hires)
               answer.Flows.cp);
        if Trace.enabled tr && not !warming then replay tr a
  in
  let timed_s, passes =
    loop ~tr ~seconds ~min_ops:(min_ops tr w) ~warming (fun i ->
        let order = shuffled ~seed i ops in
        List.iter one order;
        List.length order)
  in
  let layers =
    if Trace.enabled tr then layer_metrics tr a ~passes else []
  in
  let latencies, timed_s =
    calibrated calib (List.rev !lats) ~timed_s:(timed_s -. !isolation_s)
  in
  { setup_s; latencies; timed_s;
    attempted = !attempted; failed = !failed; cp_rel_err = !cp_rel_err; layers;
    notes = List.rev a.notes; calib }

(* --- eco-session -------------------------------------------------------- *)

module Rules_edit = Ssta_lint.Rules_edit

let without_id j =
  match j with
  | Json.Obj l -> Json.to_string (Json.Obj (List.remove_assoc "id" l))
  | j -> Json.to_string j

(* What-ifs re-checked after the timed region against a from-scratch run
   of the edited design. *)
let eco_spot_checks = 3

(* Set-up is load, Server.create and the first impact-image build.
   Given a [catalogue] (regeneration), the answers are only recorded. *)
let run_eco ?catalogue ~seed ~seconds ~tr () =
  Pool.with_pool
    ~jobs:(if Trace.enabled tr then Eco.traced_jobs else Eco.workers)
  @@ fun pool ->
  let refs = if catalogue = None then Some (Refs.load ()) else None in
  let calib = Calib.create () in
  let setup_s, (server, circuit, placement, noop) =
    setups 9 (fun () -> Eco.start ~pool ())
  in
  let catalogue =
    match catalogue, refs with
    | Some c, _ -> c
    | None, Some r -> r.Refs.eco_catalogue
    | None, None -> assert false
  in
  let failed = ref 0 and attempted = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failed;
        prerr_endline s)
      fmt
  in
  if Eco.ok_response noop = None then fail "eco: setup edit refused: %s" noop;
  (* Baseline answers of the served design, taken untimed: every later
     run and query meets the same design, so must give the same bytes. *)
  let design = Impact.design ~placement ~config:(Eco.config ()) circuit in
  let dispatch line = Server.dispatch server (Eco.decode line) in
  let baseline_run =
    match Eco.ok_response (dispatch (Eco.make Eco.Run ~id:0 ()).Eco.line) with
    | Some j -> Eco.summary j
    | None -> []
  in
  let baseline_cp =
    Option.value ~default:nan
      (Option.bind (List.assoc_opt "confidence_point_s" baseline_run)
         float_of_string_opt)
  in
  Option.iter
    (fun refs ->
      let b = refs.Refs.eco_baseline in
      if
        List.assoc_opt "paths" baseline_run <> Some (string_of_int b.Flows.paths)
        || not (Refs.close baseline_cp b.Flows.cp)
      then fail "eco: baseline run differs from the reference")
    refs;
  let baseline_query = Hashtbl.create 64 in
  Array.iter
    (fun o ->
      let name = Netlist.node_name circuit o in
      let r = dispatch (Eco.make Eco.Query ~id:0 ~endpoint:name ()).Eco.line in
      match Eco.ok_response r with
      | Some j -> Hashtbl.replace baseline_query name (without_id j)
      | None -> fail "eco: baseline query %s refused" name)
    circuit.Netlist.outputs;
  (* The mirror image the traced replay drives with the same edits. *)
  let mirror =
    if Trace.enabled tr then
      match Impact.init ~pool design with
      | Ok (s, _) -> Some s
      | Error e -> Ssta_runtime.Ssta_error.raise_error e
    else None
  in
  let a = acc () in
  let lats = ref [] and recorded = ref [] and what_ifs = ref [] in
  let cp_of m =
    m.Methodology.prob_critical.Ssta_core.Ranking.analysis
      .Ssta_core.Path_analysis.confidence_point
  in
  (* The traced request: decode, then for edits and what-ifs the calls
     the server makes (parse, edit lint, impact analysis) on the mirror
     image; run and query go to the server whole. *)
  let replayed_spans =
    [ "circuit.edit_parse"; "lint.edit_check"; "check.impact" ]
  in
  let replay (r : Eco.request) resp ~served_s =
    let outcome = ref None in
    let replayed0 = spans_s tr replayed_spans in
    traced_op tr a (fun () ->
        let env =
          Trace.span tr "server.decode" (fun () -> Eco.decode r.Eco.line)
        in
        match r.Eco.kind, mirror with
        | (Eco.What_if | Eco.Commit | Eco.Inverse), Some state ->
            let text = Eco.render_script r.Eco.script in
            let script =
              Trace.span tr "circuit.edit_parse" (fun () ->
                  Flows.ok (Edit.parse_string_res text))
            in
            let d = Impact.design_of state in
            ignore
              (Trace.span tr "lint.edit_check" (fun () ->
                   Rules_edit.check ~placement:d.Impact.placement
                     ~drives:d.Impact.drives ~config:d.Impact.config
                     d.Impact.circuit script));
            let o =
              Trace.span tr "check.impact" (fun () ->
                  (if r.Eco.kind = Eco.What_if then Impact.what_if
                   else Impact.reanalyze)
                    ~pool state script)
            in
            outcome := Some (Flows.ok o)
        | _ ->
            ignore
              (Trace.span tr "server.dispatch" (fun () ->
                   Server.dispatch server env)));
    match !outcome with
    | None -> ()
    | Some o ->
        (* The served request's own work: its wall minus the replayed
           calls it makes. *)
        a.dispatch_self_s <-
          a.dispatch_self_s +. served_s
          -. (spans_s tr replayed_spans -. replayed0);
        let m = o.Impact.report in
        a.reused <- a.reused + o.Impact.reused;
        a.reanalyzed <- a.reanalyzed + o.Impact.reanalyzed;
        a.cone_nodes <- a.cone_nodes + o.Impact.cone.Impact.cone_nodes;
        a.impact_ops <- a.impact_ops + 1;
        if o.Impact.reused = 0 then a.full <- a.full + 1;
        let same =
          match Eco.ok_response resp with
          | None -> false
          | Some j ->
              Eco.num "reused" j = Some (float o.Impact.reused)
              && Eco.num "reanalyzed" j = Some (float o.Impact.reanalyzed)
              && Eco.num "paths" j
                 = Some (float (Methodology.num_critical_paths m))
              && Eco.num "confidence_point_s" j = Some (cp_of m)
        in
        if not same then begin
          a.mismatches <- a.mismatches + 1;
          prerr_endline "eco: replay differs from the served answer"
        end
  in
  let cp_rel_err = ref 0.0 in
  let calib_s = ref 0.0 and warming = ref false in
  let one (r : Eco.request) =
    incr attempted;
    let slice, cal_s =
      if !warming then (-1, 0.0) else timed (fun () -> Calib.measure calib)
    in
    calib_s := !calib_s +. cal_s;
    let resp, dt = timed (fun () -> dispatch r.Eco.line) in
    if not !warming then begin
      lats := (Eco.kind_name r.Eco.kind, dt, slice) :: !lats;
      a.untraced_s <- a.untraced_s +. dt
    end;
    (match Eco.ok_response resp with
    | None -> fail "eco: %s refused: %s" (Eco.kind_name r.Eco.kind) resp
    | Some j -> (
        let s = Eco.summary j in
        if List.length !recorded < Refs.eco_recorded then
          recorded := (Eco.kind_name r.Eco.kind, s) :: !recorded;
        match r.Eco.kind with
        | Eco.Run | Eco.Inverse ->
            if s <> baseline_run then
              fail "eco: %s does not restore the baseline answer"
                (Eco.kind_name r.Eco.kind);
            Option.iter
              (fun refs ->
                cp_rel_err :=
                  Float.max !cp_rel_err
                    (Refs.rel_err ~reference:refs.Refs.eco_hires
                       (Option.value ~default:nan (Eco.num "confidence_point_s" j))))
              refs
        | Eco.Query ->
            if
              Hashtbl.find_opt baseline_query r.Eco.endpoint
              <> Some (without_id j)
            then fail "eco: query %s differs from the baseline" r.Eco.endpoint
        | Eco.What_if -> what_ifs := (r.Eco.script, s) :: !what_ifs
        | Eco.Commit -> ()));
    if Trace.enabled tr && not !warming then replay r resp ~served_s:dt
  in
  let parks0 = ref 0 in
  let timed_s, passes =
    loop ~tr ~seconds ~min_ops:(min_ops tr (Option.get (find "eco-session")))
      ~warming ~start:(fun () -> parks0 := Pool.park_count pool)
      (fun i ->
        let reqs = Eco.block_at ~seed catalogue design i in
        List.iter one reqs;
        List.length reqs)
  in
  a.parks <- Pool.park_count pool - !parks0;
  a.idle_workers <- Pool.idle_workers pool;
  (* Spot checks: a few what-if answers against a from-scratch run of
     the edited design (the certification comparand). *)
  let rng = Rng.create seed in
  let candidates = Array.of_list !what_ifs in
  for _ = 1 to Int.min eco_spot_checks (Array.length candidates) do
    let script, s = candidates.(Rng.int rng (Array.length candidates)) in
    match Impact.resolve design script with
    | Error _ -> fail "eco: spot check could not resolve its edit"
    | Ok changes -> (
        match Impact.scratch (Impact.apply design changes) with
        | Error _ -> fail "eco: spot check scratch run failed"
        | Ok m ->
            if
              List.assoc_opt "paths" s
              <> Some (string_of_int (Methodology.num_critical_paths m))
              || List.assoc_opt "confidence_point_s" s
                 <> Some (Json.to_string (Json.Number (cp_of m)))
            then fail "eco: what-if differs from a from-scratch run")
  done;
  let recorded = List.rev !recorded in
  (* At the recorded seed, every recorded response must match. *)
  Option.iter
    (fun refs ->
      if seed = Refs.eco_seed then
        List.iteri
          (fun i (k, s) ->
            match List.nth_opt refs.Refs.eco_responses i with
            | Some (k', s') when k = k' && s = s' -> ()
            | _ -> fail "eco: response %d differs from the recorded one" i)
          recorded)
    refs;
  let layers =
    if Trace.enabled tr then layer_metrics tr a ~passes else []
  in
  let latencies, timed_s =
    calibrated calib (List.rev !lats) ~timed_s:(timed_s -. !calib_s)
  in
  ( recorded,
    { setup_s; latencies; timed_s;
      attempted = !attempted; failed = !failed; cp_rel_err = !cp_rel_err;
      layers; notes = List.rev a.notes; calib } )
