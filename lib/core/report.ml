module Pdf = Ssta_prob.Pdf
module Elmore = Ssta_tech.Elmore
module Sta = Ssta_timing.Sta
module Iscas85 = Ssta_circuit.Iscas85

type table2_row = {
  name : string;
  num_gates : int;
  det_delay_ps : float;
  worst_case_ps : float;
  overestimation_pct : float;
  confidence : float;
  num_critical_paths : int;
  truncated : bool;
  prob_mean_ps : float;
  prob_sigma3_ps : float;
  critical_path_gates : int;
  det_rank_of_prob_critical : int;
  runtime_s : float;
}

let table2_row (m : Methodology.t) =
  let prob = m.Methodology.prob_critical.Ranking.analysis in
  { name = m.Methodology.circuit_name;
    num_gates = m.Methodology.num_gates;
    det_delay_ps = Elmore.ps m.Methodology.sta.Sta.critical_delay;
    worst_case_ps = Elmore.ps m.Methodology.det_critical.Path_analysis.worst_case;
    overestimation_pct = Methodology.overestimation_pct m;
    confidence = m.Methodology.config.Config.confidence;
    num_critical_paths = Methodology.num_critical_paths m;
    truncated = m.Methodology.truncated;
    prob_mean_ps = Elmore.ps prob.Path_analysis.mean;
    prob_sigma3_ps = Elmore.ps prob.Path_analysis.confidence_point;
    critical_path_gates = prob.Path_analysis.gate_count;
    det_rank_of_prob_critical =
      Ranking.det_rank_of_prob_critical m.Methodology.ranked;
    runtime_s = m.Methodology.runtime_s }

let pp_table2_header fmt () =
  Format.fprintf fmt
    "%-7s %6s %10s %10s %7s %6s %7s %10s %10s %6s %6s %8s@." "name" "gates"
    "det(ps)" "worst(ps)" "over%" "C" "paths" "mean(ps)" "3sig(ps)" "cpg"
    "drank" "time(s)"

let pp_table2_row fmt r =
  Format.fprintf fmt
    "%-7s %6d %10.3f %10.3f %7.2f %6.3f %6d%s %10.3f %10.3f %6d %6d %8.2f@."
    r.name r.num_gates r.det_delay_ps r.worst_case_ps r.overestimation_pct
    r.confidence r.num_critical_paths
    (if r.truncated then "+" else " ")
    r.prob_mean_ps r.prob_sigma3_ps r.critical_path_gates
    r.det_rank_of_prob_critical r.runtime_s

let pp_table2_comparison fmt ~(paper : Iscas85.paper_row) r =
  Format.fprintf fmt
    "%-7s over%%: %.1f (paper %.1f)  paths: %d (paper %d)  det-rank: %d (paper %d)  mean/det shift: %+.3f ps@."
    r.name r.overestimation_pct paper.Iscas85.overestimation_pct
    r.num_critical_paths paper.Iscas85.num_critical_paths
    r.det_rank_of_prob_critical paper.Iscas85.det_rank_of_prob_critical
    (r.prob_mean_ps -. r.det_delay_ps)

type table3_row = {
  scenario : string;
  inter_fraction : float;
  mean_ps : float;
  total_sigma_ps : float;
  inter_sigma_ps : float;
  intra_sigma_ps : float;
  num_paths : int;
}

let table3_row ~scenario ~inter_fraction (m : Methodology.t) =
  let d = m.Methodology.det_critical in
  { scenario;
    inter_fraction;
    mean_ps = Elmore.ps d.Path_analysis.mean;
    total_sigma_ps = Elmore.ps d.Path_analysis.std;
    inter_sigma_ps = Elmore.ps d.Path_analysis.inter_sigma;
    intra_sigma_ps = Elmore.ps d.Path_analysis.intra_sigma;
    num_paths = Methodology.num_critical_paths m }

let pp_table3_header fmt () =
  Format.fprintf fmt "%-28s %10s %10s %10s %10s %7s@." "scenario" "mean(ps)"
    "total s" "inter s" "intra s" "paths"

let pp_table3_row fmt r =
  Format.fprintf fmt "%-28s %10.3f %10.3f %10.3f %10.3f %7d@." r.scenario
    r.mean_ps r.total_sigma_ps r.inter_sigma_ps r.intra_sigma_ps r.num_paths

let pp_path_report fmt (g : Ssta_timing.Graph.t) (a : Path_analysis.t) =
  let module Graph = Ssta_timing.Graph in
  let module Netlist = Ssta_circuit.Netlist in
  let module Gate = Ssta_tech.Gate in
  Format.fprintf fmt "%-16s %-8s %10s %10s@." "node" "gate" "incr(ps)"
    "arrival(ps)";
  let arrival = ref 0.0 in
  Array.iter
    (fun id ->
      let name = Netlist.node_name g.Graph.circuit id in
      if Graph.is_input g id then
        Format.fprintf fmt "%-16s %-8s %10s %10.3f@." name "(input)" "-" 0.0
      else begin
        let incr_delay = g.Graph.delay.(id) in
        arrival := !arrival +. incr_delay;
        Format.fprintf fmt "%-16s %-8s %10.3f %10.3f@." name
          (Gate.name (Graph.electrical_exn g id).Gate.kind)
          (Elmore.ps incr_delay) (Elmore.ps !arrival)
      end)
    a.Path_analysis.path.Ssta_timing.Paths.nodes;
  Format.fprintf fmt "%-16s %-8s %10s %10.3f@." "= nominal" "" ""
    (Elmore.ps a.Path_analysis.det_delay);
  Format.fprintf fmt
    "statistical: mean %.3f ps, sigma %.3f ps (inter %.3f / intra %.3f), \
     %g-sigma point %.3f ps@."
    (Elmore.ps a.Path_analysis.mean)
    (Elmore.ps a.Path_analysis.std)
    (Elmore.ps a.Path_analysis.inter_sigma)
    (Elmore.ps a.Path_analysis.intra_sigma)
    ((a.Path_analysis.confidence_point -. a.Path_analysis.mean)
    /. a.Path_analysis.std)
    (Elmore.ps a.Path_analysis.confidence_point);
  Format.fprintf fmt "worst-case corner: %.3f ps (+%.1f%% vs confidence point)@."
    (Elmore.ps a.Path_analysis.worst_case)
    (Path_analysis.overestimation_pct a)

let pdf_csv p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "delay_ps,density\n";
  for i = 0 to Pdf.size p - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%.6f,%.9g\n"
         (Elmore.ps (Pdf.x_at p i))
         (p.Pdf.density.(i) /. 1e12))
  done;
  Buffer.contents buf

let pdfs_csv named =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "series,delay_ps,density\n";
  List.iter
    (fun (name, p) ->
      for i = 0 to Pdf.size p - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%s,%.6f,%.9g\n" name
             (Elmore.ps (Pdf.x_at p i))
             (p.Pdf.density.(i) /. 1e12))
      done)
    named;
  Buffer.contents buf

let rank_scatter_csv pairs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "det_rank,prob_rank\n";
  Array.iter
    (fun (d, p) -> Buffer.add_string buf (Printf.sprintf "%d,%d\n" d p))
    pairs;
  Buffer.contents buf

(* ----- deterministic JSON report -----

   Everything here is a pure function of the analysis results: floats
   are printed with round-trip precision and no wall-clock or host
   detail is included, so two runs that computed identical results
   produce byte-identical JSON.  This is the artifact the parallel
   determinism tests diff across worker counts. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [Printf.sprintf "%.17g"] hands a [%g] conversion to this primitive;
   calling it directly gives the same bytes without interpreting the
   format on every number. *)
external format_float : string -> float -> string = "caml_format_float"

let jfloat v = format_float "%.17g" v

(* Decimal digits of [n], the bytes [string_of_int] gives, written
   straight into [buf]. *)
let rec add_int buf n =
  if n < 0 then begin
    if n = min_int then Buffer.add_string buf (string_of_int n)
    else begin
      Buffer.add_char buf '-';
      add_int buf (-n)
    end
  end
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_path_analysis buf (a : Path_analysis.t) =
  let add = Buffer.add_string buf in
  let num k v =
    add k;
    add (jfloat v)
  in
  add "{\"nodes\":[";
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf id)
    a.Path_analysis.path.Ssta_timing.Paths.nodes;
  add "],\"gate_count\":";
  add_int buf a.Path_analysis.gate_count;
  num ",\"det_delay_s\":" a.Path_analysis.det_delay;
  num ",\"mean_s\":" a.Path_analysis.mean;
  num ",\"std_s\":" a.Path_analysis.std;
  num ",\"intra_sigma_s\":" a.Path_analysis.intra_sigma;
  num ",\"inter_sigma_s\":" a.Path_analysis.inter_sigma;
  num ",\"confidence_point_s\":" a.Path_analysis.confidence_point;
  num ",\"worst_case_s\":" a.Path_analysis.worst_case;
  Buffer.add_char buf '}'

let json_of_pdf (p : Pdf.t) =
  Printf.sprintf "{\"lo\":%s,\"step\":%s,\"density\":[%s]}" (jfloat p.Pdf.lo)
    (jfloat p.Pdf.step)
    (String.concat ","
       (Array.to_list (Array.map jfloat p.Pdf.density)))

let json_report (m : Methodology.t) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let cfg = m.Methodology.config in
  add "{\"circuit\":\"%s\"," (json_escape m.Methodology.circuit_name);
  add "\"engine\":\"%s\"," (Config.engine_name cfg.Config.engine);
  add "\"gates\":%d," m.Methodology.num_gates;
  add
    "\"config\":{\"confidence\":%s,\"quality_intra\":%d,\"quality_inter\":%d,\"confidence_sigma\":%s,\"corner_k\":%s,\"max_paths\":%d,\"inter_cache\":%b},"
    (jfloat cfg.Config.confidence)
    cfg.Config.quality_intra cfg.Config.quality_inter
    (jfloat cfg.Config.confidence_sigma)
    (jfloat cfg.Config.corner_k) cfg.Config.max_paths cfg.Config.inter_cache;
  add "\"critical_delay_s\":%s,"
    (jfloat m.Methodology.sta.Sta.critical_delay);
  add "\"sigma_c_s\":%s," (jfloat m.Methodology.sigma_c);
  add "\"slack_s\":%s," (jfloat m.Methodology.slack);
  add "\"truncated\":%b," m.Methodology.truncated;
  add "\"degradations\":[%s],"
    (String.concat ","
       (List.map
          (fun d ->
            Printf.sprintf "\"%s\""
              (json_escape
                 (Format.asprintf "%a" Ssta_runtime.Budget.pp_degradation d)))
          (Methodology.degradations m)));
  let h = m.Methodology.health in
  let worst, worst_op = Ssta_runtime.Health.worst_defect h in
  add
    "\"health\":{\"count\":%d,\"renormalizations\":%d,\"worst_defect\":%s,\"worst_op\":\"%s\",\"counters\":{%s}},"
    (Ssta_runtime.Health.count h)
    (Ssta_runtime.Health.renormalizations h)
    (jfloat worst) (json_escape worst_op)
    (* counters are sorted by name, so this is deterministic; only
       scheduling-independent counters are ever recorded (see
       Methodology) *)
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v)
          (Ssta_runtime.Health.counters h)));
  add "\"det_critical\":";
  add_path_analysis buf m.Methodology.det_critical;
  add ",";
  add "\"prob_critical_pdf\":%s,"
    (json_of_pdf
       m.Methodology.prob_critical.Ranking.analysis.Path_analysis.total_pdf);
  add "\"paths\":[";
  Array.iteri
    (fun i (r : Ranking.ranked) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"prob_rank\":";
      add_int buf r.Ranking.prob_rank;
      Buffer.add_string buf ",\"det_rank\":";
      add_int buf r.Ranking.det_rank;
      Buffer.add_string buf ",\"analysis\":";
      add_path_analysis buf r.Ranking.analysis;
      Buffer.add_char buf '}')
    m.Methodology.ranked;
  add "]}";
  Buffer.contents buf

let pp_run_status fmt (t : Methodology.t) =
  Format.fprintf fmt "engine: %s@."
    (Config.engine_name t.Methodology.config.Config.engine);
  (match t.Methodology.status with
  | Methodology.Complete -> Format.fprintf fmt "status: complete@."
  | Methodology.Degraded ds ->
      Format.fprintf fmt "status: DEGRADED (%d budget event%s)@."
        (List.length ds)
        (if List.length ds = 1 then "" else "s");
      List.iter
        (fun d ->
          Format.fprintf fmt "  - %a@." Ssta_runtime.Budget.pp_degradation d)
        ds);
  let h = t.Methodology.health in
  if Ssta_runtime.Health.is_clean h then
    Format.fprintf fmt "numerical health: clean@."
  else Format.fprintf fmt "numerical health: %a@." Ssta_runtime.Health.pp h;
  (match Ssta_runtime.Health.counter h "inter-cache-lookups" with
  | 0 -> ()
  | lookups ->
      Format.fprintf fmt
        "inter-kernel cache: %d lookups, %d distinct directions, %d hits@."
        lookups
        (Ssta_runtime.Health.counter h "inter-cache-distinct")
        (Ssta_runtime.Health.counter h "inter-cache-hits"));
  match Ssta_runtime.Health.counter h "arena-peak-bytes" with
  | 0 -> ()
  | peak ->
      Format.fprintf fmt
        "scratch arenas: %d buffers created, %d bytes reused, peak %d bytes@."
        (Ssta_runtime.Health.counter h "arena-buffers-created")
        (Ssta_runtime.Health.counter h "arena-bytes-reused")
        peak
