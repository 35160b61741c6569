(* The benchmark's command line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
         run one workload; print every metric by name with its unit and,
         as the last line, one JSON object with the keys correct,
         attempted, failed and metrics (end-to-end metrics untraced,
         per-layer metrics traced; a traced run also writes its spans as
         Chrome trace-event JSON under perfbench/out/)
     main.exe regen [--write]
         recompute the stored references, print what differs from
         perfbench/refs.json, and with --write replace it
     main.exe check
         a short run of every workload at the seed the eco responses were
         recorded with; exits 1 when any op fails its answer check
     main.exe record [SECONDS]
         one traced run of every workload; writes perfbench/RECORD.json
     main.exe noop
         exit at once (the process start that set-up times) *)

open Perfbench
module Json = Ssta_server.Json

let jnum x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (jnum v)
              unit)
          metrics))

let run_workload (w : Workloads.workload) ~seed ~seconds ~trace =
  let tr = Trace.create ~keep_ops:(if trace then 4 else 0) trace in
  let r =
    if w.Workloads.name = "eco-session" then
      snd (Workloads.run_eco ~seed ~seconds ~tr ())
    else Workloads.run_batch w ~seed ~seconds ~tr
  in
  if trace then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    Trace.write_chrome tr
      (Printf.sprintf "perfbench/out/%s-seed%d.trace.json" w.Workloads.name seed)
  end;
  r

(* Times are in reference seconds (see Calib). *)
let end_to_end (w : Workloads.workload) (r : Workloads.result) =
  let lats = List.map snd r.Workloads.latencies in
  let n = List.length lats in
  [ ("setup_s", r.Workloads.setup_s, "s");
    ("op_p50_s", Stats.median lats, "s");
    ("op_tail_s", Stats.percentile lats w.Workloads.tail, "s");
    ("ops_per_s", float n /. r.Workloads.timed_s, "1/s");
    ( "top_heap_mb",
      float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6,
      "MB" );
    ("cp_rel_err", r.Workloads.cp_rel_err, "ratio") ]

(* A per-layer metric of a traced run. *)
let layer (r : Workloads.result) k =
  match List.find_opt (fun (k', _, _) -> k' = k) r.Workloads.layers with
  | Some (_, v, _) -> v
  | None -> nan

let main_run ~workload ~seed ~seconds ~trace =
  match Workloads.find workload with
  | None ->
      Printf.eprintf "unknown workload %S (expected one of %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      2
  | Some w ->
      let r = run_workload w ~seed ~seconds ~trace in
      let n = List.length r.Workloads.latencies in
      let mismatches =
        if trace then int_of_float (layer r "trace.replay_mismatches") else 0
      in
      let failed = r.Workloads.failed + mismatches in
      let attempted = r.Workloads.attempted in
      let tail = w.Workloads.tail in
      Printf.printf "workload %s  seed %d  %s run  %d ops in %.3f s\n" workload
        seed (if trace then "traced" else "untraced") n r.Workloads.timed_s;
      Printf.printf "op_tail_s is %s (%d samples beyond it; the rule picks %s)\n"
        (Stats.percentile_name tail)
        (Stats.beyond ~n tail)
        (match Stats.tail_percentile n with
        | Some p -> Stats.percentile_name p
        | None -> "none");
      Printf.printf "failed_frac %.6g ratio (%d of %d)\n"
        (float failed /. float (Int.max 1 attempted))
        failed attempted;
      let kinds = List.sort_uniq compare (List.map fst r.Workloads.latencies) in
      List.iter
        (fun k ->
          let l =
            List.filter_map
              (fun (k', v) -> if k' = k then Some v else None)
              r.Workloads.latencies
          in
          Printf.printf "  %-8s %4d ops, median %.6f s\n" k (List.length l)
            (Stats.median l))
        kinds;
      print_endline (Calib.summary r.Workloads.calib);
      List.iter (fun l -> print_endline ("  " ^ l)) r.Workloads.notes;
      let metrics = if trace then r.Workloads.layers else end_to_end w r in
      List.iter
        (fun (name, v, unit) -> Printf.printf "%-28s %.9g %s\n" name v unit)
        metrics;
      print_endline
        (json_line ~correct:(failed = 0) ~attempted:(Int.max 1 attempted)
           ~failed metrics);
      0

let eco_responses catalogue =
  fst
    (Workloads.run_eco ~catalogue ~seed:Refs.eco_seed ~seconds:0.0
       ~tr:(Trace.create false) ())

let main_regen ~write =
  let fresh = Refs.compute ~eco_responses in
  let stored =
    match Refs.load () with
    | r -> Some r
    | exception (Sys_error _ | Failure _) -> None
  in
  let n =
    match stored with
    | Some stored -> Refs.diff ~stored ~fresh
    | None ->
        print_endline "no stored references";
        1
  in
  Printf.printf "%d stored value(s) differ\n" n;
  if write then begin
    Refs.save fresh;
    Printf.printf "wrote %s\n" Refs.file
  end;
  0

let main_check () =
  let bad =
    List.filter
      (fun w ->
        let r = run_workload w ~seed:Refs.eco_seed ~seconds:0.0 ~trace:false in
        Printf.printf "%-14s %d ops, %d failed\n%!" w.Workloads.name
          r.Workloads.attempted r.Workloads.failed;
        r.Workloads.failed > 0)
      Workloads.all
  in
  if bad = [] then 0 else 1

(* One traced run of every workload; writes perfbench/RECORD.json with
   each workload's why, its tail percentile and the measured share of the
   property it targets. *)
let main_record ~seconds =
  let num x = Json.Raw (jnum x) in
  let entry (w : Workloads.workload) =
    let l = layer (run_workload w ~seed:1 ~seconds ~trace:true) in
    let wall = l "trace.op_wall_s" in
    let measured =
      match w.Workloads.name with
      | "deep-paths" -> [ ("per_path_layer_share", l "share.per_path_layers") ]
      | "wide-shallow" ->
          [ ("per_circuit_layer_share", l "share.per_circuit_layers");
            ("per_path_layer_share", l "share.per_path_layers") ]
      | "eco-session" ->
          [ ("impact_reuse_ratio", l "check.impact_reuse_ratio");
            ("full_invalidation_share", l "check.impact_full_share");
            ("impact_share", l "check.impact_s" /. wall) ]
      | _ -> [ ("block_analyze_share", l "block.analyze_s" /. wall) ]
    in
    Json.to_string
      (Json.Obj
         [ ("name", Json.String w.Workloads.name);
           ("why", Json.String w.Workloads.why);
           ("op_tail_s", Json.String (Stats.percentile_name w.Workloads.tail));
           ("traced_op_wall_s_per_pass", num wall);
           ("tracing_overhead_s_per_pass", num (l "trace.overhead_s"));
           ("measured", Json.Obj (List.map (fun (k, v) -> (k, num v)) measured))
         ])
  in
  let entries = List.map entry Workloads.all in
  let oc = open_out "perfbench/RECORD.json" in
  Printf.fprintf oc
    "{\"host\": {\"cores\": %d, \"ocaml\": \"%s\"},\n\
     \"traced_seconds\": %s,\n\
     \"workloads\": [\n%s\n]}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (jnum seconds)
    (String.concat ",\n" entries);
  close_out oc;
  print_endline "wrote perfbench/RECORD.json";
  0

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe regen [--write]\n\
    \       main.exe check\n\
    \       main.exe record [SECONDS]";
  2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let code =
    match args with
    | [ "noop" ] -> 0
    | [ "regen" ] -> main_regen ~write:false
    | [ "regen"; "--write" ] -> main_regen ~write:true
    | [ "check" ] -> main_check ()
    | [ "record" ] -> main_record ~seconds:10.0
    | [ "record"; s ] when float_of_string_opt s <> None ->
        main_record ~seconds:(float_of_string s)
    | _ -> (
        match opts [] args with
        | None -> usage ()
        | Some o -> (
            let get k = List.assoc_opt k o in
            match
              ( get "workload",
                Option.bind (get "seed") int_of_string_opt,
                Option.bind (get "seconds") float_of_string_opt,
                get "trace" )
            with
            | Some workload, Some seed, Some seconds, Some ("0" | "1" as t) ->
                main_run ~workload ~seed ~seconds ~trace:(t = "1")
            | _ -> usage ()))
  in
  exit code
