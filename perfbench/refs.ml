(* Reference answers stored with the benchmark ([perfbench/refs.json]).

   - [path.NAME]: the Table 2 path flow of each circuit at the workload
     resolution (Q_intra 100, Q_inter 50, 2000 paths): path count, the
     det ranks of probabilistic ranks 1..10, and the
     probabilistic-critical mean, sigma and 3-sigma point;
   - [block.NAME]: the block sweep of each circuit (endpoint count, the
     ten worst endpoints, circuit mean, sigma and 3-sigma point);
   - [hires.NAME]: the probabilistic-critical 3-sigma point of a path
     flow at Q_intra 400, Q_inter 200 — the accuracy yardstick of
     [cp_rel_err];
   - [eco]: the served c1355 design's baseline run answer, its
     high-resolution 3-sigma point, the edit catalogue the request
     stream draws from, with the paths a what-if of each edit re-analyzes (see {!Eco}), and the summary of every
     response of the first [eco_recorded] requests at [eco_seed].

   [regen] recomputes all of it and prints the difference; with
   [~write:true] it also rewrites the file. *)

module Json = Ssta_server.Json
module Iscas85 = Ssta_circuit.Iscas85
module Config = Ssta_core.Config
module Methodology = Ssta_core.Methodology
module Ranking = Ssta_core.Ranking
module Path_analysis = Ssta_core.Path_analysis
module Impact = Ssta_check.Impact

let file = "perfbench/refs.json"

(* Relative tolerance of the answer check on mean, sigma and 3-sigma
   point.  Path counts and rank orders must match exactly. *)
let tolerance = 1e-6
let hires_intra = 400
let hires_inter = 200
let eco_seed = 1
let eco_recorded = 60
let catalogue_seed = 2005
let catalogue_size = 160

type t = {
  path : (string * Flows.answer) list;
  block : (string * Flows.answer) list;
  hires : (string * float) list;
  eco_baseline : Flows.answer;
  eco_hires : float;
  eco_catalogue : Eco.catalogue;
  eco_responses : (string * (string * string) list) list;
      (* request kind, response summary fields *)
}

(* --- JSON ------------------------------------------------------------- *)

let num x = Json.Raw (Printf.sprintf "%.17g" x)
let int i = Json.Number (float_of_int i)

let json_of_answer (a : Flows.answer) =
  Json.Obj
    [ ("paths", int a.Flows.paths);
      ("top10", Json.List (List.map int a.Flows.top10));
      ("mean", num a.Flows.mean);
      ("std", num a.Flows.std);
      ("cp", num a.Flows.cp) ]

let to_json t =
  let assoc f l = Json.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  Json.Obj
    [ ("tolerance", num tolerance);
      ("path", assoc json_of_answer t.path);
      ("block", assoc json_of_answer t.block);
      ("hires", assoc num t.hires);
      ( "eco",
        Json.Obj
          [ ("seed", int eco_seed);
            ("baseline", json_of_answer t.eco_baseline);
            ("hires_cp", num t.eco_hires);
            ( "catalogue",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun (n, e) ->
                        Json.Obj
                          [ ("reanalyzed", int n);
                            ("edit", Json.String (Eco.render_script e)) ])
                      t.eco_catalogue)) );
            ( "responses",
              Json.List
                (List.map
                   (fun (kind, fields) ->
                     Json.Obj
                       (("kind", Json.String kind)
                       :: List.map (fun (k, v) -> (k, Json.String v)) fields))
                   t.eco_responses) ) ] ) ]

let fail fmt = Printf.ksprintf failwith fmt

let get name j =
  match Json.member name j with Some v -> v | None -> fail "refs: no %S" name

let float_of name j =
  match Json.to_float (get name j) with
  | Some x -> x
  | None -> fail "refs: %S is not a number" name

let int_of name j = int_of_float (float_of name j)

let answer_of_json j =
  { Flows.paths = int_of "paths" j;
    top10 =
      (match get "top10" j with
      | Json.List l -> List.filter_map Json.to_int l
      | _ -> fail "refs: top10");
    mean = float_of "mean" j;
    std = float_of "std" j;
    cp = float_of "cp" j }

let assoc_of f j =
  match j with
  | Json.Obj l -> List.map (fun (k, v) -> (k, f v)) l
  | _ -> fail "refs: expected an object"

let of_json j =
  let eco = get "eco" j in
  { path = assoc_of answer_of_json (get "path" j);
    block = assoc_of answer_of_json (get "block" j);
    hires =
      assoc_of
        (fun v -> match Json.to_float v with Some x -> x | None -> nan)
        (get "hires" j);
    eco_baseline = answer_of_json (get "baseline" eco);
    eco_hires = float_of "hires_cp" eco;
    eco_catalogue =
      (match get "catalogue" eco with
      | Json.List l ->
          Array.of_list
            (List.map
               (fun j ->
                 match
                   ( Json.to_int (get "reanalyzed" j),
                     Option.map
                       (fun t -> Ssta_circuit.Edit.parse_string_res t)
                       (Json.to_str (get "edit" j)) )
                 with
                 | Some c, Some (Ok e) -> (c, e)
                 | _ -> fail "refs: eco catalogue entry")
               l)
      | _ -> fail "refs: eco catalogue");
    eco_responses =
      (match get "responses" eco with
      | Json.List l ->
          List.map
            (function
              | Json.Obj (("kind", Json.String k) :: fields) ->
                  ( k,
                    List.map
                      (fun (f, v) -> (f, Option.value ~default:"" (Json.to_str v)))
                      fields )
              | _ -> fail "refs: eco response")
            l
      | _ -> fail "refs: eco responses") }

let load () =
  let ic = open_in_bin file in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse text with
  | Ok j -> of_json j
  | Error _ -> fail "refs: %s is not valid JSON" file

(* --- the answer check ------------------------------------------------- *)

let close a b =
  a = b || Float.abs (a -. b) <= tolerance *. Float.max (Float.abs a) (Float.abs b)

let matches (want : Flows.answer) (got : Flows.answer) =
  want.Flows.paths = got.Flows.paths
  && want.Flows.top10 = got.Flows.top10
  && close want.Flows.mean got.Flows.mean
  && close want.Flows.std got.Flows.std
  && close want.Flows.cp got.Flows.cp

let rel_err ~reference x = Float.abs (x -. reference) /. Float.abs reference

(* --- regeneration ----------------------------------------------------- *)

let hires_config spec =
  Config.with_quality (Flows.table2_config spec) ~intra:hires_intra
    ~inter:hires_inter

let hires_cp m =
  m.Methodology.prob_critical.Ranking.analysis.Path_analysis.confidence_point

let compute ~eco_responses =
  let path =
    List.map
      (fun spec ->
        let f = Flows.path_flow (Flows.Builtin spec) in
        (spec.Iscas85.name, Flows.answer_of_methodology f.Flows.m))
      Iscas85.all
  in
  let block =
    List.map
      (fun spec ->
        let r, _ = Flows.block_sweep spec in
        (spec.Iscas85.name, Flows.answer_of_block r))
      Iscas85.all
  in
  let hires =
    List.map
      (fun spec ->
        let circuit, placement = Iscas85.build_placed spec in
        let m = Methodology.run ~config:(hires_config spec) ~placement circuit in
        (spec.Iscas85.name, hires_cp m))
      Iscas85.all
  in
  let eco_design config =
    let circuit, placement = Iscas85.build_placed (Eco.spec ()) in
    Impact.design ~placement ~config circuit
  in
  let scratch config =
    match Impact.scratch (eco_design config) with
    | Ok m -> m
    | Error e -> Ssta_runtime.Ssta_error.raise_error e
  in
  let eco_catalogue =
    Ssta_parallel.Pool.with_pool ~jobs:Eco.workers (fun pool ->
        Eco.make_catalogue ~pool ~count:catalogue_size ~seed:catalogue_seed
          (eco_design (Eco.config ())))
  in
  { path;
    block;
    hires;
    eco_baseline =
      Flows.answer_of_methodology (scratch (Eco.config ()));
    eco_hires = hires_cp (scratch (hires_config (Eco.spec ())));
    eco_catalogue;
    eco_responses = eco_responses eco_catalogue }

let pp_answer (a : Flows.answer) =
  Printf.sprintf "paths %d top10 [%s] mean %.17g std %.17g cp %.17g"
    a.Flows.paths
    (String.concat " " (List.map string_of_int a.Flows.top10))
    a.Flows.mean a.Flows.std a.Flows.cp

(* Print every stored value that differs from the recomputed one;
   returns the number of differences. *)
let diff ~stored ~fresh =
  let n = ref 0 in
  let report what a b =
    if a <> b then begin
      incr n;
      Printf.printf "%s:\n  stored %s\n  fresh  %s\n" what a b
    end
  in
  let pairs what pp s f =
    List.iter
      (fun (k, v) ->
        report (what ^ "." ^ k)
          (match List.assoc_opt k s with Some x -> pp x | None -> "(none)")
          (pp v))
      f
  in
  pairs "path" pp_answer stored.path fresh.path;
  pairs "block" pp_answer stored.block fresh.block;
  pairs "hires" (Printf.sprintf "%.17g") stored.hires fresh.hires;
  report "eco.baseline" (pp_answer stored.eco_baseline)
    (pp_answer fresh.eco_baseline);
  let pp_cat c =
    String.concat "; "
      (Array.to_list
         (Array.map
            (fun (n, e) -> string_of_int n ^ " " ^ Eco.render_script e)
            c))
  in
  report "eco.catalogue" (pp_cat stored.eco_catalogue) (pp_cat fresh.eco_catalogue);
  report "eco.hires_cp"
    (Printf.sprintf "%.17g" stored.eco_hires)
    (Printf.sprintf "%.17g" fresh.eco_hires);
  let pp_resp (k, fields) =
    k ^ " " ^ String.concat " " (List.map (fun (f, v) -> f ^ "=" ^ v) fields)
  in
  let rec resp i s f =
    match s, f with
    | [], [] -> ()
    | a :: s', b :: f' ->
        report (Printf.sprintf "eco.responses[%d]" i) (pp_resp a) (pp_resp b);
        resp (i + 1) s' f'
    | a :: s', [] ->
        report (Printf.sprintf "eco.responses[%d]" i) (pp_resp a) "(none)";
        resp (i + 1) s' []
    | [], b :: f' ->
        report (Printf.sprintf "eco.responses[%d]" i) "(none)" (pp_resp b);
        resp (i + 1) [] f'
  in
  resp 0 stored.eco_responses fresh.eco_responses;
  !n

let save t =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')
