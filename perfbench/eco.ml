(* The eco-session request stream: a seeded closed-loop mix of what-if
   probes, committed edits with their inverses, endpoint queries and warm
   runs against one in-process server. *)

module Iscas85 = Ssta_circuit.Iscas85
module Netlist = Ssta_circuit.Netlist
module Edit = Ssta_circuit.Edit
module Impact = Ssta_check.Impact
module Server = Ssta_server.Server
module Protocol = Ssta_server.Protocol
module Json = Ssta_server.Json
module Rng = Ssta_prob.Rng

let circuit_name = "c1355"
let spec () = Option.get (Iscas85.by_name circuit_name)
let config () = Flows.table2_config (spec ())

(* An untraced run serves from a pool with no worker domain.  With two
   domains on a 2-core host shared with other work, every neighbour that
   takes a core stalls the pool's parallel regions and stop-the-world
   collections: over ten seeds op_p50_s, op_tail_s and ops_per_s then
   spread 28-39 % of their median, against 2.5-5.5 % with one domain.
   A traced run, whose per-layer figures have no bound, serves from a
   2-job pool, as [ssta serve --jobs 2] does, and reads the [parallel]
   layer's counters from it. *)
let workers = 1
let traced_jobs = 2

type kind = What_if | Commit | Inverse | Query | Run

let kind_name = function
  | What_if -> "what-if"
  | Commit -> "edit"
  | Inverse -> "inverse"
  | Query -> "query"
  | Run -> "run"

type request = {
  kind : kind;
  line : string;  (* the protocol line, as [ssta serve] reads it *)
  script : Edit.t;  (* the edit script ([] for query and run) *)
  endpoint : string;  (* the queried output ("" otherwise) *)
}

(* A script the server parses back to exactly these values. *)
let render_op = function
  | Edit.Resize { gate; drive } -> Printf.sprintf "resize %s %.17g" gate drive
  | Edit.Retype { gate; kind } -> Printf.sprintf "retype %s %s" gate kind
  | Edit.Move { gate; x; y } -> Printf.sprintf "move %s %.17g %.17g" gate x y
  | Edit.Set { param; value } -> Printf.sprintf "set %s %.17g" param value

let render_script (s : Edit.t) =
  String.concat "\n" (List.map (fun e -> render_op e.Edit.op) s)

(* The edit that undoes [script] on [design], built from the pre-edit
   values Impact.resolve captures. *)
let inverse design script =
  match Impact.resolve design script with
  | Error e -> Ssta_runtime.Ssta_error.raise_error e
  | Ok changes ->
      let name node = Netlist.node_name design.Impact.circuit node in
      List.rev changes
      |> List.mapi (fun i c ->
             let op =
               match c with
               | Impact.Gate_resize { node; old_drive; _ } ->
                   Edit.Resize { gate = name node; drive = old_drive }
               | Impact.Gate_retype { node; old_kind; _ } ->
                   Edit.Retype
                     { gate = name node; kind = Ssta_tech.Gate.name old_kind }
               | Impact.Cell_move { node; old_x; old_y; _ } ->
                   Edit.Move { gate = name node; x = old_x; y = old_y }
               | Impact.Config_set _ ->
                   invalid_arg "Eco.inverse: parameter deltas are not generated"
             in
             { Edit.op; line = i + 1 })

let line ~id ~op fields =
  Json.to_string
    (Json.Obj
       (("op", Json.String op) :: ("id", Json.Number (float_of_int id)) :: fields))

let make kind ~id ?(script = []) ?(endpoint = "") () =
  let fields, op =
    match kind with
    | What_if -> ([ ("edits", Json.String (render_script script)) ], "what-if")
    | Commit | Inverse -> ([ ("edits", Json.String (render_script script)) ], "edit")
    | Query -> ([ ("endpoint", Json.String endpoint) ], "query")
    | Run -> ([ ("full", Json.Bool false) ], "run")
  in
  { kind; line = line ~id ~op fields; script; endpoint }

(* --- the edit catalogue ------------------------------------------------ *)

(* What a what-if of an edit costs is bimodal: either most cached path
   analyses are reused, or an edit that moves the critical path
   invalidates them all, with every share in between — and no static
   test tells them apart.  The stream therefore draws from a catalogue
   of random edits ([Impact.random_edits]), each stored with the number
   of near-critical paths a what-if of it re-analyzes on the baseline,
   measured once when the references are regenerated. *)
type catalogue = (int * Edit.t) array  (* paths re-analyzed, edit *)

let make_catalogue ~pool ~count ~seed design =
  match Impact.init ~pool design with
  | Error e -> Ssta_runtime.Ssta_error.raise_error e
  | Ok (state, _) ->
      let rng = Rng.create seed in
      Array.init count (fun _ ->
          let e = Impact.random_edits ~rng ~count:1 design in
          match Impact.what_if ~pool state e with
          | Error err -> Ssta_runtime.Ssta_error.raise_error err
          | Ok o -> (o.Impact.reanalyzed, e))

(* The catalogue cut into [n] strata of (nearly) equal size by the
   number of paths an edit re-analyzes: stratum 0 reuses the most. *)
let strata n (cat : catalogue) =
  let order = Array.init (Array.length cat) Fun.id in
  Array.stable_sort (fun i j -> compare (fst cat.(i)) (fst cat.(j))) order;
  let len = Array.length cat in
  Array.init n (fun k ->
      Array.map
        (fun i -> snd cat.(i))
        (Array.sub order (k * len / n) (((k + 1) * len / n) - (k * len / n))))

(* The middle edit of each stratum: a sample of the catalogue at its
   [n]-quantiles of re-analysis. *)
let representatives n cat =
  Array.to_list (Array.map (fun s -> s.(Array.length s / 2)) (strata n cat))

(* One block of thirty requests, in a seeded order: eighteen what-ifs,
   three committed edits each immediately followed by its inverse, three
   queries of a random output and three warm runs — the 60/20/10/10
   mix.  The what-ifs are the representatives of eighteen strata of the
   catalogue, the committed edits those of three, so every block sends
   random edits in the catalogue's own proportions of reuse and
   invalidation, and the same ones: the median op falls where the
   catalogue thins out between a few hundred and a thousand re-analyzed
   paths, so drawing a different member of each stratum per block moved
   op_p50_s by a quarter from seed to seed.  Every read meets the
   baseline design, and the served design is back at baseline after
   every block, so the mix is the same at any run length. *)
let what_ifs_per_block = 18
let pairs_per_block = 3
let queries_per_block = 3
let runs_per_block = 3

let block_size =
  what_ifs_per_block + (2 * pairs_per_block) + queries_per_block
  + runs_per_block

(* The stream is a pure function of the seed, the catalogue and the
   baseline design: block [b] draws from its own generator, so any
   prefix of blocks is the same whatever the run length. *)
let block_at ~seed (cat : catalogue) design b =
  let outputs = design.Impact.circuit.Netlist.outputs in
  let rng = Rng.create ((seed * 1_000_003) + b) in
  let units =
    Array.of_list
      (List.map (fun e -> `What_if e) (representatives what_ifs_per_block cat)
      @ List.map (fun e -> `Pair e) (representatives pairs_per_block cat)
      @ List.init queries_per_block (fun _ -> `Query)
      @ List.init runs_per_block (fun _ -> `Run))
  in
  Rng.shuffle rng units;
  let id = ref (b * block_size) in
  let next () =
    incr id;
    !id
  in
  Array.to_list units
  |> List.concat_map (function
       | `Pair e ->
           let a = make Commit ~id:(next ()) ~script:e () in
           let b = make Inverse ~id:(next ()) ~script:(inverse design e) () in
           [ a; b ]
       | `What_if e -> [ make What_if ~id:(next ()) ~script:e () ]
       | `Query ->
           let o = outputs.(Rng.int rng (Array.length outputs)) in
           [ make Query ~id:(next ())
               ~endpoint:(Netlist.node_name design.Impact.circuit o) () ]
       | `Run -> [ make Run ~id:(next ()) () ])

(* --- the served design ------------------------------------------------ *)

(* Load, Server.create and the first impact-image build: a no-op resize
   of the first gate, committed, makes the server build its incremental
   image and serve the drive-aware timing every later edit uses. *)
let noop_line circuit =
  let g = Netlist.node_name circuit circuit.Netlist.num_inputs in
  line ~id:0 ~op:"edit" [ ("edits", Json.String (Printf.sprintf "resize %s 1" g)) ]

let decode l =
  match Protocol.decode ~max_bytes:1_048_576 l with
  | Ok env -> env
  | Error e -> Ssta_runtime.Ssta_error.raise_error e

let start ?(spec = spec ()) ~pool () =
  let circuit, placement = Iscas85.build_placed spec in
  let server =
    Server.create ~config:(Flows.table2_config spec) ~pool
      ~reload:(fun () -> Ok (Iscas85.build_placed spec))
      circuit placement
  in
  let resp = Server.dispatch server (decode (noop_line circuit)) in
  (server, circuit, placement, resp)

(* --- responses --------------------------------------------------------- *)

let field name j = Json.member name j

let num name j = Option.bind (field name j) Json.to_float
let str name j = Option.bind (field name j) Json.to_str

(* [Some json] for an "ok" response, [None] for anything else (error,
   overloaded, degraded, shutting down). *)
let ok_response resp =
  match Json.parse resp with
  | Ok j when str "status" j = Some "ok" -> Some j
  | _ -> None

(* The response fields that describe the analysis, without the id. *)
let summary j =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, Json.to_string v)) (field k j))
    [ "paths"; "critical_delay_s"; "sigma_c_s"; "confidence_point_s" ]
