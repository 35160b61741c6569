(* Tests of the benchmark's own logic: the tail-percentile rule, self
   times, the traced replay, the eco request stream and the edit/inverse
   round trip. *)

open Perfbench
module Iscas85 = Ssta_circuit.Iscas85
module Impact = Ssta_check.Impact
module Server = Ssta_server.Server
module Pool = Ssta_parallel.Pool

let c432 () = Option.get (Iscas85.by_name "c432")

(* --- percentile rule ---------------------------------------------------- *)

let test_tail_rule () =
  let check n want =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n = %d" n) want (Stats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.0);
  check 39 (Some 50.0);
  check 40 (Some 75.0);
  check 99 (Some 75.0);
  check 100 (Some 90.0);
  check 200 (Some 95.0);
  check 1000 (Some 99.0);
  check 10_000 (Some 99.9);
  List.iter
    (fun p ->
      let n = Stats.min_samples p in
      Alcotest.(check bool) "ten beyond at min_samples" true
        (Stats.beyond ~n p >= 10);
      Alcotest.(check bool) "fewer just below" true
        (Stats.beyond ~n:(n - 1) p < 10))
    Stats.ladder

let test_percentile () =
  let xs = List.init 100 (fun i -> float (i + 1)) in
  Alcotest.(check (float 0.0)) "p90 nearest rank" 90.0 (Stats.percentile xs 90.0);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Stats.percentile xs 95.0);
  Alcotest.(check (float 0.0)) "median" 50.5 (Stats.median xs);
  Alcotest.(check int) "beyond p90" 10 (Stats.beyond ~n:100 90.0)

(* --- calibration ------------------------------------------------------- *)

(* A calibration of [walls], one group per op, oldest first. *)
let calib walls =
  { (Calib.create ()) with Calib.n = List.length walls; groups = List.rev walls }

let test_calib_step () =
  (* The host halves its speed after ten ops: each op is scaled by the
     slices around it, not by the run's median. *)
  let f =
    Calib.factors
      (calib (List.init 20 (fun i -> [ (if i < 10 then 0.002 else 0.004) ])))
  in
  let r = Calib.reference_s in
  Alcotest.(check (float 1e-12)) "first op, fast host" (r /. 0.002) f.(0);
  Alcotest.(check (float 1e-12)) "last fast op" (r /. 0.002) f.(9);
  Alcotest.(check (float 1e-12)) "first slow op" (r /. 0.004) f.(10);
  Alcotest.(check (float 1e-12)) "last op, slow host" (r /. 0.004) f.(19)

let test_calib_groups () =
  (* Slices of neighbouring groups pool into one median; a lone outlier
     slice moves nothing. *)
  let f =
    Calib.factors
      (calib [ [ 0.003; 0.003 ]; [ 0.003; 0.050 ]; [ 0.003; 0.003 ] ])
  in
  Array.iter
    (fun x ->
      Alcotest.(check (float 1e-12))
        "median slice" (Calib.reference_s /. 0.003) x)
    f

(* --- self times ------------------------------------------------------- *)

let span id ?(parent = -1) t0 t1 =
  { Trace.id; name = Printf.sprintf "s%d" id; op = 0; parent; t0; t1; w0 = 0.0;
    w1 = t1 -. t0 }

let self_of spans id =
  let _, self, _ =
    List.find (fun (s, _, _) -> s.Trace.id = id) (Trace.self_times spans)
  in
  self

let test_self_overlap () =
  (* Parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] runs
     past the parent's end.  Covered: [1, 6] and [8, 10] = 7. *)
  let spans =
    [ span 0 0.0 10.0; span 1 ~parent:0 1.0 4.0; span 2 ~parent:0 3.0 6.0;
      span 3 ~parent:0 8.0 12.0; span 4 ~parent:1 1.5 2.0 ]
  in
  Alcotest.(check (float 1e-12)) "parent self" 3.0 (self_of spans 0);
  Alcotest.(check (float 1e-12)) "child with a grandchild" 2.5 (self_of spans 1);
  Alcotest.(check (float 1e-12)) "leaf" 3.0 (self_of spans 2);
  Alcotest.(check (float 1e-12)) "union" 7.0
    (Trace.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 6.0); (8.0, 12.0) ])

let test_op_balance () =
  (* The self times of one op sum to its root span's wall. *)
  let tr = Trace.create true in
  let (), wall =
    Trace.op tr "op" (fun () ->
        Trace.span tr "a" (fun () ->
            ignore (Trace.span tr "b" (fun () -> Array.make 1000 0.0)));
        Trace.span tr "c" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))))
  in
  Alcotest.(check (float 1e-9)) "self times sum to the op wall" wall
    (Trace.total_self_s tr);
  Alcotest.(check int) "one call of b" 1 (Trace.calls tr "b")

(* --- replay ------------------------------------------------------------- *)

let test_replay_bit_identical () =
  let source = Flows.Builtin (c432 ()) in
  let f = Flows.path_flow source in
  let tr = Trace.create true in
  let counts = Flows.counts () in
  let (m, report, _), _ =
    Trace.op tr "op" (fun () -> Flows.replay tr counts source)
  in
  Alcotest.(check bool) "per-path mean and sigma bit for bit" true
    (Flows.same_analyses f.Flows.m m);
  Alcotest.(check string) "report bytes" f.Flows.report report;
  Alcotest.(check int) "one coefficient span per analyzed path"
    counts.Flows.analyzed
    (Trace.calls tr "correlation.coeffs")

(* --- eco stream --------------------------------------------------------- *)

let design () =
  let circuit, placement = Iscas85.build_placed (c432 ()) in
  Impact.design ~placement ~config:(Flows.table2_config (c432 ())) circuit

(* Random edits with made-up re-analysis counts (a permutation of
   0..19): the stream only reads the count to cut the catalogue into
   strata. *)
let catalogue d =
  Array.of_list
    (List.mapi
       (fun i e -> (i * 7 mod 20, [ e ]))
       (Impact.random_edits ~rng:(Ssta_prob.Rng.create 11) ~count:20 d))

let lines ~seed d =
  List.concat_map
    (List.map (fun r -> r.Eco.line))
    (List.init 3 (Eco.block_at ~seed (catalogue d) d))

let test_stream_seeded () =
  let d = design () in
  Alcotest.(check (list string)) "same seed, same stream" (lines ~seed:7 d)
    (lines ~seed:7 d);
  Alcotest.(check bool) "another seed, another stream" true
    (lines ~seed:7 d <> lines ~seed:8 d);
  let kinds =
    List.map
      (fun r -> Eco.kind_name r.Eco.kind)
      (Eco.block_at ~seed:7 (catalogue d) d 0)
  in
  let count k = List.length (List.filter (( = ) k) kinds) in
  Alcotest.(check (list int)) "block mix" [ 18; 3; 3; 3; 3 ]
    (List.map count [ "what-if"; "edit"; "inverse"; "query"; "run" ])

let test_strata () =
  let d = design () in
  let cat = catalogue d in
  let count e = fst (List.find (fun (_, e') -> e' = e) (Array.to_list cat)) in
  let st = Eco.strata 18 cat in
  Alcotest.(check int) "every edit in one stratum" 20
    (Array.fold_left (fun n s -> n + Array.length s) 0 st);
  Array.iteri
    (fun k s ->
      Alcotest.(check bool) "one or two edits a stratum" true
        (Array.length s = 1 || Array.length s = 2);
      if k > 0 then
        Alcotest.(check bool) "ordered by paths re-analyzed" true
          (Array.for_all
             (fun e -> Array.for_all (fun e' -> count e' < count e) st.(k - 1))
             s))
    st;
  let sent b =
    List.filter_map
      (fun r -> if r.Eco.kind = Eco.What_if then Some r.Eco.script else None)
      (Eco.block_at ~seed:3 cat d b)
  in
  let stratum e =
    let rec go k = if Array.mem e st.(k) then k else go (k + 1) in
    go 0
  in
  Alcotest.(check (list int)) "one what-if from each stratum"
    (List.init 18 Fun.id)
    (List.sort compare (List.map stratum (sent 0)));
  Alcotest.(check bool) "every block sends the same what-ifs" true
    (List.sort compare (sent 0) = List.sort compare (sent 5))

let test_inverse_restores () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let server, _, _, noop = Eco.start ~spec:(c432 ()) ~pool () in
  Alcotest.(check bool) "set-up edit accepted" true (Eco.ok_response noop <> None);
  let full =
    {|{"op":"run","id":1,"full":true}|}
  in
  let baseline = Server.dispatch server (Eco.decode full) in
  let d = design () in
  List.iter
    (fun seed ->
      List.iter
        (fun (r : Eco.request) ->
          match r.Eco.kind with
          | Eco.Commit | Eco.Inverse ->
              Alcotest.(check bool) "edit accepted" true
                (Eco.ok_response (Server.dispatch server (Eco.decode r.Eco.line))
                <> None)
          | _ -> ())
        (Eco.block_at ~seed (catalogue d) d 0);
      Alcotest.(check string)
        (Printf.sprintf "baseline report restored (seed %d)" seed)
        baseline
        (Server.dispatch server (Eco.decode full)))
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile ] );
      ( "calib",
        [ Alcotest.test_case "a speed step scales each op by its own side"
            `Quick test_calib_step;
          Alcotest.test_case "groups pool their slices" `Quick test_calib_groups ] );
      ( "trace",
        [ Alcotest.test_case "self time with overlapping children" `Quick
            test_self_overlap;
          Alcotest.test_case "self times sum to the op wall" `Quick
            test_op_balance;
          Alcotest.test_case "replay matches Methodology bit for bit" `Quick
            test_replay_bit_identical ] );
      ( "eco",
        [ Alcotest.test_case "stream is a function of the seed" `Quick
            test_stream_seeded;
          Alcotest.test_case "each block sends one edit of every stratum"
            `Quick test_strata;
          Alcotest.test_case "edit then inverse restores the baseline report"
            `Quick test_inverse_restores ] ) ]
