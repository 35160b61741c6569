(* A report must not depend on the process's hashtable seed.
   [Hashtbl.randomize] is process-global, so this check has its own
   executable: it computes a c1355 path-engine report, randomizes every
   hashtable created from then on (as [OCAMLRUNPARAM=R] does), computes
   the report again and compares the JSON bytes. *)

module Config = Ssta_core.Config
module Iscas85 = Ssta_circuit.Iscas85

let report () =
  let c, placement = Iscas85.build_placed (Option.get (Iscas85.by_name "c1355")) in
  let config = { Config.default with Config.max_paths = 200 } in
  Ssta_core.Report.json_report (Ssta_core.Methodology.run ~config ~placement c)

let test_report_independent_of_hash_seed () =
  let plain = report () in
  Hashtbl.randomize ();
  let randomized = report () in
  Alcotest.(check bool)
    "c1355 JSON report byte-identical after Hashtbl.randomize" true
    (String.equal plain randomized)

let () =
  Alcotest.run "ssta-hash-seed"
    [ ( "hash-seed",
        [ Alcotest.test_case "c1355 report independent of the hash seed"
            `Quick test_report_independent_of_hash_seed ] ) ]
