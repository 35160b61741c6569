(* A report must not depend on the process's hashtable seed.
   [Hashtbl.randomize] is process-global, so this check has its own
   executable: it computes a c1355 path-engine report and a c880
   block-engine report, randomizes every hashtable created from then on
   (as [OCAMLRUNPARAM=R] does), computes both reports again and compares
   the JSON bytes. *)

module Config = Ssta_core.Config
module Iscas85 = Ssta_circuit.Iscas85
module Engine = Ssta_block.Engine

let build name = Iscas85.build_placed (Option.get (Iscas85.by_name name))

let path_report () =
  let c, placement = build "c1355" in
  let config = { Config.default with Config.max_paths = 200 } in
  Ssta_core.Report.json_report (Ssta_core.Methodology.run ~config ~placement c)

let block_report () =
  let c, placement = build "c880" in
  Engine.json_report (Engine.analyze ~placement c)

let reports =
  [ ("c1355 report independent of the hash seed", "c1355 JSON", path_report);
    ( "c880 block report independent of the hash seed",
      "c880 block JSON (Clark max)",
      block_report ) ]

let () =
  let plain = List.map (fun (_, _, report) -> report ()) reports in
  Hashtbl.randomize ();
  Alcotest.run "ssta-hash-seed"
    [ ( "hash-seed",
        List.map2
          (fun (name, what, report) plain ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check bool)
                  (what ^ " report byte-identical after Hashtbl.randomize")
                  true
                  (String.equal plain (report ()))))
          reports plain ) ]
