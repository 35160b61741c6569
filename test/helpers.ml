(* Shared test utilities. *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected
      actual tol

let check_close_abs ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (abs tol %g)" msg expected
      actual tol

(* Relative bound: |expected - actual| <= tol * |expected|.  For
   quantities far below 1 (delays in seconds, variances) [check_close]'s
   scale floor of 1 makes its bound absolute, and any tol above the
   values themselves passes everything. *)
let check_rel ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.abs expected then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected
      actual tol

let check_true msg cond = Alcotest.(check bool) msg true cond
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* Bitwise PDF equality: the arena-backed fast kernels advertise
   bit-identity with their reference paths, so compare raw float bits —
   no tolerance. *)
let pdf_bits_equal (a : Ssta_prob.Pdf.t) (b : Ssta_prob.Pdf.t) =
  let module Pdf = Ssta_prob.Pdf in
  let bits = Int64.bits_of_float in
  Int64.equal (bits a.Pdf.lo) (bits b.Pdf.lo)
  && Int64.equal (bits a.Pdf.step) (bits b.Pdf.step)
  && Array.length a.Pdf.density = Array.length b.Pdf.density
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       a.Pdf.density b.Pdf.density

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A small, fast configuration for methodology-level tests. *)
let fast_config =
  let open Ssta_core in
  Config.with_quality Config.default ~intra:40 ~inter:16

(* Deterministic small circuits used across timing tests. *)
let tiny_chain () =
  Ssta_circuit.Generators.chain ~name:"tiny" ~length:5 ()

let small_adder () =
  Ssta_circuit.Generators.ripple_carry_adder ~name:"rca4" ~bits:4 ()

let small_random () =
  Ssta_circuit.Generators.random_layered ~name:"rand" ~inputs:8 ~outputs:4
    ~gates:60 ~depth:8 ~seed:99 ()
