(* Host-speed calibration.

   The benchmark shares a host whose speed changes in steps, by up to a
   factor of two, over minutes: every time of the program moves with it
   while the program's work stays the same.  A calibration slice is a
   fixed piece of work that uses none of the program's code -- float
   convolutions like the PDF kernels' and short-lived allocation like the
   analyses' -- timed right before every op.  A run reports each op's
   wall scaled by [reference_s] over the median slice around it: seconds
   at the host speed at which a slice takes [reference_s].

   The slice allocates only short-lived minor-heap blocks, so it promotes
   nothing and its cost does not depend on the size of the program's
   heap.  Set-up's process starts have a reference of their own: the
   start of a process that links none of the program's libraries. *)

let now = Unix.gettimeofday

(* The unit of the reported times: a slice's median wall on a 2-core
   x86-64 VM (Xeon, 2.1 GHz). *)
let reference_s = 0.0035

let q = 100

let pdf_a = Array.init q (fun i -> exp (-.(float (i - 40) ** 2.0) /. 200.0))
let pdf_b = Array.init q (fun i -> exp (-.(float (i - 60) ** 2.0) /. 450.0))

(* A convolution into a fresh array, renormalised, as Combine.sum does. *)
let convolve a b =
  let n = Array.length a and m = Array.length b in
  let c = Array.make (n + m - 1) 0.0 in
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    for j = 0 to m - 1 do
      let k = i + j in
      Array.unsafe_set c k (Array.unsafe_get c k +. (ai *. Array.unsafe_get b j))
    done
  done;
  let s = Array.fold_left ( +. ) 0.0 c in
  Array.map (fun x -> x /. s) c

let fp_rounds = 80

let fp () =
  let acc = ref 0.0 in
  for r = 1 to fp_rounds do
    let c = convolve (if r land 1 = 0 then pdf_a else pdf_b) pdf_b in
    acc := !acc +. c.(r)
  done;
  !acc

(* Short-lived records and lists, the shape of the analyses' garbage. *)
type cell = { key : int; mean : float; sigma : float }

let alloc_rounds = 500

let alloc () =
  let total = ref 0.0 in
  for r = 1 to alloc_rounds do
    let cells =
      List.init 64 (fun i ->
          { key = (i * r) land 1023; mean = float i; sigma = float r })
    in
    let sorted = List.sort (fun a b -> compare a.key b.key) cells in
    total :=
      !total +. List.fold_left (fun s c -> s +. (c.mean *. c.sigma)) 0.0 sorted
  done;
  !total

let sink = ref 0.0

(* One slice's wall. *)
let slice () =
  let t0 = now () in
  sink := !sink +. fp ();
  sink := !sink +. alloc ();
  now () -. t0

let run_process argv =
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("perfbench: " ^ argv.(0) ^ " failed")

(* A set-up starts a process of the tool, which is mostly the kernel's
   exec and the OCaml runtime's start-up; both move with the host in
   their own way.  Its reference is the start of [start.exe], built next
   to the benchmark, which links none of the program's libraries, and
   the unit is its median wall on the same VM. *)
let start_reference_s = 0.0012

let start_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "start.exe"

let start () =
  let exe = start_exe () in
  let t0 = now () in
  run_process [| exe |];
  now () -. t0

(* The probes of one run in groups, one group before each op, newest
   first.  A probe is a calibration slice, or a reference process start
   for set-ups. *)
type t = {
  reference_s : float;
  probe : unit -> float;
  mutable n : int;  (* groups *)
  mutable groups : float list list;
}

let create () = { reference_s; probe = slice; n = 0; groups = [] }

let starts () =
  { reference_s = start_reference_s; probe = start; n = 0; groups = [] }

(* Measure a group of [slices] probes; its index in the run. *)
let measure ?(slices = 1) c =
  let g = List.init slices (fun _ -> c.probe ()) in
  c.groups <- g :: c.groups;
  c.n <- c.n + 1;
  c.n - 1

(* Groups on either side of a group whose median scales it. *)
let window = 4

(* For each group, the factor that turns a wall measured next to it into
   reference seconds: [reference_s] over the median slice of the groups
   within [window] of it, so a change of host speed in the middle of a
   run scales each op by the speed around it. *)
let factors c =
  let a = Array.of_list (List.rev c.groups) in
  let n = Array.length a in
  Array.init n (fun i ->
      let lo = Int.max 0 (i - window) and hi = Int.min (n - 1) (i + window) in
      c.reference_s
      /. Stats.median (List.concat (Array.to_list (Array.sub a lo (hi - lo + 1)))))

let summary c =
  let walls = List.concat c.groups in
  Printf.sprintf "calibration: %d slices, median %.6f s, factor %.4f"
    (List.length walls) (Stats.median walls)
    (c.reference_s /. Stats.median walls)
