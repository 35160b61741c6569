(* Spans recorded around the benchmark's calls into the program's layers.

   A span is one call into a layer: its name, its start and end on the
   wall clock, the span that caused it and the op it belongs to.  Spans
   are kept in memory and written out at the end as Chrome trace-event
   JSON, which Perfetto and chrome://tracing open directly.  A layer's
   self time is its span's duration minus the part of that interval its
   child spans cover; the self minor-heap words are computed the same
   way.  With tracing off, [span] is one branch around the call. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for the root span of an op *)
  t0 : float;
  t1 : float;
  w0 : float;  (* Gc.minor_words at entry *)
  w1 : float;  (* and at exit *)
}

type t = {
  on : bool;
  mutable next_id : int;
  mutable op : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable current : span list;  (* finished spans of the open op *)
  mutable kept : span list;  (* spans written to the trace file *)
  mutable keep_ops : int;  (* ops whose spans are still kept *)
  self_s : (string, float) Hashtbl.t;  (* per span name, over all ops *)
  self_words : (string, float) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
}

let create ?(keep_ops = 0) on =
  { on;
    next_id = 0;
    op = 0;
    stack = [];
    current = [];
    kept = [];
    keep_ops;
    self_s = Hashtbl.create 64;
    self_words = Hashtbl.create 64;
    calls = Hashtbl.create 64 }

let enabled t = t.on

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      t.stack <- List.tl t.stack;
      t.current <- { id; name; op = t.op; parent; t0; t1; w0; w1 } :: t.current
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time and self words of every span in [spans]: its own interval
   minus the union of its direct children's intervals. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let cover =
        covered ~lo:s.t0 ~hi:s.t1 (List.map (fun k -> (k.t0, k.t1)) kids)
      in
      let kid_words =
        List.fold_left (fun acc k -> acc +. (k.w1 -. k.w0)) 0.0 kids
      in
      (s, s.t1 -. s.t0 -. cover, s.w1 -. s.w0 -. kid_words))
    spans

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Run one op under a root span named [root]: its spans are folded into
   the per-name totals when it ends.  Returns the value and the root
   span's wall, so that the op's self times sum to exactly that wall;
   the bookkeeping after the root span closes is outside it. *)
let op t root f =
  if not t.on then invalid_arg "Trace.op: tracing is off"
  else begin
    t.current <- [];
    let v = span t root f in
    let wall =
      match t.current with r :: _ -> r.t1 -. r.t0 | [] -> assert false
    in
    List.iter
      (fun (s, self, words) ->
        add t.self_s s.name self;
        add t.self_words s.name words;
        Hashtbl.replace t.calls s.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.calls s.name)))
      (self_times t.current);
    if t.keep_ops > 0 then begin
      t.kept <- t.current @ t.kept;
      t.keep_ops <- t.keep_ops - 1
    end;
    t.current <- [];
    t.op <- t.op + 1;
    (v, wall)
  end

let self_s t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self_s name)

let self_words t name =
  Option.value ~default:0.0 (Hashtbl.find_opt t.self_words name)

let calls t name = Option.value ~default:0 (Hashtbl.find_opt t.calls name)

let total_self_s t = Hashtbl.fold (fun _ v acc -> acc +. v) t.self_s 0.0

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome t path =
  let spans = List.sort (fun a b -> compare a.id b.id) t.kept in
  let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"minor_words\":%.0f}}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.op (s.w1 -. s.w0))
        spans;
      output_string oc "]}\n")
