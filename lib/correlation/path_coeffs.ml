module Params = Ssta_tech.Params
module Derivatives = Ssta_tech.Derivatives
module Graph = Ssta_timing.Graph
module Paths = Ssta_timing.Paths
module Placement = Ssta_circuit.Placement

type key = { rv : Params.rv; layer : int; partition : int }

type t = {
  alpha_sum : float;
  beta_sum : float;
  gate_count : int;
  nominal_delay : float;
  grad_sum : Params.t;
  keys : int array;
  values : float array;
}

let num_rvs = List.length Params.all_rvs
let rv_array = Array.of_list Params.all_rvs

(* {2 Packed keys}

   A key packs into one immediate int: the rv index in bits 0-2, the
   layer in bits 3-10 and the partition above.  [layer * num_rvs + rv]
   is the key's (rv, layer) class, which indexes per-class sigma
   tables. *)
let rv_bits = 3
let layer_bits = 8
let max_layers = 1 lsl layer_bits

let pack_ints ~rv ~layer ~partition =
  (((partition lsl layer_bits) lor layer) lsl rv_bits) lor rv

let rv_of_packed k = k land ((1 lsl rv_bits) - 1)
let layer_of_packed k = (k lsr rv_bits) land (max_layers - 1)

let unpack k =
  { rv = rv_array.(rv_of_packed k);
    layer = layer_of_packed k;
    partition = k lsr (rv_bits + layer_bits) }

(* {2 Accumulation workspace}

   [of_path] is the per-path hot spot of the methodology after the grid
   kernels: every gate adds one derivative per (rv, intra layer).  The
   workspace accumulates into a flat dense array over the finite key
   space (rv, layer, partition) — the partition count per layer is
   4^layer for spatial layers and [num_nodes] for the random layer —
   with an epoch stamp per slot, so no clearing is needed between paths.
   A slot's key never changes while the sizing signature holds, so its
   [Hashtbl.hash] is computed once and cached in [w_hash]. *)
type workspace = {
  mutable w_off : int array;  (* slot offset per layer; layer 0 unused *)
  mutable w_vals : float array;  (* accumulated coefficient per slot *)
  mutable w_stamp : int array;  (* epoch of the slot's last first-touch *)
  mutable w_hash : int array;  (* cached key hash per slot, -1 unknown *)
  mutable w_key : int array;  (* touched-slot packed key and slot index, *)
  mutable w_idx : int array;  (* recorded in first-touch order *)
  mutable w_count : int array;  (* counting-sort bucket cursors *)
  mutable w_parts : int array;  (* per-gate partition, hoisted per layer *)
  mutable w_epoch : int;
  mutable w_sig : int * bool * int;
      (* (num_layers, random layer, num_nodes) sizing signature *)
}

let workspace_create () =
  { w_off = [||];
    w_vals = [||];
    w_stamp = [||];
    w_hash = [||];
    w_key = [||];
    w_idx = [||];
    w_count = [||];
    w_parts = [||];
    w_epoch = 0;
    w_sig = (0, false, 0) }

let workspace_ensure ws layers ~num_nodes =
  let nl = Layers.num_layers layers in
  let random = nl > 1 && Layers.is_random_layer layers (nl - 1) in
  if ws.w_sig <> (nl, random, num_nodes) then begin
    let off = Array.make (Int.max nl 1) 0 in
    let total = ref 0 in
    for layer = 1 to nl - 1 do
      off.(layer) <- !total;
      let parts =
        if Layers.is_random_layer layers layer then num_nodes
        else 1 lsl (2 * layer)
      in
      total := !total + parts
    done;
    let slots = Int.max 1 (num_rvs * !total) in
    ws.w_off <- off;
    ws.w_vals <- Array.make slots 0.0;
    ws.w_stamp <- Array.make slots 0;
    ws.w_hash <- Array.make slots (-1);
    ws.w_key <- Array.make slots 0;
    ws.w_idx <- Array.make slots 0;
    ws.w_parts <- Array.make (Int.max nl 1) 0;
    ws.w_epoch <- 0;
    ws.w_sig <- (nl, random, num_nodes)
  end

(* {2 Layout}

   The keys are stored in the order [Hashtbl.fold] visits a
   [Hashtbl.create 64] filled by first-touch [Hashtbl.replace]: the
   table doubles its bucket count whenever it holds more than twice as
   many keys, resizing keeps bucket order, and a new key goes to the
   head of its bucket.  So for [n] keys the final bucket count [b] is
   the smallest [64 * 2^k] with [n <= 2b], buckets are visited in
   ascending [Hashtbl.hash key land (b - 1)], and each bucket newest key
   first.  A counting sort over the cached slot hashes produces exactly
   that order, so every float sum over the layout keeps the bits it had
   when the coefficients lived in such a table. *)
let slot_hash ws idx k =
  let h = Array.unsafe_get ws.w_hash idx in
  if h >= 0 then h
  else begin
    let h = Hashtbl.hash (unpack k) in
    Array.unsafe_set ws.w_hash idx h;
    h
  end

let layout ws n =
  let b = ref 64 in
  while n > 2 * !b do
    b := 2 * !b
  done;
  let b = !b in
  if Array.length ws.w_count < b then ws.w_count <- Array.make b 0
  else Array.fill ws.w_count 0 b 0;
  let count = ws.w_count in
  for c = 0 to n - 1 do
    let k = Array.unsafe_get ws.w_key c in
    let bk = slot_hash ws (Array.unsafe_get ws.w_idx c) k land (b - 1) in
    Array.unsafe_set count bk (Array.unsafe_get count bk + 1)
  done;
  (* Exclusive prefix sums: [count.(bk)] becomes the bucket's start. *)
  let start = ref 0 in
  for bk = 0 to b - 1 do
    let c = Array.unsafe_get count bk in
    Array.unsafe_set count bk !start;
    start := !start + c
  done;
  let keys = Array.make n 0 and values = Array.create_float n in
  for c = n - 1 downto 0 do
    let idx = Array.unsafe_get ws.w_idx c in
    let bk = Array.unsafe_get ws.w_hash idx land (b - 1) in
    let pos = Array.unsafe_get count bk in
    Array.unsafe_set count bk (pos + 1);
    Array.unsafe_set keys pos (Array.unsafe_get ws.w_key c);
    Array.unsafe_set values pos (Array.unsafe_get ws.w_vals idx)
  done;
  (keys, values)

let of_path ?grads ?ws g pl layers (path : Paths.path) =
  let ws = match ws with Some ws -> ws | None -> workspace_create () in
  workspace_ensure ws layers ~num_nodes:(Graph.num_nodes g);
  let nl = Layers.num_layers layers in
  let off = ws.w_off
  and vals = ws.w_vals
  and stamp = ws.w_stamp
  and parts = ws.w_parts in
  ws.w_epoch <- ws.w_epoch + 1;
  let epoch = ws.w_epoch in
  let touched = ref 0 in
  let alpha_sum = ref 0.0 and beta_sum = ref 0.0 in
  let gate_count = ref 0 and nominal_delay = ref 0.0 in
  let g_tox = ref 0.0 and g_leff = ref 0.0 and g_vdd = ref 0.0 in
  let g_vtn = ref 0.0 and g_vtp = ref 0.0 in
  let nodes = path.Paths.nodes in
  for i = 0 to Array.length nodes - 1 do
    let id = Array.unsafe_get nodes i in
    if not (Graph.is_input g id) then begin
      let e = Graph.electrical_exn g id in
      alpha_sum := !alpha_sum +. e.Ssta_tech.Gate.alpha;
      beta_sum := !beta_sum +. e.Ssta_tech.Gate.beta;
      incr gate_count;
      nominal_delay := !nominal_delay +. g.Graph.delay.(id);
      let x, y = Placement.coord pl id in
      (* Gate gradients depend only on the gate's electricals, so
         callers analyzing many paths over one graph pass them in. *)
      let grad =
        match grads with
        | Some a -> Array.unsafe_get a id
        | None -> Derivatives.gradient e Params.nominal
      in
      g_tox := !g_tox +. grad.Params.tox;
      g_leff := !g_leff +. grad.Params.leff;
      g_vdd := !g_vdd +. grad.Params.vdd;
      g_vtn := !g_vtn +. grad.Params.vtn;
      g_vtp := !g_vtp +. grad.Params.vtp;
      (* The partition is rv-independent: compute it once per layer. *)
      for layer = 1 to nl - 1 do
        Array.unsafe_set parts layer
          (Layers.partition_of_gate layers ~level:layer ~gate_id:id ~x ~y)
      done;
      for rv = 0 to num_rvs - 1 do
        let d =
          match rv with
          | 0 -> grad.Params.tox
          | 1 -> grad.Params.leff
          | 2 -> grad.Params.vdd
          | 3 -> grad.Params.vtn
          | _ -> grad.Params.vtp
        in
        for layer = 1 to nl - 1 do
          let partition = Array.unsafe_get parts layer in
          let idx = ((Array.unsafe_get off layer + partition) * num_rvs) + rv in
          if Array.unsafe_get stamp idx = epoch then
            Array.unsafe_set vals idx (Array.unsafe_get vals idx +. d)
          else begin
            Array.unsafe_set stamp idx epoch;
            (* [0.0 +. d] is the first accumulation onto an absent key,
               which normalizes a negative zero. *)
            Array.unsafe_set vals idx (0.0 +. d);
            let c = !touched in
            Array.unsafe_set ws.w_key c (pack_ints ~rv ~layer ~partition);
            Array.unsafe_set ws.w_idx c idx;
            touched := c + 1
          end
        done
      done
    end
  done;
  let keys, values = layout ws !touched in
  { alpha_sum = !alpha_sum;
    beta_sum = !beta_sum;
    gate_count = !gate_count;
    nominal_delay = !nominal_delay;
    grad_sum =
      { Params.tox = !g_tox;
        leff = !g_leff;
        vdd = !g_vdd;
        vtn = !g_vtn;
        vtp = !g_vtp };
    keys;
    values }

let iter f t =
  Array.iteri (fun i k -> f (unpack k) (Array.unsafe_get t.values i)) t.keys

let fold f t init =
  let acc = ref init in
  Array.iteri
    (fun i k -> acc := f (unpack k) (Array.unsafe_get t.values i) !acc)
    t.keys;
  !acc

(* Per-class sigma table over the budget's layers; a key on a layer the
   budget lacks falls back to [Budget.sigma_of_layer], which rejects
   it. *)
let sigma_table budget =
  Array.init (Budget.layers budget * num_rvs) (fun cls ->
      Budget.sigma_of_layer budget
        ~total_sigma:(Params.sigma rv_array.(cls mod num_rvs))
        (cls / num_rvs))

let[@inline] key_sigma table budget k =
  let cls = (layer_of_packed k * num_rvs) + rv_of_packed k in
  if cls < Array.length table then Array.unsafe_get table cls
  else
    Budget.sigma_of_layer budget
      ~total_sigma:(Params.sigma rv_array.(rv_of_packed k))
      (layer_of_packed k)

let intra_variance t budget =
  let table = sigma_table budget in
  let acc = ref 0.0 in
  for i = 0 to Array.length t.keys - 1 do
    let c = Array.unsafe_get t.values i in
    let sigma = key_sigma table budget (Array.unsafe_get t.keys i) in
    acc := !acc +. (c *. c *. sigma *. sigma)
  done;
  !acc

let layer_variances t budget =
  let n = Budget.layers budget in
  let table = sigma_table budget in
  let shares = Array.make n 0.0 in
  for i = 0 to Array.length t.keys - 1 do
    let k = Array.unsafe_get t.keys i in
    let layer = layer_of_packed k in
    if layer >= 1 && layer < n then begin
      let c = Array.unsafe_get t.values i in
      let sigma = key_sigma table budget k in
      shares.(layer) <- shares.(layer) +. (c *. c *. sigma *. sigma)
    end
  done;
  shares

let coeff t key =
  let k =
    pack_ints ~rv:(Params.rv_index key.rv) ~layer:key.layer
      ~partition:key.partition
  in
  let rec find i =
    if i >= Array.length t.keys then 0.0
    else if Array.unsafe_get t.keys i = k then Array.unsafe_get t.values i
    else find (i + 1)
  in
  if key.layer < 1 || key.layer >= max_layers || key.partition < 0 then 0.0
  else find 0

let num_layer_rvs t = Array.length t.keys
