module Rng = Hector_tensor.Rng

type spec = {
  name : string;
  num_ntypes : int;
  num_etypes : int;
  num_nodes : int;
  num_edges : int;
  compaction_target : float;
  scale : float;
  seed : int;
}

(* Distribute [total] items over [n] buckets, at least [minimum] each, the
   remainder proportionally to Zipf weights with exponent [s]. *)
let distribute rng ~total ~n ~minimum ~s =
  if total < n * minimum then
    invalid_arg (Printf.sprintf "Generator: cannot place %d items in %d buckets (min %d)" total n minimum);
  let counts = Array.make n minimum in
  let remaining = total - (n * minimum) in
  (* Deterministic proportional split, then random assignment of the
     rounding residue. *)
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  let assigned = ref 0 in
  for i = 0 to n - 1 do
    let share = int_of_float (float_of_int remaining *. weights.(i) /. wsum) in
    counts.(i) <- counts.(i) + share;
    assigned := !assigned + share
  done;
  let table = Rng.zipf_table ~n ~s in
  for _ = 1 to remaining - !assigned do
    let i = Rng.zipf_draw rng table in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let validate spec =
  if spec.num_ntypes <= 0 || spec.num_etypes <= 0 then
    invalid_arg "Generator: type counts must be positive";
  if spec.num_nodes < spec.num_ntypes then
    invalid_arg "Generator: need at least one node per node type";
  if spec.num_edges < spec.num_etypes then
    invalid_arg "Generator: need at least one edge per edge type";
  if spec.compaction_target <= 0.0 || spec.compaction_target > 1.0 then
    invalid_arg "Generator: compaction_target must be in (0, 1]"

(* Pick [count] sources among the [n_src] nodes starting at [start],
   distinct when possible so the achieved compaction ratio tracks the
   target.  A node is already chosen for this relation iff its [stamp] is
   [tag], so one node-sized array serves every relation with no reset. *)
let pick_sources rng ~stamp ~tag ~start ~n_src ~count =
  if count >= n_src then Array.init count (fun i -> start + (i mod n_src))
  else begin
    let out = Array.make count start in
    let filled = ref 0 in
    let attempts = ref 0 in
    let max_attempts = 20 * count in
    while !filled < count && !attempts < max_attempts do
      incr attempts;
      let s = start + Rng.int rng n_src in
      if stamp.(s) <> tag then begin
        stamp.(s) <- tag;
        out.(!filled) <- s;
        incr filled
      end
    done;
    while !filled < count do
      out.(!filled) <- start + Rng.int rng n_src;
      incr filled
    done;
    out
  end

let generate spec =
  validate spec;
  let rng = Rng.create spec.seed in
  (* 1. node-type sizes, skewed; nodes grouped by type *)
  let ntype_sizes =
    distribute rng ~total:spec.num_nodes ~n:spec.num_ntypes ~minimum:1 ~s:0.8
  in
  let node_type = Array.make spec.num_nodes 0 in
  let ntype_start = Array.make (spec.num_ntypes + 1) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun t size ->
      ntype_start.(t) <- !pos;
      Array.fill node_type !pos size t;
      pos := !pos + size)
    ntype_sizes;
  ntype_start.(spec.num_ntypes) <- !pos;
  (* 2. metagraph: each relation connects two (skew-drawn) node types *)
  let ntype_table = Rng.zipf_table ~n:spec.num_ntypes ~s:0.7 in
  let relations =
    Array.init spec.num_etypes (fun _ ->
        let s = Rng.zipf_draw rng ntype_table in
        let d = Rng.zipf_draw rng ntype_table in
        (s, d))
  in
  let metagraph = Metagraph.create ~num_ntypes:spec.num_ntypes ~relations in
  (* 3. edges per relation, skewed *)
  let edges_per_etype =
    distribute rng ~total:spec.num_edges ~n:spec.num_etypes ~minimum:1 ~s:1.0
  in
  (* 4. per relation: unique (etype, src) pairs, then expand to edges,
     written straight into columns that come out grouped by type *)
  let src = Array.make spec.num_edges 0 in
  let dst = Array.make spec.num_edges 0 in
  let etype = Array.make spec.num_edges 0 in
  let stamp = Array.make spec.num_nodes (-1) in
  let cursor = ref 0 in
  for e = 0 to spec.num_etypes - 1 do
    let n_edges = edges_per_etype.(e) in
    let src_nt, dst_nt = relations.(e) in
    let src_start = ntype_start.(src_nt) and n_src = ntype_sizes.(src_nt) in
    let dst_start = ntype_start.(dst_nt) and n_dst = ntype_sizes.(dst_nt) in
    let n_pairs =
      max 1 (min n_edges (int_of_float (Float.round (spec.compaction_target *. float_of_int n_edges))))
    in
    let sources = pick_sources rng ~stamp ~tag:e ~start:src_start ~n_src ~count:n_pairs in
    let emit s =
      src.(!cursor) <- s;
      dst.(!cursor) <- dst_start + Rng.int rng n_dst;
      etype.(!cursor) <- e;
      incr cursor
    in
    (* every pair once, then Zipf-skewed repeats of them *)
    Array.iter emit sources;
    if n_edges > n_pairs then begin
      let pair_table = Rng.zipf_table ~n:n_pairs ~s:0.9 in
      for _ = n_pairs to n_edges - 1 do
        emit sources.(Rng.zipf_draw rng pair_table)
      done
    end
  done;
  Hetgraph.of_columns ~name:spec.name ~scale:spec.scale ~metagraph ~node_type ~src ~dst ~etype ()
