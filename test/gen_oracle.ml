(* The dataset generator that [Hector_graph.Generator] replaced, kept as
   the reference its tabulated Zipf draws and flat edge columns are tested
   against (test_graph.ml's differential property).  Every Zipf variate
   recomputes the harmonic normaliser and rescans it linearly, source
   membership lives in a fresh hashtable per relation, and edges are
   built as [(src, dst, etype)] tuples handed to [Hetgraph.create].  It
   takes the library's [spec] and returns its graph type so results
   compare field by field. *)

module Rng = Hector_tensor.Rng
module Hetgraph = Hector_graph.Hetgraph
module Metagraph = Hector_graph.Metagraph
module Ds = Hector_graph.Datasets
open Hector_graph.Generator

(* Inverse CDF on the exact harmonic weights, by linear scan. *)
let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  let total = ref 0.0 in
  for i = 1 to n do
    total := !total +. (1.0 /. (float_of_int i ** s))
  done;
  let target = Rng.uniform t *. !total in
  let acc = ref 0.0 and result = ref (n - 1) in
  (try
     for i = 1 to n do
       acc := !acc +. (1.0 /. (float_of_int i ** s));
       if !acc >= target then begin
         result := i - 1;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let distribute rng ~total ~n ~minimum ~s =
  if total < n * minimum then
    invalid_arg (Printf.sprintf "Generator: cannot place %d items in %d buckets (min %d)" total n minimum);
  let counts = Array.make n minimum in
  let remaining = total - (n * minimum) in
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  let assigned = ref 0 in
  for i = 0 to n - 1 do
    let share = int_of_float (float_of_int remaining *. weights.(i) /. wsum) in
    counts.(i) <- counts.(i) + share;
    assigned := !assigned + share
  done;
  for _ = 1 to remaining - !assigned do
    let i = zipf rng ~n ~s in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let pick_sources rng ~start ~n_src ~count =
  if count >= n_src then Array.init count (fun i -> start + (i mod n_src))
  else begin
    let chosen = Hashtbl.create (2 * count) in
    let out = Array.make count start in
    let filled = ref 0 in
    let attempts = ref 0 in
    let max_attempts = 20 * count in
    while !filled < count && !attempts < max_attempts do
      incr attempts;
      let s = start + Rng.int rng n_src in
      if not (Hashtbl.mem chosen s) then begin
        Hashtbl.add chosen s ();
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

(* [spec] validation is the library's; only valid specs are replayed. *)
let generate spec =
  let rng = Rng.create spec.seed in
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
  let relations =
    Array.init spec.num_etypes (fun _ ->
        let s = zipf rng ~n:spec.num_ntypes ~s:0.7 in
        let d = zipf rng ~n:spec.num_ntypes ~s:0.7 in
        (s, d))
  in
  let metagraph = Metagraph.create ~num_ntypes:spec.num_ntypes ~relations in
  let edges_per_etype =
    distribute rng ~total:spec.num_edges ~n:spec.num_etypes ~minimum:1 ~s:1.0
  in
  let edges = Array.make spec.num_edges (0, 0, 0) in
  let cursor = ref 0 in
  for e = 0 to spec.num_etypes - 1 do
    let n_edges = edges_per_etype.(e) in
    let src_nt, dst_nt = relations.(e) in
    let src_start = ntype_start.(src_nt) and n_src = ntype_sizes.(src_nt) in
    let dst_start = ntype_start.(dst_nt) and n_dst = ntype_sizes.(dst_nt) in
    let n_pairs =
      max 1 (min n_edges (int_of_float (Float.round (spec.compaction_target *. float_of_int n_edges))))
    in
    let sources = pick_sources rng ~start:src_start ~n_src ~count:n_pairs in
    for k = 0 to n_edges - 1 do
      let pair = if k < n_pairs then k else zipf rng ~n:n_pairs ~s:0.9 in
      let s = sources.(pair) in
      let d = dst_start + Rng.int rng n_dst in
      edges.(!cursor) <- (s, d, e);
      incr cursor
    done
  done;
  Hetgraph.create ~name:spec.name ~scale:spec.scale ~metagraph ~node_type ~edges ()

(* [Datasets.load]'s sizing, generating through the oracle. *)
let load ?(max_nodes = 3000) ?(max_edges = 9000) ?(seed = 7) (info : Ds.info) =
  let scale =
    Float.max 1.0
      (Float.max
         (float_of_int info.Ds.logical_nodes /. float_of_int max_nodes)
         (float_of_int info.Ds.logical_edges /. float_of_int max_edges))
  in
  let phys count minimum =
    max minimum (int_of_float (Float.round (float_of_int count /. scale)))
  in
  generate
    {
      name = info.Ds.name;
      num_ntypes = info.Ds.num_ntypes;
      num_etypes = info.Ds.num_etypes;
      num_nodes = phys info.Ds.logical_nodes info.Ds.num_ntypes;
      num_edges = phys info.Ds.logical_edges info.Ds.num_etypes;
      compaction_target = info.Ds.compaction_target;
      scale;
      seed = seed + Hashtbl.hash info.Ds.name;
    }
