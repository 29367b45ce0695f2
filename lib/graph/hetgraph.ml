type t = {
  name : string;
  metagraph : Metagraph.t;
  num_nodes : int;
  num_edges : int;
  node_type : int array;
  src : int array;
  dst : int array;
  etype : int array;
  scale : float;
}

let num_ntypes g = Metagraph.num_ntypes g.metagraph
let num_etypes g = Metagraph.num_etypes g.metagraph

(* Validate the columns and adopt them.  [fn] names the public entry
   point in error messages. *)
let of_columns_checked ~fn ~name ~scale ~metagraph ~node_type ~src ~dst ~etype =
  if scale < 1.0 then invalid_arg (fn ^ ": scale must be >= 1");
  let num_nodes = Array.length node_type in
  let nt_count = Metagraph.num_ntypes metagraph in
  Array.iteri
    (fun i nt ->
      if nt < 0 || nt >= nt_count then
        invalid_arg (Printf.sprintf "%s: node %d has type %d out of %d" fn i nt nt_count);
      if i > 0 && node_type.(i - 1) > nt then
        invalid_arg (fn ^ ": node types must be sorted (nodes grouped by type)"))
    node_type;
  let num_edges = Array.length etype in
  if Array.length src <> num_edges || Array.length dst <> num_edges then
    invalid_arg (fn ^ ": src, dst and etype differ in length");
  let et_count = Metagraph.num_etypes metagraph in
  for i = 0 to num_edges - 1 do
    let s = src.(i) and d = dst.(i) and e = etype.(i) in
    if e < 0 || e >= et_count then
      invalid_arg (Printf.sprintf "%s: edge %d has type %d out of %d" fn i e et_count);
    if i > 0 && etype.(i - 1) > e then
      invalid_arg (fn ^ ": edges must be grouped by type");
    if s < 0 || s >= num_nodes || d < 0 || d >= num_nodes then
      invalid_arg (Printf.sprintf "%s: edge %d endpoints (%d, %d) out of %d" fn i s d num_nodes);
    if node_type.(s) <> Metagraph.src_ntype metagraph e then
      invalid_arg
        (Printf.sprintf "%s: edge %d source type %d violates relation %d" fn i node_type.(s) e);
    if node_type.(d) <> Metagraph.dst_ntype metagraph e then
      invalid_arg
        (Printf.sprintf "%s: edge %d destination type %d violates relation %d" fn i
           node_type.(d) e)
  done;
  { name; metagraph; num_nodes; num_edges; node_type; src; dst; etype; scale }

let of_columns ?(name = "graph") ?(scale = 1.0) ~metagraph ~node_type ~src ~dst ~etype () =
  of_columns_checked ~fn:"Hetgraph.of_columns" ~name ~scale ~metagraph ~node_type ~src ~dst
    ~etype

let create ?(name = "graph") ?(scale = 1.0) ~metagraph ~node_type ~edges () =
  (* stable: callers (e.g. the sampler) rely on input order within a type.
     Edges that already arrive grouped by type (generated datasets,
     sampled and partitioned subgraphs) skip the sort — a stable sort of
     them is the identity. *)
  let grouped = ref true in
  for i = 1 to Array.length edges - 1 do
    let _, _, prev = edges.(i - 1) and _, _, e = edges.(i) in
    if prev > e then grouped := false
  done;
  let edges =
    if !grouped then edges
    else begin
      let edges = Array.copy edges in
      Array.stable_sort (fun (_, _, e1) (_, _, e2) -> compare e1 e2) edges;
      edges
    end
  in
  of_columns_checked ~fn:"Hetgraph.create" ~name ~scale ~metagraph
    ~node_type:(Array.copy node_type)
    ~src:(Array.map (fun (s, _, _) -> s) edges)
    ~dst:(Array.map (fun (_, d, _) -> d) edges)
    ~etype:(Array.map (fun (_, _, e) -> e) edges)

let logical_nodes g = int_of_float (Float.round (float_of_int g.num_nodes *. g.scale))
let logical_edges g = int_of_float (Float.round (float_of_int g.num_edges *. g.scale))

let density g =
  let n = float_of_int (logical_nodes g) in
  if n = 0.0 then 0.0 else float_of_int (logical_edges g) /. (n *. n)

(* Find the contiguous range of [key] in a sorted array via linear bounds.
   Ranges are queried per type, and type counts are small, so precompute
   lazily would be overkill; a binary search keeps it O(log n). *)
let range_of_sorted sorted key =
  let n = Array.length sorted in
  let lower_bound k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < k then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let start = lower_bound key in
  let stop = lower_bound (key + 1) in
  (start, stop - start)

let nodes_of_type g nt =
  if nt < 0 || nt >= num_ntypes g then invalid_arg "Hetgraph.nodes_of_type: bad type";
  range_of_sorted g.node_type nt

let edges_of_type g e =
  if e < 0 || e >= num_etypes g then invalid_arg "Hetgraph.edges_of_type: bad type";
  range_of_sorted g.etype e

let in_degrees g =
  let d = Array.make g.num_nodes 0 in
  Array.iter (fun v -> d.(v) <- d.(v) + 1) g.dst;
  d

let out_degrees g =
  let d = Array.make g.num_nodes 0 in
  Array.iter (fun v -> d.(v) <- d.(v) + 1) g.src;
  d

let in_degrees_by_rel g =
  let d = Array.make_matrix (num_etypes g) g.num_nodes 0 in
  for i = 0 to g.num_edges - 1 do
    let r = g.etype.(i) and v = g.dst.(i) in
    d.(r).(v) <- d.(r).(v) + 1
  done;
  d

type induced = { sub : t; origin_node : int array; origin_edge : int array }

(* Local early-exit channel for [induce_result]; never escapes this file. *)
exception Induce_error of string

(* The renumbering shared by the sampler and the partitioner: given the
   parent ids of the member nodes and edges, produce a self-contained
   subgraph upholding every [create] invariant, plus the origin maps.
   Nodes are ordered by (type, parent id) so the "grouped by type"
   invariant holds and the order is deterministic; edges keep the caller's
   order within each type ([create]'s sort is stable), so the caller's
   origin map survives the construction. *)
let induce_result ?name g ~nodes ~edges =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Induce_error msg)) fmt in
  try
    let sub_name = match name with Some n -> n | None -> g.name ^ "_sub" in
    let origin_node = Array.copy nodes in
    Array.iter
      (fun v ->
        if v < 0 || v >= g.num_nodes then
          fail "Hetgraph.induce: node %d out of range (graph has %d nodes)" v g.num_nodes)
      origin_node;
    Array.sort (fun a b -> compare (g.node_type.(a), a) (g.node_type.(b), b)) origin_node;
    Array.iteri
      (fun i v ->
        if i > 0 && v = origin_node.(i - 1) then
          fail "Hetgraph.induce: duplicate node %d" v)
      origin_node;
    let new_id = Hashtbl.create (Array.length origin_node) in
    Array.iteri (fun i v -> Hashtbl.replace new_id v i) origin_node;
    let node_type = Array.map (fun v -> g.node_type.(v)) origin_node in
    let origin_edge = Array.copy edges in
    Array.stable_sort (fun a b -> compare g.etype.(a) g.etype.(b)) origin_edge;
    let local v =
      match Hashtbl.find_opt new_id v with
      | Some i -> i
      | None -> fail "Hetgraph.induce: edge endpoint %d is not a member node" v
    in
    let triples =
      Array.map
        (fun eid ->
          if eid < 0 || eid >= g.num_edges then
            fail "Hetgraph.induce: edge %d out of range (graph has %d edges)" eid
              g.num_edges;
          (local g.src.(eid), local g.dst.(eid), g.etype.(eid)))
        origin_edge
    in
    let sub =
      create ~name:sub_name ~metagraph:g.metagraph ~node_type ~edges:triples ()
    in
    Ok { sub; origin_node; origin_edge }
  with
  | Induce_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let induce ?name g ~nodes ~edges =
  match induce_result ?name g ~nodes ~edges with
  | Ok r -> r
  | Error msg -> invalid_arg msg

let pp fmt g =
  Format.fprintf fmt "%s: %d ntypes, %d etypes, %d nodes, %d edges (scale %.0f -> %d/%d logical)"
    g.name (num_ntypes g) (num_etypes g) g.num_nodes g.num_edges g.scale (logical_nodes g)
    (logical_edges g)
