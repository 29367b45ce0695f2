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
  (* stable: callers rely on input order within a type.  Edges that
     already arrive grouped by type (generated datasets) skip the sort — a
     stable sort of them is the identity. *)
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

type induced = { sub : t; origin_node : int array; origin_edge : int array }

(* Local early-exit channel for [induce_result]; never escapes this file. *)
exception Induce_error of string

(* Ascending LSD radix sort of non-negative ints, one byte per pass: a
   block's ids take two or three O(n) passes, with no comparison closure. *)
let sort_ids a =
  let n = Array.length a in
  let top = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) > !top then top := a.(i)
  done;
  let src = ref a and dst = ref (Array.make n 0) and shift = ref 0 in
  let count = Array.make 257 0 in
  while n > 1 && !top lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 257 0;
    for i = 0 to n - 1 do
      let b = ((s.(i) lsr sh) land 255) + 1 in
      count.(b) <- count.(b) + 1
    done;
    for b = 1 to 255 do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for i = 0 to n - 1 do
      let v = s.(i) in
      let b = (v lsr sh) land 255 in
      d.(count.(b)) <- v;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Branch-free lower bound: the comparison becomes a mask ([x asr 62] is
   all ones iff [x < 0], exact for node ids), so the loop never
   mispredicts — a block's endpoints are looked up in random order. *)
let origin_index (sorted : int array) v =
  let n = Array.length sorted in
  if n = 0 || v < 0 then -1
  else begin
    let base = ref 0 and len = ref n in
    while !len > 1 do
      let half = !len lsr 1 in
      base := !base + (half land ((sorted.(!base + half) - v) asr 62));
      len := !len - half
    done;
    let i = if sorted.(!base) < v then !base + 1 else !base in
    if i < n && sorted.(i) = v then i else -1
  end

(* The renumbering shared by the sampler and the partitioner: given the
   parent ids of the member nodes and edges, produce a self-contained
   subgraph upholding every [create] invariant, plus the origin maps.
   Parent nodes are grouped by type, so (type, parent id) order is plain
   id order: an int sort orders the members and a binary search renumbers
   endpoints.  Edges are grouped by type with a stable counting sort, so
   they keep the caller's order within each type and the caller's origin
   map survives the construction. *)
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
    sort_ids origin_node;
    for i = 1 to Array.length origin_node - 1 do
      if origin_node.(i) = origin_node.(i - 1) then
        fail "Hetgraph.induce: duplicate node %d" origin_node.(i)
    done;
    let node_type = Array.map (fun v -> g.node_type.(v)) origin_node in
    Array.iter
      (fun eid ->
        if eid < 0 || eid >= g.num_edges then
          fail "Hetgraph.induce: edge %d out of range (graph has %d edges)" eid g.num_edges)
      edges;
    let m = Array.length edges in
    let start = Array.make (num_etypes g + 1) 0 in
    Array.iter
      (fun eid ->
        let r = g.etype.(eid) + 1 in
        start.(r) <- start.(r) + 1)
      edges;
    for r = 1 to num_etypes g do
      start.(r) <- start.(r) + start.(r - 1)
    done;
    let origin_edge = Array.make m 0 in
    Array.iter
      (fun eid ->
        let r = g.etype.(eid) in
        origin_edge.(start.(r)) <- eid;
        start.(r) <- start.(r) + 1)
      edges;
    let local v =
      let i = origin_index origin_node v in
      if i < 0 then fail "Hetgraph.induce: edge endpoint %d is not a member node" v;
      i
    in
    let src = Array.make m 0 and dst = Array.make m 0 in
    (* destination first: an edge with neither endpoint a member names its
       destination in the error *)
    Array.iteri
      (fun i eid ->
        dst.(i) <- local g.dst.(eid);
        src.(i) <- local g.src.(eid))
      origin_edge;
    let sub =
      of_columns_checked ~fn:"Hetgraph.create" ~name:sub_name ~scale:1.0 ~metagraph:g.metagraph
        ~node_type ~src ~dst
        ~etype:(Array.map (fun eid -> g.etype.(eid)) origin_edge)
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
