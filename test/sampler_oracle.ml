(* The list-and-Hashtbl neighborhood sampler and the tuple-sorting
   [Hetgraph.induce] that [Hector_graph.Sampler] and [Hetgraph.induce_result]
   replaced, kept as the reference their flat-array versions are tested
   against (test_sampler.ml's differential property).  Every frontier row
   becomes a fresh [(src, eid)] list, membership lives in a polymorphic
   hashtable, member nodes are sorted by [(type, id)] tuples and endpoints
   renumbered through a hashtable.  It returns the library's record types
   so results compare field by field. *)

module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Sampler = Hector_graph.Sampler

(* The [(neighbor, eid)] list of CSR row [r], in row order. *)
let neighbors (t : Csr.t) r =
  let acc = ref [] in
  for k = t.Csr.row_ptr.(r + 1) - 1 downto t.Csr.row_ptr.(r) do
    acc := (t.Csr.col.(k), t.Csr.eid.(k)) :: !acc
  done;
  !acc

exception Induce_error of string

let induce_result ?name (g : G.t) ~nodes ~edges =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Induce_error msg)) fmt in
  try
    let sub_name = match name with Some n -> n | None -> g.G.name ^ "_sub" in
    let origin_node = Array.copy nodes in
    Array.iter
      (fun v ->
        if v < 0 || v >= g.G.num_nodes then
          fail "Hetgraph.induce: node %d out of range (graph has %d nodes)" v g.G.num_nodes)
      origin_node;
    Array.sort (fun a b -> compare (g.G.node_type.(a), a) (g.G.node_type.(b), b)) origin_node;
    Array.iteri
      (fun i v -> if i > 0 && v = origin_node.(i - 1) then fail "Hetgraph.induce: duplicate node %d" v)
      origin_node;
    let new_id = Hashtbl.create (Array.length origin_node) in
    Array.iteri (fun i v -> Hashtbl.replace new_id v i) origin_node;
    let node_type = Array.map (fun v -> g.G.node_type.(v)) origin_node in
    let origin_edge = Array.copy edges in
    Array.stable_sort (fun a b -> compare g.G.etype.(a) g.G.etype.(b)) origin_edge;
    let local v =
      match Hashtbl.find_opt new_id v with
      | Some i -> i
      | None -> fail "Hetgraph.induce: edge endpoint %d is not a member node" v
    in
    let triples =
      Array.map
        (fun eid ->
          if eid < 0 || eid >= g.G.num_edges then
            fail "Hetgraph.induce: edge %d out of range (graph has %d edges)" eid g.G.num_edges;
          (local g.G.src.(eid), local g.G.dst.(eid), g.G.etype.(eid)))
        origin_edge
    in
    let sub = G.create ~name:sub_name ~metagraph:g.G.metagraph ~node_type ~edges:triples () in
    Ok { G.sub; origin_node; origin_edge }
  with
  | Induce_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let sample_result ?(seed = 0) ?csr ~(graph : G.t) ~seeds ~fanout ~hops () =
  if Array.length seeds = 0 then Error "Sampler.sample: empty seed set"
  else if fanout <= 0 || hops <= 0 then Error "Sampler.sample: fanout and hops must be positive"
  else begin
    let bad = ref None in
    Array.iter
      (fun v -> if !bad = None && (v < 0 || v >= graph.G.num_nodes) then bad := Some v)
      seeds;
    match !bad with
    | Some v ->
        Error
          (Printf.sprintf "Sampler.sample: seed %d out of range (graph has %d nodes)" v
             graph.G.num_nodes)
    | None -> (
        let rng = Rng.create seed in
        let csr = match csr with Some c -> c | None -> Csr.incoming graph in
        let in_block = Hashtbl.create (Array.length seeds * 4) in
        let edges = ref [] in
        Array.iter (fun v -> Hashtbl.replace in_block v ()) seeds;
        let frontier = ref (Array.to_list seeds) in
        for _ = 1 to hops do
          let next = ref [] in
          List.iter
            (fun v ->
              let incident = Array.of_list (neighbors csr v) in
              Rng.shuffle rng incident;
              let keep = min fanout (Array.length incident) in
              for i = 0 to keep - 1 do
                let src, eid = incident.(i) in
                edges := eid :: !edges;
                if not (Hashtbl.mem in_block src) then begin
                  Hashtbl.replace in_block src ();
                  next := src :: !next
                end
              done)
            !frontier;
          frontier := !next
        done;
        let nodes = Array.of_list (Hashtbl.fold (fun v () acc -> v :: acc) in_block []) in
        match
          induce_result ~name:(graph.G.name ^ "_block") graph ~nodes
            ~edges:(Array.of_list (List.rev !edges))
        with
        | Error msg -> Error msg
        | Ok induced ->
            let new_id = Hashtbl.create (Array.length induced.G.origin_node) in
            Array.iteri (fun i v -> Hashtbl.replace new_id v i) induced.G.origin_node;
            Ok
              {
                Sampler.graph = induced.G.sub;
                origin_node = induced.G.origin_node;
                origin_edge = induced.G.origin_edge;
                seed_nodes = Array.map (Hashtbl.find new_id) seeds;
              })
  end

let sample_union_result ?seed ?csr ~graph ~seed_sets ~fanout ~hops () =
  if Array.length seed_sets = 0 then Error "Sampler.sample_union: no seed sets"
  else begin
    let empty = ref None in
    Array.iteri (fun i s -> if !empty = None && Array.length s = 0 then empty := Some i) seed_sets;
    match !empty with
    | Some i -> Error (Printf.sprintf "Sampler.sample_union: seed set %d is empty" i)
    | None -> (
        let seen = Hashtbl.create 64 in
        let acc = ref [] in
        Array.iter
          (Array.iter (fun v ->
               if not (Hashtbl.mem seen v) then begin
                 Hashtbl.replace seen v ();
                 acc := v :: !acc
               end))
          seed_sets;
        let union = Array.of_list (List.rev !acc) in
        match sample_result ?seed ?csr ~graph ~seeds:union ~fanout ~hops () with
        | Error msg -> Error msg
        | Ok sub ->
            let block_id = Hashtbl.create (Array.length sub.Sampler.origin_node) in
            Array.iteri (fun i v -> Hashtbl.replace block_id v i) sub.Sampler.origin_node;
            Ok (sub, Array.map (Array.map (Hashtbl.find block_id)) seed_sets))
  end
