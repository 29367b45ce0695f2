module Rng = Hector_tensor.Rng

type subgraph = {
  graph : Hetgraph.t;
  origin_node : int array;
  origin_edge : int array;
  seed_nodes : int array;
}

(* Growable int array: the block's node and edge lists and the frontiers
   grow with what a call actually samples, never with the parent graph. *)
type buf = { mutable data : int array; mutable len : int }

let buf cap = { data = Array.make (max 16 cap) 0; len = 0 }

let push b v =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* Block membership: an open-addressing set of node ids (>= 0; -1 marks
   an empty slot), kept at most half full, so it is sized to the block. *)
type set = { mutable keys : int array; mutable size : int }

let set_create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap (-1); size = 0 }

(* Fibonacci hashing: spreads the dense, clustered ids of a typed graph *)
let slot keys v =
  let mask = Array.length keys - 1 in
  let i = ref ((v * 0x9E3779B97F4A7C1) lsr 17 land mask) in
  while keys.(!i) <> -1 && keys.(!i) <> v do
    i := (!i + 1) land mask
  done;
  !i

(* Insert [v]; true iff it was not yet a member. *)
let rec add s v =
  if 2 * (s.size + 1) > Array.length s.keys then begin
    let old = s.keys in
    s.keys <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun k -> if k >= 0 then s.keys.(slot s.keys k) <- k) old;
    add s v
  end
  else
    let i = slot s.keys v in
    if s.keys.(i) = v then false
    else begin
      s.keys.(i) <- v;
      s.size <- s.size + 1;
      true
    end

(* A stable error, not an exception: under a mutating graph a seed can
   legitimately reference a node that a delta has removed. *)
let out_of_range (graph : Hetgraph.t) seeds =
  match Array.find_opt (fun v -> v < 0 || v >= graph.Hetgraph.num_nodes) seeds with
  | Some v ->
      Some
        (Printf.sprintf "Sampler.sample: seed %d out of range (graph has %d nodes)" v
           graph.Hetgraph.num_nodes)
  | None -> None

(* [csr] lets a serving replica reuse one prebuilt incoming CSR across
   every batch (and, under streaming, an incrementally patched one) instead
   of rebuilding it per call; it must be [Csr.incoming graph]. *)
let sample_result ?(seed = 0) ?csr ~(graph : Hetgraph.t) ~seeds ~fanout ~hops () =
  if Array.length seeds = 0 then Error "Sampler.sample: empty seed set"
  else if fanout <= 0 || hops <= 0 then
    Error "Sampler.sample: fanout and hops must be positive"
  else begin
    match out_of_range graph seeds with
    | Some msg -> Error msg
    | None -> (
        let rng = Rng.create seed in
        let csr = match csr with Some c -> c | None -> Csr.incoming graph in
        (* sized for a one-hop block, so a typical call rehashes rarely *)
        let hint = min graph.Hetgraph.num_nodes (Array.length seeds * (fanout + 1)) in
        let members = set_create hint in
        let nodes = buf hint
        and edges = buf (min graph.Hetgraph.num_edges (Array.length seeds * fanout)) in
        Array.iter (fun v -> if add members v then push nodes v) seeds;
        (* a frontier is swept from its end: the seeds (duplicates
           included) in their given order, then each hop's discoveries
           newest first *)
        let frontier = ref (buf (Array.length seeds)) in
        for i = Array.length seeds - 1 downto 0 do
          push !frontier seeds.(i)
        done;
        let row_src = ref [||] and row_eid = ref [||] in
        for _ = 1 to hops do
          let next = buf !frontier.len in
          for f = !frontier.len - 1 downto 0 do
            let v = !frontier.data.(f) in
            let lo = csr.Csr.row_ptr.(v) in
            let deg = csr.Csr.row_ptr.(v + 1) - lo in
            if deg > Array.length !row_src then begin
              row_src := Array.make deg 0;
              row_eid := Array.make deg 0
            end;
            let rs = !row_src and re = !row_eid in
            (* rows are short: a loop beats two [Array.blit] calls *)
            for i = 0 to deg - 1 do
              rs.(i) <- csr.Csr.col.(lo + i);
              re.(i) <- csr.Csr.eid.(lo + i)
            done;
            Rng.shuffle_pair rng rs re deg;
            for i = 0 to min fanout deg - 1 do
              push edges re.(i);
              if add members rs.(i) then begin
                push nodes rs.(i);
                push next rs.(i)
              end
            done
          done;
          frontier := next
        done;
        (* renumbering, type grouping and edge-order preservation live in the
           shared induced-subgraph helper (also used by the graph partitioner) *)
        match
          Hetgraph.induce_result
            ~name:(graph.Hetgraph.name ^ "_block")
            graph ~nodes:(contents nodes) ~edges:(contents edges)
        with
        | Error msg -> Error msg
        | Ok induced ->
            let origin_node = induced.Hetgraph.origin_node in
            Ok
              {
                graph = induced.Hetgraph.sub;
                origin_node;
                origin_edge = induced.Hetgraph.origin_edge;
                seed_nodes = Array.map (Hetgraph.origin_index origin_node) seeds;
              })
  end

let sample ?seed ?csr ~graph ~seeds ~fanout ~hops () =
  match sample_result ?seed ?csr ~graph ~seeds ~fanout ~hops () with
  | Ok sub -> sub
  | Error msg -> invalid_arg msg

(* One block for several requests: sample from the deduplicated union of
   the seed sets, then map every request's own seeds to block ids so its
   output rows can be scattered back out of the shared forward pass. *)
let sample_union_result ?seed ?csr ~(graph : Hetgraph.t) ~seed_sets ~fanout ~hops () =
  if Array.length seed_sets = 0 then Error "Sampler.sample_union: no seed sets"
  else begin
    let empty = ref None in
    Array.iteri
      (fun i s -> if !empty = None && Array.length s = 0 then empty := Some i)
      seed_sets;
    match !empty with
    | Some i -> Error (Printf.sprintf "Sampler.sample_union: seed set %d is empty" i)
    | None -> (
        (* the range check runs before deduplication (which needs ids >= 0)
           and reports the first bad seed, as sampling the union would *)
        match Array.find_map (out_of_range graph) seed_sets with
        | Some msg -> Error msg
        | None -> (
            let seen = set_create 64 and union = buf 64 in
            Array.iter (Array.iter (fun v -> if add seen v then push union v)) seed_sets;
            match sample_result ?seed ?csr ~graph ~seeds:(contents union) ~fanout ~hops () with
            | Error msg -> Error msg
            | Ok sub ->
                let block_id = Hetgraph.origin_index sub.origin_node in
                Ok (sub, Array.map (Array.map block_id) seed_sets)))
  end

let sample_union ?seed ?csr ~graph ~seed_sets ~fanout ~hops () =
  match sample_union_result ?seed ?csr ~graph ~seed_sets ~fanout ~hops () with
  | Ok r -> r
  | Error msg -> invalid_arg msg

let induced_feature_rows sub = sub.origin_node
