module Rng = Hector_tensor.Rng
module Metagraph = Hector_graph.Metagraph

type op =
  | Add_node of { ntype : int; feat : float array option }
  | Remove_node of { node : int }
  | Add_edge of { etype : int; src : int; dst : int }
  | Remove_edge of { edge : int }
  | Set_feat of { node : int; feat : float array }

type t = { ops : op array }

let size t = Array.length t.ops
let structural t = Array.exists (function Set_feat _ -> false | _ -> true) t.ops

type view = {
  metagraph : Metagraph.t;
  feat_dim : int;
  live_nodes : int -> int array;
  live_edges : int -> (int * int * int) array;
}

type mix = {
  add_node : float;
  remove_node : float;
  add_edge : float;
  remove_edge : float;
  set_feat : float;
}

let default_mix =
  { add_node = 0.15; remove_node = 0.05; add_edge = 0.35; remove_edge = 0.10; set_feat = 0.35 }

(* A shadow of the live state the generator mutates as it draws, so every
   op in the batch is valid at its position: removals drop targets from the
   pools (and, for nodes, drop incident edges — mirroring the implicit
   removal [Mutable_graph.apply] performs), and nothing references a node
   inserted earlier in the same batch (its stable id is the graph's
   business).  Pools use swap-removal: order inside a pool is irrelevant
   because every draw is uniform. *)
type pool = { mutable items : (int * int * int) array; mutable len : int }

let pool_of arr = { items = Array.copy arr; len = Array.length arr }

let pool_swap_remove p i =
  p.len <- p.len - 1;
  p.items.(i) <- p.items.(p.len)

let generate ?(mix = default_mix) ~view ~seed ~ops () =
  if ops < 0 then invalid_arg "Delta.generate: negative op count";
  if
    mix.add_node < 0.0 || mix.remove_node < 0.0 || mix.add_edge < 0.0
    || mix.remove_edge < 0.0 || mix.set_feat < 0.0
    || mix.add_node +. mix.remove_node +. mix.add_edge +. mix.remove_edge +. mix.set_feat
       <= 0.0
  then invalid_arg "Delta.generate: mix weights must be non-negative with positive sum";
  let rng = Rng.create seed in
  let ntypes = Metagraph.num_ntypes view.metagraph in
  let etypes = Metagraph.num_etypes view.metagraph in
  let nodes =
    Array.init ntypes (fun nt ->
        pool_of (Array.map (fun s -> (s, nt, 0)) (view.live_nodes nt)))
  in
  let edges = Array.init etypes (fun et -> pool_of (view.live_edges et)) in
  let fresh_feat () = Array.init view.feat_dim (fun _ -> Rng.gaussian rng) in
  let can_remove_node () = Array.exists (fun p -> p.len >= 2) nodes in
  let can_add_edge () =
    let ok = ref false in
    for et = 0 to etypes - 1 do
      if
        nodes.(Metagraph.src_ntype view.metagraph et).len > 0
        && nodes.(Metagraph.dst_ntype view.metagraph et).len > 0
      then ok := true
    done;
    !ok
  in
  let can_remove_edge () = Array.exists (fun p -> p.len > 0) edges in
  let can_set_feat () = Array.exists (fun p -> p.len > 0) nodes in
  let acc = ref [] in
  for _ = 1 to ops do
    let cats =
      List.filter
        (fun (_, w, feasible) -> w > 0.0 && feasible ())
        [
          (`Add_node, mix.add_node, fun () -> true);
          (`Remove_node, mix.remove_node, can_remove_node);
          (`Add_edge, mix.add_edge, can_add_edge);
          (`Remove_edge, mix.remove_edge, can_remove_edge);
          (`Set_feat, mix.set_feat, can_set_feat);
        ]
    in
    match cats with
    | [] -> () (* nothing feasible: emit fewer ops than asked *)
    | _ ->
        let total = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 cats in
        let r = Rng.float rng total in
        let cat =
          let rec pick acc = function
            | [ (c, _, _) ] -> c
            | (c, w, _) :: rest -> if r < acc +. w then c else pick (acc +. w) rest
            | [] -> assert false
          in
          pick 0.0 cats
        in
        let pick_pool pools pred =
          (* uniform over the union of the qualifying pools *)
          let total = Array.fold_left (fun a p -> a + if pred p then p.len else 0) 0 pools in
          let k = ref (Rng.int rng total) in
          let chosen = ref (-1) and slot = ref 0 in
          Array.iteri
            (fun i p ->
              if !chosen < 0 && pred p then
                if !k < p.len then begin
                  chosen := i;
                  slot := !k
                end
                else k := !k - p.len)
            pools;
          (!chosen, !slot)
        in
        (match cat with
        | `Add_node ->
            let nt = Rng.int rng ntypes in
            acc := Add_node { ntype = nt; feat = Some (fresh_feat ()) } :: !acc
        | `Remove_node ->
            let nt, slot = pick_pool nodes (fun p -> p.len >= 2) in
            let s, _, _ = nodes.(nt).items.(slot) in
            pool_swap_remove nodes.(nt) slot;
            (* implicit removal: drop edges incident to the node *)
            Array.iter
              (fun p ->
                let i = ref 0 in
                while !i < p.len do
                  let _, es, ed = p.items.(!i) in
                  if es = s || ed = s then pool_swap_remove p !i else incr i
                done)
              edges;
            acc := Remove_node { node = s } :: !acc
        | `Add_edge ->
            let feasible = Array.make etypes false in
            for et = 0 to etypes - 1 do
              feasible.(et) <-
                nodes.(Metagraph.src_ntype view.metagraph et).len > 0
                && nodes.(Metagraph.dst_ntype view.metagraph et).len > 0
            done;
            let count = Array.fold_left (fun a b -> a + if b then 1 else 0) 0 feasible in
            let k = ref (Rng.int rng count) in
            let et = ref 0 in
            Array.iteri
              (fun i f ->
                if f then begin
                  if !k = 0 then et := i;
                  decr k
                end)
              feasible;
            let et = !et in
            let spool = nodes.(Metagraph.src_ntype view.metagraph et) in
            let dpool = nodes.(Metagraph.dst_ntype view.metagraph et) in
            let s, _, _ = spool.items.(Rng.int rng spool.len) in
            let d, _, _ = dpool.items.(Rng.int rng dpool.len) in
            acc := Add_edge { etype = et; src = s; dst = d } :: !acc
        | `Remove_edge ->
            let et, slot = pick_pool edges (fun p -> p.len > 0) in
            let e, _, _ = edges.(et).items.(slot) in
            pool_swap_remove edges.(et) slot;
            acc := Remove_edge { edge = e } :: !acc
        | `Set_feat ->
            let nt, slot = pick_pool nodes (fun p -> p.len > 0) in
            let s, _, _ = nodes.(nt).items.(slot) in
            acc := Set_feat { node = s; feat = fresh_feat () } :: !acc)
  done;
  { ops = Array.of_list (List.rev !acc) }
