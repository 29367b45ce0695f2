type t = { num_ntypes : int; relations : (int * int) array }

let create ~num_ntypes ~relations =
  if num_ntypes <= 0 then invalid_arg "Metagraph.create: num_ntypes must be positive";
  Array.iteri
    (fun e (s, d) ->
      if s < 0 || s >= num_ntypes || d < 0 || d >= num_ntypes then
        invalid_arg
          (Printf.sprintf "Metagraph.create: relation %d = (%d, %d) out of %d node types" e s d
             num_ntypes))
    relations;
  { num_ntypes; relations = Array.copy relations }

let num_ntypes t = t.num_ntypes
let num_etypes t = Array.length t.relations
let src_ntype t e = fst t.relations.(e)
let dst_ntype t e = snd t.relations.(e)

let etypes_with_dst t nt =
  let acc = ref [] in
  for e = Array.length t.relations - 1 downto 0 do
    if snd t.relations.(e) = nt then acc := e :: !acc
  done;
  !acc

