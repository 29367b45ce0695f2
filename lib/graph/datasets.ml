type info = {
  name : string;
  num_ntypes : int;
  num_etypes : int;
  logical_nodes : int;
  logical_edges : int;
  compaction_target : float;
}

(* Table 4 of the paper.  Compaction targets: am and fb15k from §4.4; the
   others estimated from |E|, |V|, |T(E)| (see the .mli). *)
let all =
  [
    { name = "aifb"; num_ntypes = 7; num_etypes = 104; logical_nodes = 7_262; logical_edges = 48_810; compaction_target = 0.72 };
    { name = "mutag"; num_ntypes = 5; num_etypes = 50; logical_nodes = 27_160; logical_edges = 148_100; compaction_target = 0.62 };
    { name = "bgs"; num_ntypes = 27; num_etypes = 122; logical_nodes = 94_810; logical_edges = 672_900; compaction_target = 0.66 };
    { name = "am"; num_ntypes = 7; num_etypes = 108; logical_nodes = 1_885_000; logical_edges = 5_669_000; compaction_target = 0.57 };
    { name = "mag"; num_ntypes = 4; num_etypes = 4; logical_nodes = 1_940_000; logical_edges = 21_110_000; compaction_target = 0.30 };
    { name = "wikikg2"; num_ntypes = 1; num_etypes = 535; logical_nodes = 2_501_000; logical_edges = 16_110_000; compaction_target = 0.55 };
    { name = "fb15k"; num_ntypes = 1; num_etypes = 474; logical_nodes = 14_540; logical_edges = 620_200; compaction_target = 0.26 };
    { name = "biokg"; num_ntypes = 5; num_etypes = 51; logical_nodes = 93_770; logical_edges = 4_763_000; compaction_target = 0.18 };
  ]

let find name =
  match List.find_opt (fun i -> String.equal i.name name) all with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Datasets.find: unknown dataset %S (known: %s)" name
           (String.concat ", " (List.map (fun i -> i.name) all)))

let load ?(max_nodes = 3000) ?(max_edges = 9000) ?(seed = 7) info =
  let check what cap =
    if cap < 1 then invalid_arg (Printf.sprintf "Datasets.load: %s must be >= 1 (got %d)" what cap)
  in
  check "max_nodes" max_nodes;
  check "max_edges" max_edges;
  let scale =
    Float.max 1.0
      (Float.max
         (float_of_int info.logical_nodes /. float_of_int max_nodes)
         (float_of_int info.logical_edges /. float_of_int max_edges))
  in
  let phys count minimum =
    max minimum (int_of_float (Float.round (float_of_int count /. scale)))
  in
  Generator.generate
    {
      Generator.name = info.name;
      num_ntypes = info.num_ntypes;
      num_etypes = info.num_etypes;
      num_nodes = phys info.logical_nodes info.num_ntypes;
      num_edges = phys info.logical_edges info.num_etypes;
      compaction_target = info.compaction_target;
      scale;
      seed = seed + Hashtbl.hash info.name;
    }
