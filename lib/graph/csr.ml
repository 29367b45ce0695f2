type t = { row_ptr : int array; col : int array; eid : int array }

let build num_rows ~row_of ~col_of num_edges =
  let counts = Array.make (num_rows + 1) 0 in
  for i = 0 to num_edges - 1 do
    let r = row_of i in
    counts.(r + 1) <- counts.(r + 1) + 1
  done;
  for r = 1 to num_rows do
    counts.(r) <- counts.(r) + counts.(r - 1)
  done;
  let row_ptr = Array.copy counts in
  let col = Array.make num_edges 0 and eid = Array.make num_edges 0 in
  let cursor = Array.sub counts 0 (num_rows + 1) in
  for i = 0 to num_edges - 1 do
    let r = row_of i in
    let pos = cursor.(r) in
    col.(pos) <- col_of i;
    eid.(pos) <- i;
    cursor.(r) <- pos + 1
  done;
  { row_ptr; col; eid }

let incoming (g : Hetgraph.t) =
  build g.num_nodes ~row_of:(fun i -> g.dst.(i)) ~col_of:(fun i -> g.src.(i)) g.num_edges

let outgoing (g : Hetgraph.t) =
  build g.num_nodes ~row_of:(fun i -> g.src.(i)) ~col_of:(fun i -> g.dst.(i)) g.num_edges

(* Incremental incoming-CSR maintenance for the streaming subsystem: when a
   delta changes edges but not the node set, only the rows whose incoming
   edge set changed are regathered; every untouched row is copied with its
   edge ids renumbered through [edge_map] (which must be monotone, so the
   ascending-eid order within a row survives).  Returns the patched CSR and
   the number of rows regathered. *)
let patch_incoming old ~(old_graph : Hetgraph.t) ~(graph : Hetgraph.t) ~edge_map =
  let n = graph.Hetgraph.num_nodes in
  if old_graph.Hetgraph.num_nodes <> n then
    invalid_arg "Csr.patch_incoming: node set changed (rebuild instead)";
  if Array.length edge_map <> old_graph.Hetgraph.num_edges then
    invalid_arg "Csr.patch_incoming: edge_map length mismatch";
  let changed = Array.make n false in
  (* removed old edges dirty their old destination row *)
  let last = ref (-1) in
  Array.iteri
    (fun e m ->
      if m < 0 then changed.(old_graph.Hetgraph.dst.(e)) <- true
      else begin
        if m <= !last || m >= graph.Hetgraph.num_edges then
          invalid_arg "Csr.patch_incoming: edge_map must be monotone and in range";
        last := m
      end)
    edge_map;
  (* new edges absent from the map image dirty their destination row *)
  let survived = Array.make graph.Hetgraph.num_edges false in
  Array.iter (fun m -> if m >= 0 then survived.(m) <- true) edge_map;
  for e = 0 to graph.Hetgraph.num_edges - 1 do
    if not survived.(e) then changed.(graph.Hetgraph.dst.(e)) <- true
  done;
  (* new row_ptr: unchanged rows keep their degree, dirty rows are recounted *)
  let row_ptr = Array.make (n + 1) 0 in
  for e = 0 to graph.Hetgraph.num_edges - 1 do
    let r = graph.Hetgraph.dst.(e) in
    if changed.(r) then row_ptr.(r + 1) <- row_ptr.(r + 1) + 1
  done;
  for r = 0 to n - 1 do
    if not changed.(r) then row_ptr.(r + 1) <- old.row_ptr.(r + 1) - old.row_ptr.(r)
  done;
  for r = 1 to n do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  let m = graph.Hetgraph.num_edges in
  let col = Array.make m 0 and eid = Array.make m 0 in
  let cursor = Array.copy row_ptr in
  (* dirty rows: regather from the new graph in ascending eid order *)
  for e = 0 to m - 1 do
    let r = graph.Hetgraph.dst.(e) in
    if changed.(r) then begin
      let pos = cursor.(r) in
      col.(pos) <- graph.Hetgraph.src.(e);
      eid.(pos) <- e;
      cursor.(r) <- pos + 1
    end
  done;
  (* untouched rows: copy the old entries, renumbering eids *)
  let rows_patched = ref 0 in
  for r = 0 to n - 1 do
    if changed.(r) then incr rows_patched
    else begin
      let base = row_ptr.(r) and obase = old.row_ptr.(r) in
      for k = 0 to old.row_ptr.(r + 1) - obase - 1 do
        col.(base + k) <- old.col.(obase + k);
        eid.(base + k) <- edge_map.(old.eid.(obase + k))
      done
    end
  done;
  ({ row_ptr; col; eid }, !rows_patched)

let degree t r = t.row_ptr.(r + 1) - t.row_ptr.(r)

let owner_of_index t k =
  if k < 0 || k >= Array.length t.col then invalid_arg "Csr.owner_of_index: out of range";
  (* last row r with row_ptr.(r) <= k *)
  let lo = ref 0 and hi = ref (Array.length t.row_ptr - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.row_ptr.(mid) <= k then lo := mid else hi := mid
  done;
  !lo
