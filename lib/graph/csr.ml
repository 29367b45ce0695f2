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
   ascending-eid order within a row survives).  One pass over the map
   finds the dirty rows — removed old edges dirty their old destination,
   and the new ids the monotone map skips are the added edges, which dirty
   theirs — and one pass over the rows writes the result: a dirty row is
   its surviving entries merged with its added edges by eid.  Returns the
   patched CSR and the number of rows regathered. *)
let patch_incoming old ~(old_graph : Hetgraph.t) ~(graph : Hetgraph.t) ~edge_map =
  let n = graph.Hetgraph.num_nodes and m = graph.Hetgraph.num_edges in
  if old_graph.Hetgraph.num_nodes <> n then
    invalid_arg "Csr.patch_incoming: node set changed (rebuild instead)";
  if Array.length edge_map <> old_graph.Hetgraph.num_edges then
    invalid_arg "Csr.patch_incoming: edge_map length mismatch";
  let dirty = Bytes.make n '\000' in
  let added = ref [] and next = ref 0 in
  let add_below k =
    for e = !next to k - 1 do
      added := e :: !added;
      Bytes.set dirty graph.Hetgraph.dst.(e) '\001'
    done
  in
  for e = 0 to Array.length edge_map - 1 do
    let mapped = edge_map.(e) in
    if mapped < 0 then Bytes.set dirty old_graph.Hetgraph.dst.(e) '\001'
    else begin
      if mapped < !next || mapped >= m then
        invalid_arg "Csr.patch_incoming: edge_map must be monotone and in range";
      if mapped > !next then add_below mapped;
      next := mapped + 1
    end
  done;
  add_below m;
  (* the added edges by destination row, ascending eid within a row *)
  let added = Array.of_list !added in
  Array.sort
    (fun a b ->
      let c = Int.compare graph.Hetgraph.dst.(a) graph.Hetgraph.dst.(b) in
      if c <> 0 then c else Int.compare a b)
    added;
  let row_ptr = Array.make (n + 1) 0 in
  let col = Array.make m 0 and eid = Array.make m 0 in
  let p = ref 0 and k = ref 0 and rows_patched = ref 0 in
  let emit e =
    col.(!p) <- graph.Hetgraph.src.(e);
    eid.(!p) <- e;
    incr p
  in
  let r = ref 0 in
  while !r < n do
    if Bytes.get dirty !r = '\000' then begin
      (* a span of clean rows moves as one block, shifted by [p - lo] *)
      let r0 = !r in
      while !r < n && Bytes.get dirty !r = '\000' do
        incr r
      done;
      let lo = old.row_ptr.(r0) and hi = old.row_ptr.(!r) in
      let shift = !p - lo in
      for j = lo to hi - 1 do
        col.(j + shift) <- old.col.(j);
        eid.(j + shift) <- edge_map.(old.eid.(j))
      done;
      for q = r0 + 1 to !r do
        row_ptr.(q) <- old.row_ptr.(q) + shift
      done;
      p := hi + shift
    end
    else begin
      (* a dirty row: its survivors merged with its added edges by eid *)
      let row = !r in
      incr rows_patched;
      let j = ref old.row_ptr.(row) and hi = old.row_ptr.(row + 1) in
      let next_added () =
        if !k < Array.length added && graph.Hetgraph.dst.(added.(!k)) = row then added.(!k)
        else max_int
      in
      while !j < hi || next_added () < max_int do
        let s = if !j < hi then edge_map.(old.eid.(!j)) else max_int in
        if s < 0 then incr j
        else begin
          let a = next_added () in
          if s < a then begin
            emit s;
            incr j
          end
          else begin
            emit a;
            incr k
          end
        end
      done;
      incr r;
      row_ptr.(!r) <- !p
    end
  done;
  if !p <> m then invalid_arg "Csr.patch_incoming: edge_map inconsistent with graph";
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
