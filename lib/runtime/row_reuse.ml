module Tensor = Hector_tensor.Tensor

(* The rows of one (weight, slicing): slot [s] holds key [keys.(s)]
   (slice * nodes + node) and its row at [pool.(s * width ..)], computed
   at clock [made.(s)] (-1 while never computed).  [index] maps a hash
   position to a slot (-1 empty), linear probing, at most half full. *)
type table = {
  weight : string;
  edge : bool;
  width : int;
  off : int array;  (* per-step miss segment offsets, one per slice + 1 *)
  mutable index : int array;
  mutable keys : int array;
  mutable made : int array;
  mutable pool : float array;
  mutable used : int;
}

(* [stamp.(u)] is the clock of the last write to node [u]'s features and
   [all_stamp] that of the last whole-matrix write: a row is live iff it
   was made at or after both.  The int scratch arrays and [scratch] (the
   miss rows of one step) are kept at their high-water size. *)
type t = {
  nodes : int;
  params : string list;
  stamp : int array;
  mutable clock : int;
  mutable all_stamp : int;
  mutable tables : table list;
  obs : Hector_obs.t;
  mutable slot_of : int array;
  mutable miss_slot : int array;
  mutable miss_row : int array;
  mutable scratch : Tensor.t;
}

let create ?(obs = Hector_obs.disabled) ~nodes ~params () =
  {
    nodes;
    params;
    stamp = Array.make nodes 0;
    clock = 0;
    all_stamp = 0;
    tables = [];
    obs;
    slot_of = [||];
    miss_slot = [||];
    miss_row = [||];
    scratch = Tensor.create_uninit [| 0 |];
  }

let bump t rows =
  t.clock <- t.clock + 1;
  Array.iter (fun u -> t.stamp.(u) <- t.clock) rows

let invalidate t =
  t.clock <- t.clock + 1;
  t.all_stamp <- t.clock

type block = { table : t; feature : string; parent : int array }

let caches b ~weight = List.mem weight b.table.params

let initial_rows = 64

let new_table ~weight ~edge ~width ~slices =
  {
    weight;
    edge;
    width;
    off = Array.make (slices + 1) 0;
    index = Array.make (2 * initial_rows) (-1);
    keys = Array.make initial_rows 0;
    made = Array.make initial_rows (-1);
    pool = Array.make (initial_rows * width) 0.0;
    used = 0;
  }

let hash key mask = ((key * 0x2545F4914F6CDD1D) lsr 17) land mask

(* The slot holding [key], or [-(h + 1)] for the empty position [h] where
   it belongs (top-level recursion: a local closure would allocate on
   every lookup). *)
let rec probe_from index keys key mask h =
  let s = index.(h) in
  if s < 0 then -(h + 1)
  else if keys.(s) = key then s
  else probe_from index keys key mask ((h + 1) land mask)

let probe index keys key =
  let mask = Array.length index - 1 in
  probe_from index keys key mask (hash key mask)

(* Slot capacity grows by half, the index doubles once half full. *)
let grow tb =
  let cap = Array.length tb.keys in
  let cap' = cap + (cap / 2) in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  tb.keys <- extend tb.keys 0;
  tb.made <- extend tb.made (-1);
  let pool = Array.make (cap' * tb.width) 0.0 in
  Array.blit tb.pool 0 pool 0 (cap * tb.width);
  tb.pool <- pool

let rehash tb =
  let index = Array.make (2 * Array.length tb.index) (-1) in
  for s = 0 to tb.used - 1 do
    index.(-(probe index tb.keys tb.keys.(s)) - 1) <- s
  done;
  tb.index <- index

let find_or_add tb key =
  let r = probe tb.index tb.keys key in
  if r >= 0 then r
  else begin
    let s = tb.used in
    if s = Array.length tb.keys then grow tb;
    tb.index.(-r - 1) <- s;
    tb.keys.(s) <- key;
    tb.made.(s) <- -1;
    tb.used <- s + 1;
    if 2 * tb.used > Array.length tb.index then rehash tb;
    s
  end

let table t ~weight ~edge ~width ~slices =
  match List.find_opt (fun tb -> tb.edge = edge && String.equal tb.weight weight) t.tables with
  | Some tb ->
      if tb.width <> width || Array.length tb.off <> slices + 1 then
        invalid_arg (Printf.sprintf "Row_reuse.project: %s changed shape" weight);
      tb
  | None ->
      let tb = new_table ~weight ~edge ~width ~slices in
      t.tables <- tb :: t.tables;
      tb

let reserve t m =
  if Array.length t.slot_of < m then begin
    t.slot_of <- Array.make m 0;
    t.miss_slot <- Array.make m 0;
    t.miss_row <- Array.make m 0
  end

(* Look every representative row up (a miss claims its slot at the
   current clock, so a later row of the same key in this step reuses
   it), compute the misses in one segmented call, store them, then copy
   each output row out of its slot. *)
let project b ~weight ~edge ~offsets ~idx ~rep x w out =
  let t = b.table in
  let slices = Array.length offsets - 1 in
  let m = offsets.(slices) and n = Tensor.cols out in
  if Tensor.rows out <> m then
    invalid_arg (Printf.sprintf "Row_reuse.project: %d output rows for %d" (Tensor.rows out) m);
  let tb = table t ~weight ~edge ~width:n ~slices in
  reserve t m;
  let gathered = Array.length idx > 0 and dedup = Array.length rep > 0 in
  let misses = ref 0 and hits = ref 0 in
  for s = 0 to slices - 1 do
    tb.off.(s) <- !misses;
    for i = offsets.(s) to offsets.(s + 1) - 1 do
      if (not dedup) || rep.(i) = i then begin
        let r = if gathered then idx.(i) else i in
        let u = b.parent.(r) in
        let slot = find_or_add tb ((s * t.nodes) + u) in
        let made = tb.made.(slot) in
        if made >= 0 && made >= t.stamp.(u) && made >= t.all_stamp then incr hits
        else begin
          tb.made.(slot) <- t.clock;
          t.miss_slot.(!misses) <- slot;
          t.miss_row.(!misses) <- r;
          incr misses
        end;
        t.slot_of.(i) <- slot
      end
    done
  done;
  let k = !misses in
  tb.off.(slices) <- k;
  if k > 0 then begin
    if Tensor.numel t.scratch < k * n then t.scratch <- Tensor.create_uninit [| k * n |];
    let c = Tensor.view t.scratch [| k; n |] in
    Tensor.segment_gather_into ~offsets:tb.off x ~idx:(Array.sub t.miss_row 0 k) w c;
    let cdata, c0 = Tensor.storage c in
    for j = 0 to k - 1 do
      Array.blit cdata (c0 + (j * n)) tb.pool (t.miss_slot.(j) * n) n
    done
  end;
  let data, o = Tensor.storage out in
  for i = 0 to m - 1 do
    let slot = t.slot_of.(if dedup then rep.(i) else i) in
    Array.blit tb.pool (slot * n) data (o + (i * n)) n
  done;
  if Hector_obs.enabled t.obs then begin
    Hector_obs.add t.obs "serve.row_hits" !hits;
    Hector_obs.add t.obs "serve.row_misses" k
  end
