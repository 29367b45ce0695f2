type allocation = { size : float; mutable freed : bool; label : string }

type t = {
  capacity : float;
  scale : float;
  mutable used : float;
  mutable peak : float;
  mutable alloc_count : int;
}

exception Out_of_memory of { requested_gb : float; used_gb : float; capacity_gb : float }

let create ~capacity_bytes ~scale =
  if capacity_bytes <= 0.0 then invalid_arg "Memory.create: capacity must be positive";
  if scale < 1.0 then invalid_arg "Memory.create: scale must be >= 1";
  { capacity = capacity_bytes; scale; used = 0.0; peak = 0.0; alloc_count = 0 }

let alloc t ?(graph_proportional = true) ~label bytes =
  if bytes < 0.0 then invalid_arg "Memory.alloc: negative size";
  t.alloc_count <- t.alloc_count + 1;
  let logical = if graph_proportional then bytes *. t.scale else bytes in
  if t.used +. logical > t.capacity then
    raise
      (Out_of_memory
         {
           requested_gb = logical /. 1e9;
           used_gb = t.used /. 1e9;
           capacity_gb = t.capacity /. 1e9;
         });
  t.used <- t.used +. logical;
  if t.used > t.peak then t.peak <- t.used;
  { size = logical; freed = false; label }

let free t a =
  if not a.freed then begin
    a.freed <- true;
    t.used <- Float.max 0.0 (t.used -. a.size)
  end

let used_bytes t = t.used
let peak_bytes t = t.peak
let alloc_count t = t.alloc_count
