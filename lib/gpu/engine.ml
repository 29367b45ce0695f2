module Obs = Hector_obs

type event = {
  name : string;
  category : Kernel.category;
  start_ms : float;
  duration_ms : float;
  prov : Kernel.provenance option;
  chan : int option;  (* async transfer channel, None = the compute stream *)
}

type t = {
  device : Device.t;
  scale : float;
  memory : Memory.t;
  stats : Stats.t;
  trace : bool;
  obs : Obs.t;
  mutable events : event list;  (* newest first *)
  mutable clock_ms : float;
  mutable chan_until : float array;  (* per-channel busy-until, grown on demand *)
  mutable posted_comm_ms : float;  (* total posted async transfer time *)
}

let create ?(device = Device.rtx3090) ?(scale = 1.0) ?(trace = false) ?(obs = Obs.disabled) () =
  if scale < 1.0 then invalid_arg "Engine.create: scale must be >= 1";
  {
    device;
    scale;
    memory =
      Memory.create
        ~capacity_bytes:(device.Device.global_mem_bytes -. device.Device.reserved_bytes)
        ~scale;
    stats = Stats.create ();
    trace;
    obs;
    events = [];
    clock_ms = 0.0;
    chan_until = [||];
    posted_comm_ms = 0.0;
  }

let device t = t.device
let memory t = t.memory
let stats t = t.stats
let obs t = t.obs
let elapsed_ms t = t.clock_ms

let reset_clock t =
  t.clock_ms <- 0.0;
  t.events <- [];
  t.chan_until <- [||];
  t.posted_comm_ms <- 0.0;
  Stats.reset t.stats

let events t = List.rev t.events

module Json = Hector_json

let kernel_event e =
  let args =
    match e.prov with
    | None -> []
    | Some p ->
        let fused =
          match p.Kernel.fused with
          | [] -> []
          | ops -> [ ("fused", Json.Arr (List.map (fun o -> Json.Str o) ops)) ]
        in
        let prov =
          Json.
            [ ("op", Str p.Kernel.op); ("step", int p.Kernel.step); ("origin", Str p.Kernel.origin) ]
        in
        [ ("args", Json.Obj (prov @ fused)) ]
  in
  (* compute launches render on tid 1; async transfers on tid 2+channel, so
     Perfetto shows overlapped Comm spans on their own rows *)
  let tid = match e.chan with None -> 1 | Some c -> 2 + c in
  Json.(
    Obj
      ([
         ("name", Str e.name);
         ("cat", Str (Kernel.category_name e.category));
         ("ph", Str "X");
         ("ts", Num (e.start_ms *. 1e3));
         ("dur", Num (e.duration_ms *. 1e3));
         ("pid", int 1);
         ("tid", int tid);
       ]
      @ args))

let to_chrome_trace ?obs t =
  (* Wall-clock observability spans ride along on a second pid so Perfetto
     shows simulated kernels and compiler/runtime phases as separate tracks. *)
  let spans = match obs with Some o when Obs.enabled o -> Obs.trace_json o ~pid:2 | _ -> [] in
  Json.to_string (Obj [ ("traceEvents", Arr (List.map kernel_event (events t) @ spans)) ])

let entries_json entries : Json.t =
  let entry (e : Stats.entry) =
    Json.(Obj [ ("time_ms", Num e.Stats.time_ms); ("launches", int e.Stats.launches) ])
  in
  Obj (List.map (fun (name, e) -> (name, entry e)) entries)

let by_category_json t =
  entries_json
    (List.map (fun (c, e) -> (Kernel.category_name c, e)) (Stats.by_category t.stats))

let by_op_json t = entries_json (Stats.by_op t.stats)

let occupancy (d : Device.t) ~blocks ~threads_per_block =
  let resident = float_of_int blocks *. float_of_int threads_per_block in
  let capacity = float_of_int d.Device.sm_count *. float_of_int d.Device.max_threads_per_sm in
  Float.max 0.015 (Float.min 1.0 (resident /. capacity))

let cost_ms (d : Device.t) (k : Kernel.t) =
  let u = occupancy d ~blocks:k.Kernel.grid_blocks ~threads_per_block:k.Kernel.threads_per_block in
  let compute_s = k.Kernel.flops /. (d.Device.peak_gflops *. 1e9 *. u) in
  (* Bandwidth saturates well below full occupancy: half the SMs streaming
     already reach peak DRAM throughput. *)
  let bw_util = Float.min 1.0 (u /. 0.25) in
  let bw = d.Device.mem_bandwidth_gbs *. 1e9 *. Float.max 0.05 bw_util in
  let mem_s =
    (k.Kernel.bytes_coalesced /. bw)
    +. (k.Kernel.bytes_gathered /. (bw *. d.Device.gather_efficiency))
    +. (k.Kernel.bytes_atomic /. (d.Device.atomic_bandwidth_gbs *. 1e9 *. Float.max 0.05 bw_util))
  in
  let overhead_s = d.Device.launch_overhead_us *. 1e-6 in
  (overhead_s +. Float.max compute_s mem_s) *. 1e3

let scale_kernel ~scale (k : Kernel.t) =
  if (not k.Kernel.graph_proportional) || scale = 1.0 then k
  else
    let s = scale in
    {
      k with
      Kernel.grid_blocks =
        max 1 (int_of_float (Float.round (float_of_int k.Kernel.grid_blocks *. s)));
      flops = k.Kernel.flops *. s;
      bytes_coalesced = k.Kernel.bytes_coalesced *. s;
      bytes_gathered = k.Kernel.bytes_gathered *. s;
      bytes_atomic = k.Kernel.bytes_atomic *. s;
    }

let scaled_kernel t (k : Kernel.t) = scale_kernel ~scale:t.scale k

let predict_ms ?(scale = 1.0) device k = cost_ms device (scale_kernel ~scale k)

let record_timed t k' time =
  if t.trace then
    t.events <-
      {
        name = k'.Kernel.name;
        category = k'.Kernel.category;
        start_ms = t.clock_ms;
        duration_ms = time;
        prov = k'.Kernel.prov;
        chan = None;
      }
      :: t.events;
  t.clock_ms <- t.clock_ms +. time;
  Stats.record t.stats k' ~time_ms:time ~flops:k'.Kernel.flops ~bytes:(Kernel.total_bytes k')

(* --- asynchronous transfer channels --------------------------------

   A channel is a DMA/copy-engine lane with its own busy-until time.  A
   posted transfer starts when both its payload is ready and the channel is
   free, occupies the channel for [ms], and does NOT advance the engine
   clock: the launch (and its work quantities) is recorded immediately with
   zero time, and the time a consumer actually stalls is charged by
   [wait_until] as Comm-category wait on the transfer's op.  Transfers on
   distinct channels — or on a channel whose work sits behind the compute
   clock — therefore overlap with compute instead of serializing, while
   [Stats.attributed_ms] keeps covering the whole clock. *)

let ensure_chan t chan =
  if chan < 0 then invalid_arg "Engine.post: negative channel";
  if chan >= Array.length t.chan_until then begin
    let grown = Array.make (chan + 1) 0.0 in
    Array.blit t.chan_until 0 grown 0 (Array.length t.chan_until);
    t.chan_until <- grown
  end

let post t ~chan ?ready ~ms (k : Kernel.t) =
  if ms < 0.0 then invalid_arg "Engine.post: negative duration";
  ensure_chan t chan;
  let ready = match ready with Some r -> r | None -> t.clock_ms in
  let start = Float.max ready t.chan_until.(chan) in
  t.chan_until.(chan) <- start +. ms;
  t.posted_comm_ms <- t.posted_comm_ms +. ms;
  if t.trace then
    t.events <-
      {
        name = k.Kernel.name;
        category = k.Kernel.category;
        start_ms = start;
        duration_ms = ms;
        prov = k.Kernel.prov;
        chan = Some chan;
      }
      :: t.events;
  Obs.add t.obs "engine.comm_posts" 1;
  Stats.record t.stats k ~time_ms:0.0 ~flops:k.Kernel.flops ~bytes:(Kernel.total_bytes k);
  start +. ms

let wait_until t ~op until =
  let gap = until -. t.clock_ms in
  if gap > 0.0 then begin
    t.clock_ms <- t.clock_ms +. gap;
    Obs.add t.obs "engine.comm_waits" 1;
    Stats.record_wait t.stats ~category:Kernel.Comm ~op ~time_ms:gap
  end

let posted_comm_ms t = t.posted_comm_ms

let launch t k =
  let k' = scaled_kernel t k in
  let time = cost_ms t.device k' in
  Obs.add t.obs "engine.launches" 1;
  record_timed t k' time

let host_sync t ?(us = 5.0) () =
  let time_ms = us *. 1e-3 in
  t.clock_ms <- t.clock_ms +. time_ms;
  Obs.add t.obs "engine.host_syncs" 1;
  Stats.record_sync t.stats ~time_ms

let alloc_tensor t ?(graph_proportional = true) ~label ~rows ~cols () =
  Memory.alloc t.memory ~graph_proportional ~label (float_of_int rows *. float_of_int cols *. 4.0)
