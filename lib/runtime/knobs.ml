module Domain_pool = Hector_tensor.Domain_pool

type t = {
  domains : int option;
  obs : bool;
  fuse_ops : bool;
  serve_batch : int option;
  serve_queue : int option;
  dist_parts : int option;
  dist_latency_us : float option;
  dist_bandwidth_gbs : float option;
  dist_channels : int option;
  dist_bucket_kb : int option;
  tune_db : string option;
  stream_slack : float option;
  stream_compact : float option;
  ckpt_dir : string option;
  ckpt_keep : int option;
  fault_seed : int option;
  fault_rate : float option;
}

let defaults =
  {
    domains = None;
    obs = false;
    fuse_ops = true;
    serve_batch = None;
    serve_queue = None;
    dist_parts = None;
    dist_latency_us = None;
    dist_bandwidth_gbs = None;
    dist_channels = None;
    dist_bucket_kb = None;
    tune_db = None;
    stream_slack = None;
    stream_compact = None;
    ckpt_dir = None;
    ckpt_keep = None;
    fault_seed = None;
    fault_rate = None;
  }

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let falsy s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "false" | "no" | "off" -> true
  | _ -> false

(* A malformed value is a configuration error: surface it loudly with the
   variable name, the offending value and what would have been accepted,
   instead of silently falling back to a default the operator did not ask
   for. *)
let malformed name value expected =
  invalid_arg
    (Printf.sprintf "Knobs: %s=%S is malformed (expected %s)" name value expected)

let parse getenv =
  (* a set-but-blank variable reads as unset everywhere, matching shell
     idiom (VAR= ./prog) *)
  let getenv name =
    match getenv name with
    | Some s when String.trim s = "" -> None
    | v -> v
  in
  let flag name ~default =
    match getenv name with
    | None -> default
    | Some s ->
        if truthy s then true
        else if falsy s then false
        else malformed name s "a boolean (1/0, true/false, yes/no, on/off)"
  in
  let fuse_ops = flag "HECTOR_FUSE_OPS" ~default:true in
  let obs = flag "HECTOR_OBS" ~default:false in
  let int_where name pred expected =
    match getenv name with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when pred n -> Some n
        | _ -> malformed name s expected)
  in
  let positive name = int_where name (fun n -> n >= 1) "a positive integer" in
  let float_where name pred expected =
    match getenv name with
    | None -> None
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some f when Float.is_finite f && pred f -> Some f
        | _ -> malformed name s expected)
  in
  let positive_float name = float_where name (fun f -> f > 0.0) "a positive number" in
  let path name = Option.map String.trim (getenv name) in
  let domains =
    Option.map (fun n -> min n Domain_pool.max_domains) (positive "HECTOR_DOMAINS")
  in
  let serve_batch = positive "HECTOR_SERVE_BATCH" in
  let serve_queue = positive "HECTOR_SERVE_QUEUE" in
  let dist_parts = positive "HECTOR_DIST_PARTS" in
  let tune_db = path "HECTOR_TUNE_DB" in
  let dist_latency_us = positive_float "HECTOR_DIST_LATENCY_US" in
  let dist_bandwidth_gbs = positive_float "HECTOR_DIST_BW_GBS" in
  let dist_channels = positive "HECTOR_DIST_CHANNELS" in
  let dist_bucket_kb = positive "HECTOR_DIST_BUCKET_KB" in
  (* slack may be 0 (every growth step re-warms) but not negative *)
  let stream_slack =
    float_where "HECTOR_STREAM_SLACK" (fun f -> f >= 0.0) "a non-negative number"
  in
  let stream_compact =
    float_where "HECTOR_STREAM_COMPACT"
      (fun f -> f > 0.0 && f <= 1.0)
      "a fraction in (0, 1]"
  in
  let ckpt_dir = path "HECTOR_CKPT_DIR" in
  let ckpt_keep = positive "HECTOR_CKPT_KEEP" in
  let fault_seed = int_where "HECTOR_FAULT_SEED" (fun _ -> true) "an integer" in
  let fault_rate =
    float_where "HECTOR_FAULT_RATE"
      (fun f -> f >= 0.0 && f <= 1.0)
      "a probability in [0, 1]"
  in
  {
    domains;
    obs;
    fuse_ops;
    serve_batch;
    serve_queue;
    dist_parts;
    dist_latency_us;
    dist_bandwidth_gbs;
    dist_channels;
    dist_bucket_kb;
    tune_db;
    stream_slack;
    stream_compact;
    ckpt_dir;
    ckpt_keep;
    fault_seed;
    fault_rate;
  }

let cache : t option ref = ref None

let refresh () =
  let k = parse Sys.getenv_opt in
  cache := Some k;
  k

let current () = match !cache with Some k -> k | None -> refresh ()

(* Domain-pool sizing flows through the same snapshot: registered at module
   initialization, which happens whenever Session is linked (it reads
   this module's [obs] knob). *)
let () = Domain_pool.set_default_sizing (fun () -> (current ()).domains)

(* Likewise for inter-op fusion: the compiler consults this thunk whenever
   [Compiler.options.fuse_ops] is [None], so HECTOR_FUSE_OPS=0 reproduces
   the pre-fusion pipeline without touching call sites. *)
let () = Hector_core.Compiler.set_fuse_ops_default (fun () -> (current ()).fuse_ops)
