(* Persistent domain pool: N-1 sleeping workers plus the calling domain
   cooperatively claim fixed-size index chunks off a shared atomic cursor.
   See the .mli for the contract. *)

let max_domains = 64

let default_grain = 1024

(* ------------------------------------------------------------------ *)
(* sizing                                                              *)
(* ------------------------------------------------------------------ *)

let override : int option ref = ref None

let parse_domains = function
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (min n max_domains)
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Domain_pool: HECTOR_DOMAINS=%S is malformed (expected a positive integer)" s))

(* The one environment variable the repository reads, once, at the first
   sizing decision.  A ref rather than [Lazy]: worker domains size nested
   regions too, forcing a lazy from two domains at once raises, and racing
   writers here store the same value. *)
let env_domains : int option option ref = ref None

let read_env_domains () =
  match !env_domains with
  | Some d -> d
  | None ->
      let d = parse_domains (Sys.getenv_opt "HECTOR_DOMAINS") in
      env_domains := Some d;
      d

let num_domains () =
  match !override with
  | Some n -> max 1 (min n max_domains)
  | None -> (
      match read_env_domains () with
      | Some n -> n
      | None -> max 1 (min max_domains (Domain.recommended_domain_count ())))

let set_num_domains n = override := n

let sequential () = num_domains () = 1

(* ------------------------------------------------------------------ *)
(* pool machinery                                                      *)
(* ------------------------------------------------------------------ *)

type job = {
  run : int -> unit;  (* run chunk [c]; must not raise *)
  chunks : int;
  next : int Atomic.t;  (* next unclaimed chunk *)
  completed : int Atomic.t;
}

type pool = {
  size : int;  (* total domains, including the caller *)
  mutex : Mutex.t;
  work_cv : Condition.t;  (* a new job was published *)
  done_cv : Condition.t;  (* some job finished its last chunk *)
  mutable job : job option;
  mutable epoch : int;  (* bumped per published job *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

(* Chunk-claiming loop shared by workers and the caller. *)
let drain pool j =
  let rec claim () =
    let c = Atomic.fetch_and_add j.next 1 in
    if c < j.chunks then begin
      j.run c;
      if 1 + Atomic.fetch_and_add j.completed 1 = j.chunks then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.mutex
      end;
      claim ()
    end
  in
  claim ()

(* Depth counter so a parallel kernel invoked from inside a chunk body (on
   any domain) runs sequentially instead of re-entering the pool. *)
let depth_key = Domain.DLS.new_key (fun () -> 0)

let worker pool =
  let rec loop last_epoch =
    Mutex.lock pool.mutex;
    while pool.epoch = last_epoch && not pool.shutdown do
      Condition.wait pool.work_cv pool.mutex
    done;
    let epoch = pool.epoch and job = pool.job and stop = pool.shutdown in
    Mutex.unlock pool.mutex;
    if not stop then begin
      (match job with Some j -> drain pool j | None -> ());
      loop epoch
    end
  in
  Domain.DLS.set depth_key 1;
  loop 0

let pool_ref : pool option ref = ref None

let shutdown_pool () =
  match !pool_ref with
  | None -> ()
  | Some p ->
      Mutex.lock p.mutex;
      p.shutdown <- true;
      Condition.broadcast p.work_cv;
      Mutex.unlock p.mutex;
      List.iter Domain.join p.workers;
      pool_ref := None

let exit_hook_installed = ref false

let get_pool size =
  (match !pool_ref with
  | Some p when p.size = size -> ()
  | Some _ -> shutdown_pool ()
  | None -> ());
  match !pool_ref with
  | Some p -> p
  | None ->
      let p =
        {
          size;
          mutex = Mutex.create ();
          work_cv = Condition.create ();
          done_cv = Condition.create ();
          job = None;
          epoch = 0;
          shutdown = false;
          workers = [];
        }
      in
      p.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker p));
      pool_ref := Some p;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit shutdown_pool
      end;
      p

(* Publish a job, participate in it, wait for the stragglers, propagate
   the first chunk exception. *)
let run_job pool ~chunks run =
  let failed = Atomic.make None in
  let guarded c =
    if Atomic.get failed = None then
      try run c
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failed None (Some (e, bt)))
  in
  let j = { run = guarded; chunks; next = Atomic.make 0; completed = Atomic.make 0 } in
  Mutex.lock pool.mutex;
  pool.job <- Some j;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.mutex;
  let d = Domain.DLS.get depth_key in
  Domain.DLS.set depth_key (d + 1);
  drain pool j;
  Domain.DLS.set depth_key d;
  Mutex.lock pool.mutex;
  while Atomic.get j.completed < j.chunks do
    Condition.wait pool.done_cv pool.mutex
  done;
  Mutex.unlock pool.mutex;
  match Atomic.get failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Chunks are at least [grain] wide; their count is bounded so per-chunk
   bookkeeping stays negligible. *)
let chunking ~grain n =
  let grain = max 1 grain in
  let chunk = max grain ((n + (4 * max_domains) - 1) / (4 * max_domains)) in
  (chunk, (n + chunk - 1) / chunk)

let parallel_for ?(grain = default_grain) n body =
  if n > 0 then begin
    let size = num_domains () in
    let chunk, chunks = chunking ~grain n in
    if size = 1 || chunks = 1 || Domain.DLS.get depth_key > 0 then body 0 n
    else
      run_job (get_pool size) ~chunks (fun c ->
          let lo = c * chunk in
          body lo (min n (lo + chunk)))
  end
