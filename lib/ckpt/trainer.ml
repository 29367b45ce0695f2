module Tensor = Hector_tensor.Tensor
module Session = Hector_runtime.Session

type result = {
  session : Session.t;
  start_step : int;
  losses : float array;
  checkpoints : string list;
}

let snapshot ?(model = "") ?(epoch = 0) ?(graph_version = 0) ~step session =
  Checkpoint.create ~model ~step ~rng:(Session.rng_state session) ~epoch ~graph_version
    (Session.weights session)

let restore session ckpt = Session.set_weights session (Checkpoint.tensors ckpt)

(* One training segment: steps [from_step + 1 .. steps].  With a [dir],
   checkpoint at multiples of [every] and at the final step so a resume
   point always exists.  The losses array covers only the executed steps. *)
let run ?dir ?keep ?(every = 0) ?(lr = 0.01) ?(model = "") ~labels ~from_step ~steps session =
  let n = max 0 (steps - from_step) in
  let losses = Array.make n 0.0 in
  let saved = ref [] in
  for i = 0 to n - 1 do
    let step = from_step + i + 1 in
    losses.(i) <- Session.train_step session ~lr ~labels ();
    match dir with
    | Some dir when step = steps || (every > 0 && step mod every = 0) ->
        saved := Checkpoint.save ~dir ?keep (snapshot ~model ~step session) :: !saved
    | _ -> ()
  done;
  { session; start_step = from_step; losses; checkpoints = List.rev !saved }

let fit ?(config = Session.Config.default) ?dir ?keep ?every ?lr ?model ~graph ~labels ~steps
    compiled =
  let session = Session.create ~config ~graph compiled in
  run ?dir ?keep ?every ?lr ?model ~labels ~from_step:0 ~steps session

(* Resume = recreate the session from the {e same} seed (regenerating the
   identical inputs the original run drew), then overwrite the parameters
   with the checkpoint's.  Because restoration is value-level
   ({!Session.set_weights}), the continued trajectory is the one the
   uninterrupted run would have produced. *)
let resume ?(config = Session.Config.default) ~dir ?keep ?every ?lr ?model ~graph ~labels
    ~steps compiled =
  match Checkpoint.latest ~dir with
  | None -> fit ~config ~dir ?keep ?every ?lr ?model ~graph ~labels ~steps compiled
  | Some path ->
      let ckpt = Checkpoint.load path in
      let session = Session.create ~config ~graph compiled in
      restore session ckpt;
      run ~dir ?keep ?every ?lr ?model ~labels ~from_step:(Checkpoint.step ckpt) ~steps
        session
