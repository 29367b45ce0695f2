(** Fault-tolerant data-parallel training: checkpoint cadence, crash
    detection, replica recovery.

    Wraps {!Replica.train_step} in a driver that (1) saves
    {!Hector_ckpt.Checkpoint}s on a cadence (plus an initial step-0 restore
    point), and (2) executes the crash protocol when the attached
    {!Hector_ckpt.Fault} plan schedules one: the dead replica's peers
    detect it by wait-timeout (charged to their simulated clocks as host
    sync), the survivors reload the latest checkpoint, the graph is
    re-partitioned over the surviving replica count (the same
    {!Hector_graph.Partition} entry point streaming uses) and training
    continues from the checkpoint step.

    Because replicated training is {e exact} at any partition count and
    every step is deterministic, the recovered run replays the lost steps
    onto the same loss trajectory (≤ 1e-6) an uninterrupted run produces —
    the invariant the recovery tests and the [--fault] benchmark pin.
    Every protocol action is recorded into the fault plan's event trace
    ([Crashed] → [Detected] → [Restored]), so recovery is witnessed, never
    silent. *)

module Tensor = Hector_tensor.Tensor

type result = {
  cluster : Replica.t;  (** the final cluster (rebuilt when a crash fired) *)
  losses : float array;  (** global loss per step, [1 .. steps] *)
  events : Hector_ckpt.Fault.event list;  (** the witnessed fault trace *)
  recovery_ms : float;
      (** simulated detection + reload time charged to the recovered
          cluster's clocks (0 when no crash fired) *)
  checkpoints : string list;  (** checkpoint paths saved, oldest first *)
}

val train :
  ?config:Replica.Config.t ->
  ?faults:Hector_ckpt.Fault.t ->
  ?dir:string ->
  ?keep:int ->
  ?every:int ->
  ?lr:float ->
  features:Tensor.t ->
  graph:Hector_graph.Hetgraph.t ->
  labels:int array ->
  steps:int ->
  Hector_core.Compiler.compiled ->
  result
(** Train for [steps] steps with checkpointing into [dir] every [every]
    steps ([keep] as in {!Hector_ckpt.Checkpoint.save}; [every = 0] saves
    only the initial restore point, and only when a crash is scheduled;
    without [dir] nothing is saved).
    A crash scheduled by [faults] at step [s] (replica index must be
    within the cluster) triggers detection, reload and re-partition as
    described above; raises [Invalid_argument] if it fires with no
    checkpoint to restore from.  A silent peer is declared dead after a
    5 ms wait-timeout.  Without
    [faults] (or when the scheduled replica does not exist) this is plain
    checkpointed training. *)
