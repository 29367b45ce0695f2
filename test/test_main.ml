(* Entry point of the test suite.  Each substrate and compiler stage
   registers its cases under its own section. *)

let () =
  Alcotest.run "hector"
    [
      ("tensor", Test_tensor.suite);
      ("parallel", Test_parallel.suite);
      ("graph", Test_graph.suite);
      ("gpu", Test_gpu.suite);
      ("core", Test_core.suite);
      ("buffer_plan", Test_buffer_plan.suite);
      ("fusion", Test_fusion.suite);
      ("runtime", Test_runtime.suite);
      ("staged", Test_staged.suite);
      ("baselines", Test_baselines.suite);
      ("models", Test_models.suite);
      ("experiments", Test_experiments.suite);
      ("autotune", Test_autotune.suite);
      ("sampler", Test_sampler.suite);
      ("serve", Test_serve.suite);
      ("frontend", Test_frontend.suite);
      ("obs", Test_obs.suite);
      ("dist", Test_dist.suite);
      ("stream", Test_stream.suite);
      ("ckpt", Test_ckpt.suite);
      ("json", Test_json.suite);
    ]
