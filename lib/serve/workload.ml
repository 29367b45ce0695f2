module Rng = Hector_tensor.Rng

type request = { id : int; arrival_ms : float; seeds : int array }

type spec = {
  seed : int;
  rate_rps : float;
  requests : int;
  seeds_per_request : int;
}

let default_spec = { seed = 42; rate_rps = 200.0; requests = 64; seeds_per_request = 4 }

let generate ?(spec = default_spec) ~num_nodes () =
  if spec.requests < 0 then invalid_arg "Workload.generate: negative request count";
  if not (spec.rate_rps > 0.0) then
    invalid_arg
      (Printf.sprintf "Workload.generate: rate_rps must be positive (got %g)" spec.rate_rps);
  if spec.seeds_per_request < 1 then
    invalid_arg "Workload.generate: at least one seed per request";
  if spec.seeds_per_request > num_nodes then
    invalid_arg "Workload.generate: more seeds per request than graph nodes";
  let rng = Rng.create spec.seed in
  let now = ref 0.0 in
  Array.init spec.requests (fun id ->
      (* exponential interarrival gap: open-loop Poisson arrivals at
         [rate_rps], entirely on the simulated clock *)
      let u = Rng.uniform rng in
      now := !now +. (-.log (1.0 -. u) *. 1000.0 /. spec.rate_rps);
      (* distinct seed nodes, uniform over the graph *)
      let seen = Hashtbl.create (spec.seeds_per_request * 2) in
      let seeds =
        Array.init spec.seeds_per_request (fun _ ->
            let rec draw () =
              let v = Rng.int rng num_nodes in
              if Hashtbl.mem seen v then draw ()
              else begin
                Hashtbl.replace seen v ();
                v
              end
            in
            draw ())
      in
      { id; arrival_ms = !now; seeds })
