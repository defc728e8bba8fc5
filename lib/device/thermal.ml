let at_temperature (tech : Technology.t) ~temperature =
  let t0 = tech.temperature in
  let dt = temperature -. t0 in
  {
    tech with
    temperature;
    io = tech.io *. Float.exp (dt /. 25.0);
    vth0_nom = tech.vth0_nom -. (1e-3 *. dt);
  }

type equilibrium = { temperature : float; ptot : float; iterations : int }

let self_heating ?(ambient = 300.0) ?(r_th = 40.0) ?(tol = 0.01)
    ?(max_iter = 100) ~optimum_at (tech : Technology.t) =
  let rec iterate temperature iterations =
    if iterations > max_iter then
      failwith "Thermal.self_heating: no convergence";
    let ptot = optimum_at (at_temperature tech ~temperature) in
    let next = ambient +. (r_th *. ptot) in
    (* Damped update for stability at large R_th. *)
    let blended = (0.5 *. temperature) +. (0.5 *. next) in
    if Float.abs (blended -. temperature) < tol then
      { temperature = blended; ptot; iterations }
    else iterate blended (iterations + 1)
  in
  iterate ambient 0
