let energy_per_op (problem : Power_law.problem) =
  (Numerical_opt.optimum problem).Power_law.total /. problem.f

type sweep_point = {
  f : float;
  energy : float;
  ptot : float;
  vdd : float;
  vth : float;
}

let sweep ?(f_lo = 0.1e6) ?(f_hi = 500e6) ?(points = 25) problem =
  if points < 2 then invalid_arg "Energy.sweep: points < 2";
  let step = (Float.log f_hi -. Float.log f_lo) /. float_of_int (points - 1) in
  let fs =
    List.init points (fun i ->
        Float.exp (Float.log f_lo +. (float_of_int i *. step)))
  in
  (* The log-spaced throughputs are a monotone problem family — solved as
     warm-started continuation chunks through the pool. *)
  let optima =
    Numerical_opt.optima_continued
      ~problem_of:(fun f -> Power_law.at_frequency problem ~f)
      fs
  in
  List.map2
    (fun f (opt : Power_law.breakdown) ->
      {
        f;
        energy = opt.total /. f;
        ptot = opt.total;
        vdd = opt.vdd;
        vth = opt.vth;
      })
    fs optima

type mep = {
  f_mep : float;
  energy_mep : float;
  vdd_mep : float;
  overhead_at : float -> float;
}

let minimum_energy_point ?(f_lo = 0.1e6) ?(f_hi = 500e6) problem =
  (* The scan-and-refine over log f probes nearby frequencies over and
     over; one sequential warm chain across all probes keeps each inner
     (Vdd, Vth) solve down to a few Newton steps. *)
  let warm = ref None in
  let optimum_at f =
    let p = Power_law.at_frequency problem ~f in
    let opt = Numerical_opt.optimum ?from:!warm p in
    warm := Some opt;
    opt
  in
  let energy_at_log lf =
    let f = Float.exp lf in
    (optimum_at f).Power_law.total /. f
  in
  let r =
    Numerics.Minimize.grid_then_golden ~samples:48 ~tol:1e-6 ~f:energy_at_log
      (Float.log f_lo) (Float.log f_hi)
  in
  let f_mep = Float.exp r.x in
  let at_mep = optimum_at f_mep in
  let energy_mep = at_mep.Power_law.total /. f_mep in
  {
    f_mep;
    energy_mep;
    vdd_mep = at_mep.Power_law.vdd;
    overhead_at =
      (fun f -> energy_per_op (Power_law.at_frequency problem ~f) /. energy_mep);
  }
