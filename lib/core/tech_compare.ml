type entry = {
  tech : Device.Technology.t;
  closed_form : Closed_form.result option;
  numerical : Numerical_opt.point option;
}

let adapt_params ~(reference : Device.Technology.t)
    (tech : Device.Technology.t) (params : Arch_params.t) =
  {
    params with
    Arch_params.io_cell = params.io_cell *. tech.io /. reference.io;
    avg_cap = params.avg_cap *. tech.cell_cap /. reference.cell_cap;
  }

let evaluate ?(reference = Device.Technology.ll) ?warm_from tech ~f params =
  let problem = Power_law.make tech (adapt_params ~reference tech params) ~f in
  let closed_form =
    match Closed_form.evaluate problem with
    | result -> Some result
    | exception Closed_form.Infeasible _ -> None
  in
  let numerical =
    match closed_form with
    | None -> None
    | Some _ ->
      Some (Numerical_opt.optimum ?from:warm_from problem)
  in
  { tech; closed_form; numerical }

let rank ?(techs = Device.Technology.all) ?reference ~f params =
  (* The flavors form a ladder of closely related problems (same
     architecture, same f, scaled leakage/capacitance): each feasible
     flavor warm-starts from the previous one's optimum. The chain is
     sequential and in [techs] order, so ranking stays deterministic. *)
  let warm = ref None in
  let entries =
    List.map
      (fun tech ->
        let entry = evaluate ?reference ?warm_from:!warm tech ~f params in
        (match entry.numerical with
        | Some p -> warm := Some p
        | None -> ());
        entry)
      techs
  in
  let key e =
    match e.numerical with
    | Some p -> p.Power_law.total
    | None -> infinity
  in
  List.sort (fun a b -> Float.compare (key a) (key b)) entries

let best ~entries = List.find_opt (fun e -> e.numerical <> None) entries

let sweep_frequencies ?reference tech ~fs params =
  (* One warm chain along the frequency axis: consecutive points move the
     optimum smoothly (χ′ scales with f), so every solve after the first
     feasible one starts a couple of percent from its answer. Infeasible
     points leave the chain untouched. *)
  let warm = ref None in
  List.map
    (fun f ->
      let entry = evaluate ?reference ?warm_from:!warm tech ~f params in
      (match entry.numerical with
      | Some p -> warm := Some p
      | None -> ());
      (f, entry.numerical))
    fs

let crossover_frequency ?(f_lo = 1e6) ?(f_hi = 1e9) tech_a tech_b params =
  (* The grid walk and the bisection probe nearby frequencies, so each
     flavor carries its own warm chain across the whole search. *)
  let warm_a = ref None and warm_b = ref None in
  let diff f =
    let total warm tech =
      match (evaluate ?warm_from:!warm tech ~f params).numerical with
      | Some p ->
        warm := Some p;
        p.Power_law.total
      | None -> infinity
    in
    let a = total warm_a tech_a and b = total warm_b tech_b in
    (* An infeasible flavor counts as infinitely bad; only both-infeasible
       is undefined. *)
    if Float.is_finite a || Float.is_finite b then a -. b else Float.nan
  in
  (* Localise a sign change on a log-frequency grid (the difference can be
     undefined at the extremes where both flavors fail timing), then bisect
     inside the bracketing interval. *)
  let samples = 25 in
  let lf_lo = Float.log f_lo and lf_hi = Float.log f_hi in
  let step = (lf_hi -. lf_lo) /. float_of_int (samples - 1) in
  let grid =
    List.init samples (fun i ->
        let lf = lf_lo +. (float_of_int i *. step) in
        (lf, diff (Float.exp lf)))
  in
  let defined = List.filter (fun (_, d) -> not (Float.is_nan d)) grid in
  let rec bracket = function
    | (lf0, d0) :: ((lf1, d1) :: _ as rest) ->
      if (d0 < 0.0 && d1 > 0.0) || (d0 > 0.0 && d1 < 0.0) then Some (lf0, lf1)
      else bracket rest
    | [ _ ] | [] -> None
  in
  match bracket defined with
  | None -> None
  | Some (lf0, lf1) ->
    (* The bisection needs finite ordinates; an undefined difference (both
       flavors infeasible) counts as "no preference" at that frequency. *)
    let finite_diff lf = Numerics.Finite.clamp ~nan:0.0 (diff (Float.exp lf)) in
    let log_root = Numerics.Rootfind.bisect ~tol:1e-4 ~f:finite_diff lf0 lf1 in
    Some (Float.exp log_root)
