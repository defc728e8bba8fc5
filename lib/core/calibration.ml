let params_of_row (tech : Device.Technology.t) ~f (row : Paper_data.table1_row)
    =
  let n = float_of_int row.n_cells in
  let n_ut = Device.Technology.n_ut tech in
  let avg_cap = row.pdyn /. (row.activity *. n *. f *. row.vdd *. row.vdd) in
  let io_cell =
    row.pstat /. (n *. row.vdd) *. Float.exp (row.vth /. n_ut)
  in
  {
    Arch_params.label = row.label;
    n_cells = n;
    activity = row.activity;
    avg_cap;
    io_cell;
    ld_eff = row.ld_eff;
    area = row.area;
  }

(* Calibrated problems are pure functions of (technology, frequency, row) —
   all plain records of floats and strings, so structural hashing on the
   full inputs is a sound cache key. Table and sweep drivers rebuild the
   same handful of problems on every call; the memo makes that free. *)
let problem_cache =
  Parallel.Memo.create ~name:"calibration"
    (fun (tech, f, (row : Paper_data.table1_row)) ->
      Power_law.make_calibrated tech (params_of_row tech ~f row) ~f
        ~vdd_ref:row.Paper_data.vdd ~vth_ref:row.vth)

let problem_of_row tech ~f row =
  Parallel.Memo.find problem_cache (tech, f, row)

let implied_gate_zeta (tech : Device.Technology.t) ~f
    (row : Paper_data.table1_row) =
  let chi_prime =
    Power_law.chi_prime_of_point tech ~vdd:row.vdd ~vth:row.vth
  in
  let drive_norm =
    (Float.exp 1.0 *. Device.Technology.n_ut tech /. tech.alpha) ** tech.alpha
  in
  chi_prime *. tech.io /. (f *. row.ld_eff *. drive_norm)

let fit_ring_divisor (tech : Device.Technology.t) ~f rows =
  match rows with
  | [] -> invalid_arg "Calibration.fit_ring_divisor: no rows"
  | _ ->
    let ratios =
      List.map (fun row -> tech.zeta_ro /. implied_gate_zeta tech ~f row) rows
    in
    Numerics.Stats.percentile ratios 50.0

let problem_of_wallace_row tech ~f ~(ll_row : Paper_data.table1_row)
    ~(target : Paper_data.wallace_row) ~cap_scale =
  let ll_tech = Device.Technology.ll in
  let ll_params = params_of_row ll_tech ~f ll_row in
  let leak_ratio = ll_params.io_cell /. ll_tech.io in
  let params =
    {
      ll_params with
      Arch_params.avg_cap = ll_params.avg_cap *. cap_scale;
      io_cell = leak_ratio *. tech.Device.Technology.io;
    }
  in
  Power_law.make_calibrated tech params ~f ~vdd_ref:target.w_vdd
    ~vth_ref:target.w_vth

let fit_cap_scale tech ~f ~rows =
  if rows = [] then invalid_arg "Calibration.fit_cap_scale: no rows";
  (* Each row's re-optimisation is independent; the residuals come back in
     row order and are compensated-summed on the caller, so the cost — and
     therefore the fitted scale — is bitwise-identical at any pool size.
     Successive cost evaluations move the scale smoothly, so each row
     warm-starts from its own optimum at the previously probed scale: the
     chain in [warm] is indexed by row slot and advanced exactly once per
     cost call whatever domain computes the slot, keeping the fit
     deterministic while cutting each inner solve to a few Newton steps. *)
  let warm = Array.make (List.length rows) None in
  let cost scale =
    Numerics.Kahan.sum_list
      (Parallel.Pool.mapi
         (fun i
              ((ll_row : Paper_data.table1_row),
               (target : Paper_data.wallace_row)) ->
           let problem =
             problem_of_wallace_row tech ~f ~ll_row ~target ~cap_scale:scale
           in
           let optimum = Numerical_opt.optimum ?from:warm.(i) problem in
           warm.(i) <- Some optimum;
           let rel = (optimum.total -. target.w_ptot) /. target.w_ptot in
           rel *. rel)
         rows)
  in
  let r = Numerics.Minimize.grid_then_golden ~samples:48 ~f:cost 0.3 3.0 in
  r.x
