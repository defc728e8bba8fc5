let vth_effective (tech : Technology.t) ~vth0 ~vdd = vth0 -. (tech.eta *. vdd)

let overdrive_scale (tech : Technology.t) =
  (* alpha / (e * n * Ut): the normalisation making Ion = Io at the point
     where the alpha-power law meets the sub-threshold characteristic. *)
  tech.alpha /. (Float.exp 1.0 *. Technology.n_ut tech)

let on_current (tech : Technology.t) ~vdd ~vth =
  if vdd <= vth then
    invalid_arg "Alpha_power.on_current: vdd must exceed vth";
  tech.io *. (((vdd -. vth) *. overdrive_scale tech) ** tech.alpha)

let off_current (tech : Technology.t) ~vth =
  tech.io *. Float.exp (-.vth /. Technology.n_ut tech)

let gate_delay tech ~zeta ~vdd ~vth = zeta *. vdd /. on_current tech ~vdd ~vth

let delay_scaling (tech : Technology.t) ~vdd ~vth =
  let nominal =
    gate_delay tech ~zeta:1.0 ~vdd:tech.vdd_nom
      ~vth:(Technology.vth_nom_effective tech)
  in
  gate_delay tech ~zeta:1.0 ~vdd ~vth /. nominal
