(* Brute-force 2-D references: an exhaustive grid over two variables, and
   the free (Vdd, Vth) optimum built on it. They validate that the
   constrained 1-D search of [Numerical_opt.optimum] loses nothing — a
   positive slack never helps (the argument below Eq. 5). Test-only: no
   production path runs a 2-D scan. *)

module Pl = Power_core.Power_law

type result = { x0 : float; x1 : float; fx : float }

(* The best of [samples] x [samples] evenly spaced points, first
   minimum kept on ties. *)
let minimize ~f ~x0_range:(a0, b0) ~x1_range:(a1, b1) ~samples =
  if samples < 2 then invalid_arg "Grid2.minimize: samples < 2";
  let s0 = (b0 -. a0) /. float_of_int (samples - 1) in
  let s1 = (b1 -. a1) /. float_of_int (samples - 1) in
  let best = ref { x0 = a0; x1 = a1; fx = infinity } in
  for i = 0 to samples - 1 do
    let x0 = a0 +. (float_of_int i *. s0) in
    for j = 0 to samples - 1 do
      let x1 = a1 +. (float_of_int j *. s1) in
      let v = f x0 x1 in
      if v < !best.fx then best := { x0; x1; fx = v }
    done
  done;
  !best

(* Minimise over every feasible (Vdd, Vth) couple on a dense grid: Vth is
   free, and a couple is feasible when it meets timing. [vdd_range]
   defaults to the 1-D solver's bracket. *)
let optimum ?(vdd_range = Pl.vdd_search_range) ?(vth_range = (-0.2, 0.8))
    ?(samples = 400) problem =
  let cost vdd vth =
    if vdd <= 0.0 || not (Pl.meets_timing problem ~vdd ~vth) then infinity
    else (Pl.at_free problem ~vdd ~vth).total
  in
  let r = minimize ~f:cost ~x0_range:vdd_range ~x1_range:vth_range ~samples in
  Pl.at_free problem ~vdd:r.x0 ~vth:r.x1
