type problem = {
  tech : Device.Technology.t;
  params : Arch_params.t;
  f : float;
  chi_prime : float;
}

(* (e * n * Ut / alpha)^alpha — the drive normalisation of Eq. 2. *)
let drive_norm (tech : Device.Technology.t) =
  (Float.exp 1.0 *. Device.Technology.n_ut tech /. tech.alpha) ** tech.alpha

let chi_prime_of_tech (tech : Device.Technology.t) ~ld_eff ~f =
  f *. ld_eff
  *. Device.Technology.gate_zeta tech
  *. drive_norm tech /. tech.io

let chi_prime_of_point (tech : Device.Technology.t) ~vdd ~vth =
  if vdd <= vth then
    invalid_arg "Power_law.chi_prime_of_point: vdd must exceed vth";
  ((vdd -. vth) ** tech.alpha) /. vdd

let make tech params ~f =
  {
    tech;
    params;
    f;
    chi_prime = chi_prime_of_tech tech ~ld_eff:params.Arch_params.ld_eff ~f;
  }

let make_calibrated tech params ~f ~vdd_ref ~vth_ref =
  { tech; params; f; chi_prime = chi_prime_of_point tech ~vdd:vdd_ref ~vth:vth_ref }

let at_frequency t ~f =
  if f <= 0.0 then invalid_arg "Power_law.at_frequency: f <= 0";
  { t with f; chi_prime = t.chi_prime *. f /. t.f }

let chi_linear t = t.chi_prime ** (1.0 /. t.tech.alpha)

let vth_of_vdd t vdd =
  if vdd <= 0.0 then invalid_arg "Power_law.vth_of_vdd: vdd <= 0";
  vdd -. ((t.chi_prime *. vdd) ** (1.0 /. t.tech.alpha))

let vdd_of_vth t vth =
  let f vdd = vth_of_vdd t vdd -. vth in
  (* vth_of_vdd is increasing in vdd for vdd above a small floor. *)
  Numerics.Rootfind.brent ~f (Float.max 1e-6 (vth +. 1e-9)) 20.0

let pdyn t ~vdd =
  let p = t.params in
  p.Arch_params.activity *. p.n_cells *. p.avg_cap *. t.f *. vdd *. vdd

let pstat t ~vdd ~vth =
  let p = t.params in
  p.Arch_params.n_cells *. vdd *. p.io_cell
  *. Float.exp (-.vth /. Device.Technology.n_ut t.tech)

type breakdown = {
  vdd : float;
  vth : float;
  dynamic : float;
  static : float;
  total : float;
}

let at_free t ~vdd ~vth =
  let dynamic = pdyn t ~vdd and static = pstat t ~vdd ~vth in
  { vdd; vth; dynamic; static; total = dynamic +. static }

let at t ~vdd = at_free t ~vdd ~vth:(vth_of_vdd t vdd)

type coeffs = {
  kdyn : float;
  n_cells : float;
  io_cell : float;
  chi_p : float;
  inv_alpha : float;
  n_ut : float;
}

let coeffs t =
  let p = t.params in
  {
    kdyn = p.Arch_params.activity *. p.n_cells *. p.avg_cap *. t.f;
    n_cells = p.n_cells;
    io_cell = p.io_cell;
    chi_p = t.chi_prime;
    inv_alpha = 1.0 /. t.tech.alpha;
    n_ut = Device.Technology.n_ut t.tech;
  }

(* [at]'s total with the per-problem products hoisted: [pdyn] multiplies
   left to right, so a.N.C.f.vdd.vdd is (kdyn.vdd).vdd, and every other
   operation is [vth_of_vdd]'s and [pstat]'s in the same order — the bits
   are equal. *)
let total_on_locus c vdd =
  let vth = vdd -. ((c.chi_p *. vdd) ** c.inv_alpha) in
  (c.kdyn *. vdd *. vdd)
  +. (c.n_cells *. vdd *. c.io_cell *. Float.exp (-.vth /. c.n_ut))

let objective c vdd =
  if vdd <= 0.0 then infinity
  else begin
    let total = total_on_locus c vdd in
    if Float.is_finite total then total else infinity
  end

(* P, P' and P'' on the locus from one power and one exponential. With
   g = (chi' v)^(1/alpha), vth = v - g, E = e^{-vth/nUt}, s = N Io E and
   h = 1 - (v - g/alpha)/nUt (vth' = 1 - g/(alpha v)):
     P'  = 2 kdyn v + s h
     P'' = 2 kdyn - s ((1 - g/(alpha v)) h + 1 - g/(alpha^2 v)) / nUt
   [p] is [total_on_locus]'s expression, so its bits are equal. *)
type jet = { mutable p : float; mutable dp : float; mutable d2p : float }

let jet_into c vdd j =
  let g = (c.chi_p *. vdd) ** c.inv_alpha in
  let vth = vdd -. g in
  let e = Float.exp (-.vth /. c.n_ut) in
  j.p <- (c.kdyn *. vdd *. vdd) +. (c.n_cells *. vdd *. c.io_cell *. e);
  let s = c.n_cells *. c.io_cell *. e in
  let ga = g *. c.inv_alpha in
  let h = 1.0 -. ((vdd -. ga) /. c.n_ut) in
  j.dp <- (2.0 *. c.kdyn *. vdd) +. (s *. h);
  j.d2p <-
    (2.0 *. c.kdyn)
    -. (s
       *. (((1.0 -. (ga /. vdd)) *. h) +. (1.0 -. (ga *. c.inv_alpha /. vdd)))
       /. c.n_ut)

let meets_timing t ~vdd ~vth =
  vdd > vth && ((vdd -. vth) ** t.tech.alpha) /. vdd >= t.chi_prime

(* One shared default supply bracket for every optimiser. 0.05 V keeps the
   lower end clear of the vdd -> 0 singularity of the constraint locus;
   3.0 V is comfortably above any optimum of the paper's technologies. *)
let vdd_search_range = (0.05, 3.0)

(* Interval lifts of the on-constraint power model. These are the naive
   (syntactic) enclosures: each occurrence of vdd widens independently, so
   they over-approximate on wide boxes — Absint tightens them with affine
   mean-value forms before branch-and-bound. Soundness is all that matters
   here: every returned box contains the exact value for every point of
   the input boxes. *)

module Iv = Numerics.Interval

let chi_prime_iv t ~f =
  if f.Iv.lo <= 0.0 then invalid_arg "Power_law.chi_prime_iv: f box <= 0";
  (* chi' is exactly proportional to f (Eq. 6). *)
  Iv.scale (t.chi_prime /. t.f) f

let pdyn_iv t ~f ~vdd =
  let p = t.params in
  Iv.scale
    (p.Arch_params.activity *. p.n_cells *. p.avg_cap)
    (Iv.mul f (Iv.sqr vdd))

type locus_iv = { supply : Iv.t; g : Iv.t; leak : Iv.t }

let locus_iv t ~chi_prime vdd =
  if vdd.Iv.lo <= 0.0 then invalid_arg "Power_law.locus_iv: vdd box <= 0";
  (* chi' and vdd are both positive: where the outward-rounded product
     reaches below zero (a supply box starting at a few ulps above 0),
     its lower end clamps back to 0, which keeps the enclosure sound and
     the root's base non-negative. *)
  let cv = Iv.mul chi_prime vdd in
  let cv = if cv.Iv.lo < 0.0 then Iv.make 0.0 cv.Iv.hi else cv in
  let g = Iv.pow_scalar cv (1.0 /. t.tech.alpha) in
  let vth = Iv.sub vdd g in
  {
    supply = vdd;
    g;
    leak = Iv.exp (Iv.scale (-1.0 /. Device.Technology.n_ut t.tech) vth);
  }

let ptot_on_constraint_iv t ~f l =
  let p = t.params in
  Iv.add (pdyn_iv t ~f ~vdd:l.supply)
    (Iv.scale (p.Arch_params.n_cells *. p.io_cell) (Iv.mul l.supply l.leak))

(* Enclosure of d(Ptot)/dVdd along the constraint locus. With
   g(v) = (chi' v)^(1/alpha) and vth = v - g:
     g'    = g / (alpha v)
     vth'  = 1 - g'
     pdyn' = 2 a N C f v
     pstat'= N io_cell e^{-vth/nUt} (1 - v vth'/nUt)
   A sign-definite result over a box proves Ptot monotone there — the
   branch-and-bound derivative-sign pruning rule. *)
let dptot_on_constraint_iv t ~f l =
  let p = t.params in
  let n_ut = Device.Technology.n_ut t.tech in
  let g' = Iv.scale (1.0 /. t.tech.alpha) (Iv.div l.g l.supply) in
  let vth' = Iv.sub Iv.one g' in
  let pdyn' =
    Iv.scale
      (2.0 *. p.Arch_params.activity *. p.n_cells *. p.avg_cap)
      (Iv.mul f l.supply)
  in
  let pstat' =
    Iv.scale
      (p.Arch_params.n_cells *. p.io_cell)
      (Iv.mul l.leak
         (Iv.sub Iv.one (Iv.scale (1.0 /. n_ut) (Iv.mul l.supply vth'))))
  in
  Iv.add pdyn' pstat'
