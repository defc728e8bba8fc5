(* The reference seeded solve: the bracket expansion of
   [Numerics.Minimize.seeded_bracket] refined by Brent's derivative-free
   search, as the production solver did before it refined by Newton on
   dPtot/dVdd. [Numerical_opt.warm_solve] must land on the same minimum
   from the same seed: the same basin, Ptot within 1e-12 relative and the
   supply within 1e-7 (test_solver_equiv). *)

module Mn = Numerics.Minimize
module Pl = Power_core.Power_law

(* Brent's minimisation on a bracket [a, b] holding an interior-or-boundary
   point [x0] with f(x0) no worse than both ends: successive parabolic
   interpolation through the three lowest points seen so far, falling back
   to a golden-section step whenever the parabola is ill-conditioned, would
   step outside the bracket, or fails to halve the step of two iterations
   ago. Convergence is superlinear on the smooth power curves this repo
   minimises, so the bracket shrinks in a handful of evaluations where
   plain golden section needs ~36. *)
let cgold = 1.0 -. (0.5 *. (sqrt 5.0 -. 1.0))

let brent_refine ~tol ~max_iter ~f lo hi x0 fx0 =
  let a = ref lo and b = ref hi in
  let x = ref x0 and w = ref x0 and v = ref x0 in
  let fx = ref fx0 and fw = ref fx0 and fv = ref fx0 in
  (* [d] is the current step, [e] the step before last. *)
  let d = ref 0.0 and e = ref 0.0 in
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let xm = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. (0.1 *. tol) in
    let tol2 = 2.0 *. tol1 in
    if Float.abs (!x -. xm) <= tol2 -. (0.5 *. (!b -. !a)) then
      converged := true
    else begin
      let golden = ref true in
      if Float.abs !e > tol1 then begin
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q = 2.0 *. (q -. r) in
        let p = if q > 0.0 then -.p else p in
        let q = Float.abs q in
        let etemp = !e in
        e := !d;
        if
          Float.abs p < Float.abs (0.5 *. q *. etemp)
          && p > q *. (!a -. !x)
          && p < q *. (!b -. !x)
        then begin
          d := p /. q;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := (if xm -. !x >= 0.0 then tol1 else -.tol1);
          golden := false
        end
      end;
      if !golden then begin
        e := (if !x >= xm then !a -. !x else !b -. !x);
        d := cgold *. !e
      end;
      let u =
        if Float.abs !d >= tol1 then !x +. !d
        else !x +. (if !d >= 0.0 then tol1 else -.tol1)
      in
      let fu = f u in
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w;
        fv := !fw;
        w := !x;
        fw := !fx;
        x := u;
        fx := fu
      end
      else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w;
          fv := !fw;
          w := u;
          fw := fu
        end
        else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  { Mn.x = !x; fx = !fx; iterations = !iter }


(* [Numerical_opt.warm_solve] with Brent as the refinement: the seed
   clamped into the bracket, a 2 % trust radius relative to it, and the
   same 1e-9 tolerance. *)
let warm_solve ?(vdd_lo = fst Pl.vdd_search_range)
    ?(vdd_hi = snd Pl.vdd_search_range) ~from c =
  let f = Pl.objective c in
  let x0 = Float.min vdd_hi (Float.max vdd_lo from) in
  Mn.seeded_bracket ~tol:1e-9 ~f
    ~refine:(brent_refine ~tol:1e-9 ~max_iter:200 ~f)
    ~x0 ~scale:(0.02 *. x0) vdd_lo vdd_hi
