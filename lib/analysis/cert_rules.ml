(* Certificate cross-check rules: every diagnostic here compares an
   executed result (solver, closed form, warm chain, fit record) against
   a machine-checked interval enclosure from Power_core.Absint. The
   enclosures are the ground truth — a finding always indicts the
   executed side. *)

module Iv = Numerics.Interval
module Ab = Power_core.Absint
module Pl = Power_core.Power_law

let model_loc ?parameter model = Diagnostic.Model_loc { model; parameter }

let diag rule model ?parameter ?severity ?fix_hint message =
  let meta = Rule.find rule in
  Diagnostic.make ~rule
    ~severity:(Option.value severity ~default:meta.Rule.severity)
    ~location:(model_loc ?parameter model)
    ?fix_hint message

(* --- cert.lin-residual ------------------------------------------------ *)

(* Certified sup-bound of |v^(1/alpha) - (a v + b)| over the fit range,
   by mean-value interval evaluation on a uniform subdivision: on each
   piece, r(v) in r(mid) + r'(piece) * (v - mid) with
   r'(v) = (1/alpha) v^(1/alpha - 1) - a. *)
let certified_residual_bound (lin : Device.Linearization.t) =
  let pieces = 512 in
  let p = 1.0 /. lin.alpha in
  let step = (lin.hi -. lin.lo) /. float_of_int pieces in
  let bound = ref 0.0 in
  for i = 0 to pieces - 1 do
    let a = lin.lo +. (float_of_int i *. step) in
    let piece = Iv.make a (Float.min lin.hi (a +. step)) in
    let m = Iv.mid piece in
    let r_mid =
      Iv.sub
        (Iv.pow_scalar (Iv.of_float m) p)
        (Iv.of_float ((lin.a *. m) +. lin.b))
    in
    let r_slope =
      Iv.add_scalar
        (Iv.scale p (Iv.pow_scalar piece (p -. 1.0)))
        (-.lin.a)
    in
    let enc =
      Iv.add r_mid (Iv.mul r_slope (Iv.add_scalar piece (-.m)))
    in
    bound := Float.max !bound (Iv.mag enc)
  done;
  !bound

let linearization ~label (tech : Device.Technology.t) =
  let lin = Device.Linearization.fit ~alpha:tech.alpha () in
  let certified = certified_residual_bound lin in
  if certified <= (lin.max_error *. 1.25) +. 1e-5 then []
  else
    [
      diag "cert.lin-residual" label ~parameter:"max_error"
        ~fix_hint:"refit Eq. 7 with more samples or store the certified \
                   bound instead of the sampled one"
        (Printf.sprintf
           "certified residual bound %.3e exceeds the recorded sampled \
            max_error %.3e over [%.2f, %.2f]"
           certified lin.max_error lin.lo lin.hi);
    ]

(* --- per-problem certificate audits ----------------------------------- *)

(* Slack for comparing an executed point against a certified interval:
   the solver refines to ~1e-9 absolute in vdd and the enclosure ends are
   outward-rounded, so 1e-6 relative covers both. *)
let vdd_slack v = 1e-6 *. Float.max 1.0 (Float.abs v)

let in_bracket bracket v =
  v >= bracket.Iv.lo -. vdd_slack v && v <= bracket.Iv.hi +. vdd_slack v

(* The seeded solver's initial bracket expansion works at a 5% scale
   (Numerics.Minimize.seeded_bracket via Numerical_opt.optimum); a seed
   further than that from the certified bracket could start Newton in the
   wrong basin without tripping the expansion. *)
let seed_trust_radius = 0.05

let certificate ~label (problem : Pl.problem) =
  let box = Ab.box problem in
  let cert = Ab.certify box in
  let bracket = cert.Ab.vdd_bracket in
  let enclosure = cert.Ab.ptot in
  let finite =
    let bad part (which, violation) =
      diag "cert.finite-box" label ~parameter:(part ^ "." ^ which)
        ~fix_hint:"shrink the parameter box; an unbounded enclosure \
                   certifies nothing"
        (Printf.sprintf "certified %s has a %s %s endpoint" part which
           (Numerics.Finite.violation_to_string violation))
    in
    List.filter_map Fun.id
      [
        Option.map (bad "ptot enclosure") (Iv.finite_violation enclosure);
        Option.map (bad "vdd bracket") (Iv.finite_violation bracket);
        (if enclosure.Iv.lo < 0.0 then
           Some
             (diag "cert.finite-box" label ~parameter:"ptot.lo"
                ~fix_hint:"a negative certified power bound means the \
                           interval model, not the circuit, is broken"
                (Printf.sprintf
                   "certified Ptot lower bound %.3e is negative"
                   enclosure.Iv.lo))
         else None);
      ]
  in
  if finite <> [] then finite
  else
    let optimum = Power_core.Numerical_opt.optimum problem in
    let solver =
      let vdd_ok = in_bracket bracket optimum.Pl.vdd in
      let ptot_ok =
        optimum.Pl.total >= enclosure.Iv.lo *. (1.0 -. 1e-9)
        && optimum.Pl.total <= enclosure.Iv.hi *. (1.0 +. 1e-6)
      in
      if vdd_ok && ptot_ok then []
      else
        [
          diag "cert.solver-in-enclosure" label ~parameter:"vdd"
            ~fix_hint:"the enclosure is a proof; debug the solver (seed, \
                       bracket expansion, Newton tolerance)"
            (Printf.sprintf
               "solver optimum (Vdd %.6g V, Ptot %.6g W) outside certified \
                bracket %s / enclosure %s"
               optimum.Pl.vdd optimum.Pl.total (Iv.to_string bracket)
               (Iv.to_string enclosure));
        ]
    in
    let seed =
      match Power_core.Closed_form.evaluate problem with
      | exception Power_core.Closed_form.Infeasible _ ->
        (* model.eq13-domain owns infeasibility; no seed, no check. *)
        []
      | r ->
        let v = r.Power_core.Closed_form.vdd_opt in
        let dist =
          Float.max 0.0
            (Float.max (bracket.Iv.lo -. v) (v -. bracket.Iv.hi))
        in
        if dist <= seed_trust_radius then []
        else
          [
            diag "cert.eq13-seed" label ~parameter:"vdd_opt"
              ~fix_hint:"the closed form left its validity domain; widen \
                         the seeded bracket expansion or force the grid \
                         fallback here"
              (Printf.sprintf
                 "Eq. 13 seed Vdd = %.4g V is %.4g V outside the \
                  certified bracket %s (trust radius %.2g V)"
                 v dist (Iv.to_string bracket) seed_trust_radius);
          ]
    in
    let warm =
      (* One continuation step to a 2% higher throughput, seeded from
         this problem's optimum — the exact move optima_continued makes —
         checked against the perturbed problem's own certificate. *)
      let problem' = Pl.at_frequency problem ~f:(problem.Pl.f *. 1.02) in
      let cert' = Ab.certify (Ab.box problem') in
      let warm = Power_core.Numerical_opt.optimum ~from:optimum problem' in
      let ok =
        in_bracket cert'.Ab.vdd_bracket warm.Pl.vdd
        && warm.Pl.total <= cert'.Ab.ptot.Iv.hi *. (1.0 +. 1e-6)
        && warm.Pl.total >= cert'.Ab.ptot.Iv.lo *. (1.0 -. 1e-9)
      in
      if ok then []
      else
        [
          diag "cert.warm-chain" label ~parameter:"vdd"
            ~fix_hint:"shrink the continuation step or re-solve cold when \
                       the warm result leaves the certified bracket"
            (Printf.sprintf
               "warm step to f*1.02 landed at (Vdd %.6g V, Ptot %.6g W) \
                outside certified bracket %s / enclosure %s"
               warm.Pl.vdd warm.Pl.total
               (Iv.to_string cert'.Ab.vdd_bracket)
               (Iv.to_string cert'.Ab.ptot));
        ]
    in
    let coverage =
      let lo, hi = Pl.vdd_search_range in
      let step = (hi -. lo) /. 255.0 in
      if bracket.Iv.lo <= lo +. step || bracket.Iv.hi >= hi -. step then
        [
          diag "cert.sweep-coverage" label ~parameter:"vdd"
            ~fix_hint:"widen Power_law.vdd_search_range - the certified \
                       minimiser may sit on the wall"
            (Printf.sprintf
               "certified bracket %s is within one grid step of the \
                search bracket [%.2f, %.2f]"
               (Iv.to_string bracket) lo hi);
        ]
      else []
    in
    solver @ seed @ warm @ coverage
