type point = Power_law.breakdown

(* Counter catalog of the solver: one [opt.solve] span per seeded solve;
   deterministic counts, so they survive into normalized profiles.
   [opt.brent_iters] counts Newton evaluations (the name predates Newton);
   [opt.seed_fallbacks] the cold solves Eq. 13 cannot seed. *)
let c_solves = Obs.Counter.make "opt.solves"
let c_seeded_solves = Obs.Counter.make "opt.seeded_solves"
let c_brent_iters = Obs.Counter.make "opt.brent_iters"
let c_seed_fallbacks = Obs.Counter.make "opt.seed_fallbacks"
let c_sweep_points = Obs.Counter.make "opt.sweep_points"

let default_vdd_lo, default_vdd_hi = Power_law.vdd_search_range

(* Newton on P'(v) = 0 inside the expansion's bracket [a, b], from its
   middle point: each evaluation's sign of P' shrinks the bracket, and a
   step that leaves it, or a curvature P'' <= 0, becomes a bisection. It
   stops once the step is within [tol |x|] and returns the last evaluated
   point, whose [fx] is [Power_law.objective c x]. [iterations] counts
   the evaluations. *)
let newton_refine c ~tol ~max_iter a b x0 _ =
  let j = { Power_law.p = 0.0; dp = 0.0; d2p = 0.0 } in
  let a = ref a and b = ref b and x = ref x0 and iter = ref 0 in
  let stop = ref false in
  while not !stop do
    incr iter;
    let v = !x in
    Power_law.jet_into c v j;
    if j.dp < 0.0 then a := v else if j.dp > 0.0 then b := v;
    let u = v -. (j.dp /. j.d2p) in
    let u =
      if j.d2p > 0.0 && u > !a && u < !b then u else 0.5 *. (!a +. !b)
    in
    if Float.abs (u -. v) <= tol *. Float.abs v || !iter >= max_iter then
      stop := true
    else x := u
  done;
  let fx = if !x > 0.0 && Float.is_finite j.p then j.p else infinity in
  { Numerics.Minimize.x = !x; fx; iterations = !iter }

(* The one seeded solve of an on-constraint objective: expand a bracket
   geometrically around the seed until unimodality is established, then
   Newton. [scale] is the relative trust radius — Eq. 13 seeds are good
   to a few percent, warm starts from a neighbouring solve usually much
   better, but the expansion makes the exact value uncritical. *)
let solve_seeded ~vdd_lo ~vdd_hi ~seed ~scale c =
  Obs.Span.with_ ~name:"opt.solve" @@ fun () ->
  let x0 = Float.min vdd_hi (Float.max vdd_lo seed) in
  let r =
    Numerics.Minimize.seeded_bracket ~tol:1e-9 ~f:(Power_law.objective c)
      ~refine:(newton_refine c ~tol:1e-9 ~max_iter:200)
      ~x0 ~scale:(scale *. x0) vdd_lo vdd_hi
  in
  Obs.Counter.incr c_solves;
  Obs.Counter.incr c_seeded_solves;
  Obs.Counter.add c_brent_iters r.iterations;
  r

(* The closed form is a trustworthy seed only where its own derivation
   holds: the Eq. 7 linearization must be feasible and the predicted
   optimum must fall inside the fitted range (extrapolated fits can be
   badly off) and inside the caller's search bracket. *)
let eq13_seed ~vdd_lo ~vdd_hi (problem : Power_law.problem) =
  match Closed_form.evaluate problem with
  | exception Closed_form.Infeasible _ -> None
  | cf ->
    let lin = Device.Linearization.fit ~alpha:problem.tech.alpha () in
    if
      cf.vdd_opt >= Float.max vdd_lo lin.lo
      && cf.vdd_opt <= Float.min vdd_hi lin.hi
    then Some cf.vdd_opt
    else None

let warm_solve ?(vdd_lo = default_vdd_lo) ?(vdd_hi = default_vdd_hi) ~from c =
  solve_seeded ~vdd_lo ~vdd_hi ~seed:from ~scale:0.02 c

(* Certify, then the seeded core from the incumbent inside the certified
   bracket, then the walls the bracket reaches: a wall minimum sits in a
   collapsed edge leaf, which never moves the incumbent. The interval
   lifts reject a NaN coefficient, so non-finite ones get no proof. *)
let certified_optimum ?(vdd_lo = default_vdd_lo) ?(vdd_hi = default_vdd_hi)
    problem =
  let open Power_law in
  let c = coeffs problem and domain = Numerics.Interval.make vdd_lo vdd_hi in
  let coefs = [ c.kdyn; c.n_cells; c.io_cell; c.chi_p; c.inv_alpha; c.n_ut ] in
  if not (List.for_all Float.is_finite coefs) then
    ( at problem ~vdd:vdd_lo,
      { Absint.ptot = Numerics.Interval.entire; vdd_bracket = domain;
        vdd_best = vdd_lo; boxes = 0; splits = 0; prunes = 0 } )
  else
    let cert = Absint.certify (Absint.box ~vdd:domain problem) in
    let { Numerics.Interval.lo; hi } = cert.vdd_bracket in
    let x =
      if lo = hi then lo
      else (warm_solve ~vdd_lo:lo ~vdd_hi:hi ~from:cert.vdd_best c).x
    in
    let wall x (reached, v) =
      if reached && objective c v < objective c x then v else x
    in
    let walls = [ (lo <= vdd_lo, vdd_lo); (hi >= vdd_hi, vdd_hi) ] in
    (at problem ~vdd:(List.fold_left wall x walls), cert)

(* A warm seed ([~from], 2 %), else the Eq. 13 seed (5 %), else the
   certificate. A seeded solve that ends non-finite (a seed inside the
   overflow region, with all three bracket points infinite) is solved
   again through the certificate, which finds any finite minimum. *)
let optimum ?(vdd_lo = default_vdd_lo) ?(vdd_hi = default_vdd_hi) ?from
    problem =
  let seed, scale =
    match (from : point option) with
    | Some from -> (Some from.vdd, 0.02)
    | None -> (eq13_seed ~vdd_lo ~vdd_hi problem, 0.05)
  in
  let solve seed =
    solve_seeded ~vdd_lo ~vdd_hi ~seed ~scale (Power_law.coeffs problem)
  in
  match Option.map solve seed with
  | Some r when Float.is_finite r.fx -> Power_law.at problem ~vdd:r.x
  | r ->
    if Option.is_none r then Obs.Counter.incr c_seed_fallbacks;
    fst (certified_optimum ~vdd_lo ~vdd_hi problem)

(* The one warm-chain loop: a contiguous run of related problems solved
   sequentially on the calling domain, each solve warm-started from its
   predecessor and handed to [write] as soon as it is available. Without
   [head] the first solve is cold (Eq. 13 or certificate seed) — the
   chunk body of [optima_continued]; with it the first solve warm-starts
   too, as the per-die chains of the reference yield engine do from the
   nominal optimum (keeping them off the Eq. 13 seeding path, whose
   per-alpha linearization memo would otherwise grow without bound under
   continuously varying alpha). *)
let solve_chain_into ?vdd_lo ?vdd_hi ?head ~problem_of ~n ~write () =
  let prev = ref head in
  for i = 0 to n - 1 do
    let pt = optimum ?vdd_lo ?vdd_hi ?from:!prev (problem_of i) in
    prev := Some pt;
    write i pt
  done

(* Continuation over a family of related problems: fixed-size contiguous
   chunks, each one warm chain whose head solves cold (Eq. 13 or
   certificate seed). The chunk size is a constant — NOT derived from the
   pool size — so the warm chains, and with them every floating-point bit
   of the result, are identical at any [-j]. *)
let continuation_chunk = 16

let optima_continued ?pool ?vdd_lo ?vdd_hi ~problem_of items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let chain start =
    let acc = ref [] in
    solve_chain_into ?vdd_lo ?vdd_hi
      ~problem_of:(fun k -> problem_of arr.(start + k))
      ~n:(Stdlib.min continuation_chunk (n - start))
      ~write:(fun _ pt -> acc := pt :: !acc)
      ();
    List.rev !acc
  in
  Obs.Span.with_ ~name:"opt.continued" (fun () ->
      List.concat
        (Parallel.Pool.map ?pool chain
           (List.init
              ((n + continuation_chunk - 1) / continuation_chunk)
              (fun c -> c * continuation_chunk))))

(* Fixed-size index chunks cut the pool's per-task overhead on fine-grained
   sweeps; each point is still a pure function of its index, so the sweep
   stays bitwise-identical to the unchunked map at any pool size. *)
let sweep_chunk = 32

let sweep_vdd ?pool ?(samples = 200) ~vdd_lo ~vdd_hi problem =
  if samples < 2 then invalid_arg "Numerical_opt.sweep_vdd: samples < 2";
  let step = (vdd_hi -. vdd_lo) /. float_of_int (samples - 1) in
  let nchunks = (samples + sweep_chunk - 1) / sweep_chunk in
  Obs.Span.with_ ~name:"opt.sweep" (fun () ->
      List.concat
        (Parallel.Pool.map ?pool
           (fun c ->
             let start = c * sweep_chunk in
             let stop = Stdlib.min samples (start + sweep_chunk) in
             List.init (stop - start) (fun k ->
                 Obs.Counter.incr c_sweep_points;
                 let vdd =
                   vdd_lo +. (float_of_int (start + k) *. step)
                 in
                 Power_law.at problem ~vdd))
           (List.init nchunks Fun.id)))

let dyn_static_ratio (p : point) =
  if p.static = 0.0 then infinity else p.dynamic /. p.static
