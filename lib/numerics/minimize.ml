type result = { x : float; fx : float; iterations : int }

let inv_phi = 0.5 *. (sqrt 5.0 -. 1.0)
let inv_phi2 = inv_phi *. inv_phi

(* Golden-section search with function-value reuse (two probes kept). *)
let golden_section ?(tol = 1e-10) ?(max_iter = 200) ~f lo hi =
  let a = ref lo and b = ref hi in
  let h = ref (hi -. lo) in
  let c = ref (lo +. (inv_phi2 *. !h)) in
  let d = ref (lo +. (inv_phi *. !h)) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !h > tol && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      h := !b -. !a;
      c := !a +. (inv_phi2 *. !h);
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      h := !b -. !a;
      d := !a +. (inv_phi *. !h);
      fd := f !d
    end
  done;
  let x, fx = if !fc < !fd then (!c, !fc) else (!d, !fd) in
  { x; fx; iterations = !iter }

let grid_then_golden ?(samples = 64) ?(tol = 1e-10) ~f lo hi =
  if samples < 3 then invalid_arg "Minimize.grid_then_golden: samples < 3";
  let step = (hi -. lo) /. float_of_int (samples - 1) in
  let best_i = ref 0 and best_f = ref infinity in
  for i = 0 to samples - 1 do
    let x = lo +. (float_of_int i *. step) in
    let fx = f x in
    if fx < !best_f then begin
      best_f := fx;
      best_i := i
    end
  done;
  let lo' = lo +. (float_of_int (max 0 (!best_i - 1)) *. step) in
  let hi' = lo +. (float_of_int (min (samples - 1) (!best_i + 1)) *. step) in
  let r = golden_section ~tol ~f lo' hi' in
  if r.fx <= !best_f then r
  else { x = lo +. (float_of_int !best_i *. step); fx = !best_f; iterations = r.iterations }

(* Brent's minimisation on a bracket [a, b] holding an interior-or-boundary
   point [x0] with f(x0) no worse than both ends: successive parabolic
   interpolation through the three lowest points seen so far, falling back
   to a golden-section step whenever the parabola is ill-conditioned, would
   step outside the bracket, or fails to halve the step of two iterations
   ago. Convergence is superlinear on the smooth power curves this repo
   minimises, so the bracket shrinks in a handful of evaluations where
   plain golden section needs ~36. *)
let cgold = 1.0 -. inv_phi

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
  { x = !x; fx = !fx; iterations = !iter }

let seeded_bracket ?(tol = 1e-10) ?(max_iter = 200) ?(grow = 2.0) ~f ~x0
    ~scale lo hi =
  if not (lo < hi) then invalid_arg "Minimize.seeded_bracket: lo >= hi";
  if not (Float.is_finite scale && scale > 0.0) then
    invalid_arg "Minimize.seeded_bracket: scale must be positive and finite";
  if grow <= 1.0 then invalid_arg "Minimize.seeded_bracket: grow <= 1";
  let clamp u = Float.min hi (Float.max lo u) in
  (* Triple (a, m, b) straddling the seed; the initial half-width is the
     caller's local scale (floored so a degenerate scale cannot stall the
     geometric growth). *)
  let m = ref (clamp x0) in
  let h = ref (Float.max scale ((hi -. lo) *. 1e-9)) in
  let a = ref (clamp (!m -. !h)) and b = ref (clamp (!m +. !h)) in
  let fa = ref (f !a) and fm = ref (f !m) and fb = ref (f !b) in
  (* Slide the triple downhill, growing the step geometrically, until the
     middle point is no worse than both ends (unimodality established) or
     the window has been driven into a wall of [lo, hi] — the clamp then
     pins the outer point onto the middle one, which satisfies the exit
     test with the minimum at the boundary. The budget is a safety net for
     adversarial (strongly non-unimodal) objectives: 64 geometric growths
     cover any representable interval. *)
  let budget = ref 64 in
  let bracketed = ref (!fm <= !fa && !fm <= !fb) in
  while (not !bracketed) && !budget > 0 do
    decr budget;
    h := !h *. grow;
    if !fa < !fb then begin
      b := !m;
      fb := !fm;
      m := !a;
      fm := !fa;
      a := clamp (!m -. !h);
      fa := (if !a = !m then !fm else f !a)
    end
    else begin
      a := !m;
      fa := !fm;
      m := !b;
      fm := !fb;
      b := clamp (!m +. !h);
      fb := (if !b = !m then !fm else f !b)
    end;
    bracketed := !fm <= !fa && !fm <= !fb
  done;
  if !bracketed then brent_refine ~tol ~max_iter ~f !a !b !m !fm
  else
    (* Could not establish unimodality around the seed — fall back to the
       robust whole-interval search. *)
    golden_section ~tol ~max_iter ~f lo hi
