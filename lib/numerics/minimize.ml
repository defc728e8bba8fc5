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

let seeded_bracket ?(tol = 1e-10) ?(max_iter = 200) ?(grow = 2.0) ~f ~refine
    ~x0 ~scale lo hi =
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
  if !bracketed then refine !a !b !m !fm
  else
    (* Could not establish unimodality around the seed — fall back to the
       robust whole-interval search. *)
    golden_section ~tol ~max_iter ~f lo hi
