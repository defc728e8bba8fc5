type t = {
  alpha : float;
  a : float;
  b : float;
  lo : float;
  hi : float;
  max_error : float;
}

let default_lo = 0.3
let default_hi = 1.0

let fit_uncached ~lo ~hi ~samples ~alpha =
  if alpha <= 0.0 then invalid_arg "Linearization.fit: alpha must be positive";
  if lo <= 0.0 || hi <= lo then
    invalid_arg "Linearization.fit: need 0 < lo < hi";
  let f vdd = vdd ** (1.0 /. alpha) in
  let line = Numerics.Fit.linear_on ~f ~lo ~hi ~samples in
  {
    alpha;
    a = line.slope;
    b = line.intercept;
    lo;
    hi;
    max_error = line.max_residual;
  }

(* The fit is a pure function of (alpha, range, samples) and every caller
   in the hot paths re-fits the same handful of keys, so the results are
   memoised. Invalid arguments raise on every call (errors are not
   cached). *)
let fit_cache =
  Parallel.Memo.create ~name:"linfit" (fun (lo, hi, samples, alpha) ->
      fit_uncached ~lo ~hi ~samples ~alpha)

let fit ?(lo = default_lo) ?(hi = default_hi) ?(samples = 201) ~alpha () =
  Parallel.Memo.find fit_cache (lo, hi, samples, alpha)

let eval_exact t vdd = vdd ** (1.0 /. t.alpha)
let eval_linear t vdd = (t.a *. vdd) +. t.b

let figure2_series t ~samples =
  if samples < 2 then invalid_arg "Linearization.figure2_series: samples < 2";
  let step = (t.hi -. t.lo) /. float_of_int (samples - 1) in
  List.init samples (fun i ->
      let vdd = t.lo +. (float_of_int i *. step) in
      (vdd, eval_exact t vdd, eval_linear t vdd))
