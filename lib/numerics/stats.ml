type summary = {
  count : int;
  mean : float;
  stddev : float;
  min_value : float;
  max_value : float;
}

(* Array-based implementations are the primitives; the historical float
   list API below is kept as thin wrappers for existing callers. The
   numeric results are identical: the Kahan accumulation visits elements
   in the same order either way, and selection returns the same order
   statistics a full sort would. *)

let mean_array xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Kahan.sum_array xs /. float_of_int (Array.length xs)

let stddev_array xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean_array xs in
    let acc = Kahan.create () in
    for i = 0 to n - 1 do
      Kahan.add acc ((xs.(i) -. m) ** 2.0)
    done;
    sqrt (Kahan.sum acc /. float_of_int (n - 1))
  end

let summarize_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let min_value = ref xs.(0) and max_value = ref xs.(0) in
  for i = 1 to n - 1 do
    if xs.(i) < !min_value then min_value := xs.(i);
    if xs.(i) > !max_value then max_value := xs.(i)
  done;
  {
    count = n;
    mean = mean_array xs;
    stddev = stddev_array xs;
    min_value = !min_value;
    max_value = !max_value;
  }

(* Hoare-partition quickselect with median-of-three pivots: places the k-th
   smallest element at index k, partitioning the array around it. Expected
   O(n) versus the O(n log n) full sort the percentile path used before —
   A/B'd by the [diag:percentile-*] benches. *)
let rec select xs lo hi k =
  if lo >= hi then xs.(k)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    (* Median-of-three: order xs.(lo), xs.(mid), xs.(hi), pivot on the
       median moved to the middle. *)
    let swap i j =
      let tmp = xs.(i) in
      xs.(i) <- xs.(j);
      xs.(j) <- tmp
    in
    if xs.(mid) < xs.(lo) then swap mid lo;
    if xs.(hi) < xs.(lo) then swap hi lo;
    if xs.(hi) < xs.(mid) then swap hi mid;
    let pivot = xs.(mid) in
    let i = ref (lo - 1) and j = ref (hi + 1) in
    let continue = ref true in
    let split = ref lo in
    while !continue do
      incr i;
      while xs.(!i) < pivot do
        incr i
      done;
      decr j;
      while xs.(!j) > pivot do
        decr j
      done;
      if !i >= !j then begin
        split := !j;
        continue := false
      end
      else swap !i !j
    done;
    if k <= !split then select xs lo !split k else select xs (!split + 1) hi k
  end

let percentile_array xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let frac = rank -. float_of_int lo in
  let xlo = select xs 0 (n - 1) lo in
  if frac = 0.0 || lo >= n - 1 then xlo
  else begin
    (* After selection every element right of [lo] is >= xlo; the next
       order statistic is their minimum. *)
    let xhi = ref xs.(lo + 1) in
    for i = lo + 2 to n - 1 do
      if xs.(i) < !xhi then xhi := xs.(i)
    done;
    (xlo *. (1.0 -. frac)) +. (!xhi *. frac)
  end

(* List wrappers (historical API). *)

let mean xs =
  match xs with [] -> invalid_arg "Stats.mean: empty" | _ -> mean_array (Array.of_list xs)

let stddev xs =
  match xs with [] | [ _ ] -> 0.0 | _ -> stddev_array (Array.of_list xs)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ -> summarize_array (Array.of_list xs)

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ -> percentile_array (Array.of_list xs) p

let relative_error ~reference value =
  if reference = 0.0 then invalid_arg "Stats.relative_error: zero reference";
  (value -. reference) /. reference

let max_abs_relative_error pairs =
  List.fold_left
    (fun acc (reference, value) ->
      Float.max acc (Float.abs (relative_error ~reference value)))
    0.0 pairs

(* Acklam's rational approximation to the standard normal quantile
   (relative error < 1.2e-9 over (0,1)): the inverse-CDF transform that
   turns low-discrepancy uniforms into Gaussian draws — Box-Muller would
   destroy the Sobol sequence's equidistribution. The coefficient tables
   are module-level so a call allocates nothing. *)
let nq_a =
  [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
     1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]

let nq_b =
  [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
     6.680131188771972e+01; -1.328068155288572e+01 |]

let nq_c =
  [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
     -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]

let nq_d =
  [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
     3.754408661907416e+00 |]

let nq_tail q =
  let c = nq_c and d = nq_d in
  let num =
    ((((((c.(0) *. q) +. c.(1)) *. q) +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
    *. q
    +. c.(5)
  in
  num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)

let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Stats.normal_quantile: p must be in (0, 1)";
  let a = nq_a and b = nq_b in
  let p_low = 0.02425 in
  if p < p_low then nq_tail (sqrt (-2.0 *. log p))
  else if p <= 1.0 -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let num =
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r
      +. a.(5))
      *. q
    in
    num
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
        *. r
       +. 1.0)
  end
  else -.nq_tail (sqrt (-2.0 *. log (1.0 -. p)))
