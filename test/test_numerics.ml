(* Unit and property tests for the numerics substrate. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* Rng *)

let test_rng_determinism () =
  let a = Numerics.Rng.create 123 and b = Numerics.Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Numerics.Rng.next_int64 a) (Numerics.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Numerics.Rng.create 1 and b = Numerics.Rng.create 2 in
  Alcotest.(check bool)
    "different seeds diverge" false
    (Numerics.Rng.next_int64 a = Numerics.Rng.next_int64 b)

let test_rng_copy () =
  let a = Numerics.Rng.create 5 in
  ignore (Numerics.Rng.next_int64 a);
  let b = Numerics.Rng.copy a in
  Alcotest.(check int64)
    "copy continues identically" (Numerics.Rng.next_int64 a)
    (Numerics.Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Numerics.Rng.create 7 in
  let b = Numerics.Rng.split a in
  Alcotest.(check bool)
    "split stream differs" false
    (Numerics.Rng.next_int64 a = Numerics.Rng.next_int64 b)

let test_rng_int_bounds_raises () =
  let rng = Numerics.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Numerics.Rng.int rng 0))

let test_rng_gaussian_moments () =
  let rng = Numerics.Rng.create 11 in
  let samples =
    List.init 20000 (fun _ -> Numerics.Rng.gaussian rng ~mu:2.0 ~sigma:0.5)
  in
  let summary = Numerics.Stats.summarize samples in
  check_close 0.02 "mean" 2.0 summary.mean;
  check_close 0.02 "stddev" 0.5 summary.stddev

let check_bits name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.17g = %.17g" name a b)
    true
    (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

(* Regression for the Box-Muller second-draw cache: the gaussian stream is
   a deterministic function of the seed, two draws per transform. *)
let test_rng_gaussian_determinism () =
  let a = Numerics.Rng.create 123 and b = Numerics.Rng.create 123 in
  for i = 1 to 100 do
    (* Vary mu/sigma so cached unit normals are re-scaled per call. *)
    let mu = float_of_int (i mod 5) and sigma = 0.5 +. float_of_int (i mod 3) in
    check_bits "same gaussian stream"
      (Numerics.Rng.gaussian a ~mu ~sigma)
      (Numerics.Rng.gaussian b ~mu ~sigma)
  done

(* Reconstruct both branches of one transform from the raw uniforms: the
   first call returns the cosine branch, the second replays the cached
   sine branch under its own mu/sigma, and the third burns fresh
   uniforms. *)
let test_rng_gaussian_box_muller_pair () =
  let g = Numerics.Rng.create 77 in
  let u = Numerics.Rng.copy g in
  let g1 = Numerics.Rng.gaussian g ~mu:0.0 ~sigma:1.0 in
  let g2 = Numerics.Rng.gaussian g ~mu:3.0 ~sigma:2.0 in
  let u1 = Numerics.Rng.float u 1.0 in
  let u2 = Numerics.Rng.float u 1.0 in
  Alcotest.(check bool) "u1 nonzero" true (u1 > 0.0);
  let r = sqrt (-2.0 *. log u1) in
  let theta = 2.0 *. Float.pi *. u2 in
  check_bits "cosine branch" (0.0 +. (1.0 *. r *. cos theta)) g1;
  check_bits "cached sine branch" (3.0 +. (2.0 *. (r *. sin theta))) g2;
  let g3 = Numerics.Rng.gaussian g ~mu:0.0 ~sigma:1.0 in
  let u3 = Numerics.Rng.float u 1.0 in
  let u4 = Numerics.Rng.float u 1.0 in
  Alcotest.(check bool) "u3 nonzero" true (u3 > 0.0);
  let r' = sqrt (-2.0 *. log u3) in
  check_bits "third draw uses fresh uniforms"
    (0.0 +. (1.0 *. r' *. cos (2.0 *. Float.pi *. u4)))
    g3

let test_rng_gaussian_cache_across_copy_and_split () =
  (* A copy carries the pending sine branch... *)
  let a = Numerics.Rng.create 11 in
  ignore (Numerics.Rng.gaussian a ~mu:0.0 ~sigma:1.0);
  let c = Numerics.Rng.copy a in
  check_bits "copy replays pending branch"
    (Numerics.Rng.gaussian a ~mu:0.0 ~sigma:1.0)
    (Numerics.Rng.gaussian c ~mu:0.0 ~sigma:1.0);
  (* ...but a split child starts cache-free: parents with equal states and
     different pending caches produce identical children. *)
  let p1 = Numerics.Rng.create 11 in
  ignore (Numerics.Rng.gaussian p1 ~mu:0.0 ~sigma:1.0);
  let p2 = Numerics.Rng.create 11 in
  ignore (Numerics.Rng.float p2 1.0);
  ignore (Numerics.Rng.float p2 1.0);
  let c1 = Numerics.Rng.split p1 and c2 = Numerics.Rng.split p2 in
  check_bits "split discards pending branch"
    (Numerics.Rng.gaussian c1 ~mu:0.0 ~sigma:1.0)
    (Numerics.Rng.gaussian c2 ~mu:0.0 ~sigma:1.0)

let test_rng_split_nth () =
  let seq = Numerics.Rng.create 5 and indexed = Numerics.Rng.create 5 in
  let probe = Numerics.Rng.copy indexed in
  for n = 0 to 9 do
    let a = Numerics.Rng.split seq in
    let b = Numerics.Rng.split_nth indexed n in
    Alcotest.(check int64)
      (Printf.sprintf "split_nth %d = %dth sequential split" n n)
      (Numerics.Rng.next_int64 a) (Numerics.Rng.next_int64 b)
  done;
  (* split_nth never advances its argument. *)
  Alcotest.(check int64) "parent untouched"
    (Numerics.Rng.next_int64 probe)
    (Numerics.Rng.next_int64 indexed);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_nth: negative index") (fun () ->
      ignore (Numerics.Rng.split_nth (Numerics.Rng.create 1) (-1)))

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Numerics.Rng.create seed in
      let v = Numerics.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_in_range =
  QCheck.Test.make ~name:"Rng.float stays in [0, bound)" ~count:500
    QCheck.(pair small_int pos_float)
    (fun (seed, bound) ->
      QCheck.assume (Float.is_finite bound && bound > 0.0);
      let rng = Numerics.Rng.create seed in
      let v = Numerics.Rng.float rng bound in
      v >= 0.0 && v < bound)

(* Kahan *)

let test_kahan_pathological () =
  (* 1e16 + 1.0 repeated: naive summation loses every unit. *)
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc 1e16;
  for _ = 1 to 1000 do
    Numerics.Kahan.add acc 1.0
  done;
  Numerics.Kahan.add acc (-1e16);
  check_float "compensated" 1000.0 (Numerics.Kahan.sum acc)

let test_kahan_agreement () =
  let xs = List.init 100 (fun i -> float_of_int i *. 0.1) in
  check_close 1e-9 "sum_list = sum_array" (Numerics.Kahan.sum_list xs)
    (Numerics.Kahan.sum_array (Array.of_list xs));
  check_close 1e-9 "sum_by id" (Numerics.Kahan.sum_list xs)
    (Numerics.Kahan.sum_by Fun.id xs)

(* Rootfind *)

let test_bisect_sqrt2 () =
  let root = Numerics.Rootfind.bisect ~f:(fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_close 1e-9 "sqrt 2" (sqrt 2.0) root

let test_brent_cos () =
  let root = Numerics.Rootfind.brent ~f:(fun x -> cos x -. x) 0.0 1.0 in
  check_close 1e-9 "dottie number" 0.7390851332151607 root

let test_brent_linear () =
  let root = Numerics.Rootfind.brent ~f:(fun x -> (2.0 *. x) -. 3.0) 0.0 5.0 in
  check_close 1e-9 "linear root" 1.5 root

let test_no_bracket () =
  Alcotest.(check bool)
    "raises No_bracket" true
    (match Numerics.Rootfind.bisect ~f:(fun x -> (x *. x) +. 1.0) 0.0 1.0 with
    | _ -> false
    | exception Numerics.Rootfind.No_bracket _ -> true)

let test_newton_cbrt () =
  let root =
    Numerics.Rootfind.newton
      ~f:(fun x -> (x ** 3.0) -. 27.0)
      ~df:(fun x -> 3.0 *. x *. x)
      2.0
  in
  check_close 1e-9 "cbrt 27" 3.0 root

let test_newton_diverged_zero_derivative () =
  (* f has no root and a stationary start: the very first step dies, and
     the exception carries where and when. *)
  Alcotest.check_raises "zero derivative"
    (Numerics.Rootfind.Diverged
       { last = 0.0; iterations = 0; reason = "zero derivative" })
    (fun () ->
      ignore
        (Numerics.Rootfind.newton
           ~f:(fun x -> (x *. x) +. 1.0)
           ~df:(fun x -> 2.0 *. x)
           0.0))

let test_newton_diverged_non_finite () =
  (* A huge residual over a tiny slope overflows the step to infinity. *)
  Alcotest.check_raises "non-finite iterate"
    (Numerics.Rootfind.Diverged
       { last = 0.0; iterations = 0; reason = "non-finite iterate" })
    (fun () ->
      ignore
        (Numerics.Rootfind.newton
           ~f:(fun _ -> 1e300)
           ~df:(fun _ -> 1e-300)
           0.0))

let test_finite_guard () =
  let open Numerics.Finite in
  Alcotest.(check bool) "finite ok" true (violation 1.0 = None);
  Alcotest.(check bool) "nan" true (violation Float.nan = Some Nan);
  Alcotest.(check bool) "+inf" true (violation infinity = Some Pos_inf);
  Alcotest.(check bool) "-inf" true (violation neg_infinity = Some Neg_inf);
  check_close 1e-9 "clamp id" 3.5 (clamp 3.5);
  check_close 1.0 "clamp +inf" huge (clamp infinity);
  check_close 1.0 "clamp -inf" (-.huge) (clamp neg_infinity);
  check_close 1e-9 "clamp nan default" 0.0 (clamp Float.nan);
  check_close 1e-9 "clamp nan custom" 7.0 (clamp ~nan:7.0 Float.nan)

let test_expand_bracket () =
  match Numerics.Rootfind.expand_bracket ~f:(fun x -> x -. 10.0) 0.0 1.0 with
  | Some (lo, hi) ->
    Alcotest.(check bool) "brackets the root" true (lo <= 10.0 && hi >= 10.0)
  | None -> Alcotest.fail "expected a bracket"

let prop_brent_polynomial_roots =
  QCheck.Test.make ~name:"brent finds the root of (x - r)^3 + (x - r)"
    ~count:200
    QCheck.(float_range (-50.0) 50.0)
    (fun r ->
      let f x = ((x -. r) ** 3.0) +. (x -. r) in
      let root = Numerics.Rootfind.brent ~f (r -. 60.0) (r +. 60.0) in
      Float.abs (root -. r) < 1e-6)

(* Minimize *)

let test_golden_quadratic () =
  let r =
    Numerics.Minimize.golden_section
      ~f:(fun x -> (x -. Float.pi) ** 2.0)
      0.0 10.0
  in
  check_close 1e-6 "argmin" Float.pi r.x

let test_grid_then_golden_multimodal () =
  (* Two valleys; the global one is at ~7.1. *)
  let f x = ((x -. 7.0) ** 2.0) -. (2.0 *. Float.exp (-.((x -. 2.0) ** 2.0))) in
  let r = Numerics.Minimize.grid_then_golden ~samples:100 ~f 0.0 10.0 in
  check_close 0.01 "finds global valley" 7.0 r.x

let test_grid2_bowl () =
  let r =
    Oracles.Grid2.minimize
      ~f:(fun x y -> ((x -. 1.0) ** 2.0) +. ((y +. 2.0) ** 2.0))
      ~x0_range:(-5.0, 5.0) ~x1_range:(-5.0, 5.0) ~samples:101
  in
  check_close 0.11 "x0" 1.0 r.x0;
  check_close 0.11 "x1" (-2.0) r.x1

let prop_minimum_not_above_samples =
  QCheck.Test.make ~name:"grid_then_golden <= coarse samples" ~count:100
    QCheck.(pair (float_range (-3.0) 3.0) (float_range 0.2 4.0))
    (fun (center, width) ->
      let f x = Float.abs ((x -. center) /. width) ** 1.5 in
      let r = Numerics.Minimize.grid_then_golden ~samples:32 ~f (-5.0) 5.0 in
      (* Compare against an independent coarse scan. *)
      let coarse =
        List.init 50 (fun i -> f (-5.0 +. (float_of_int i *. 10.0 /. 49.0)))
      in
      List.for_all (fun v -> r.fx <= v +. 1e-12) coarse)

(* Fit *)

let test_linear_exact () =
  let pts = List.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) -. 1.0)) in
  let line = Numerics.Fit.linear pts in
  check_close 1e-9 "slope" 2.5 line.slope;
  check_close 1e-9 "intercept" (-1.0) line.intercept;
  check_close 1e-9 "r2" 1.0 line.r_squared;
  check_close 1e-9 "max residual" 0.0 line.max_residual

let test_linear_degenerate () =
  Alcotest.(check bool)
    "single point rejected" true
    (match Numerics.Fit.linear [ (1.0, 1.0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nelder_mead_quadratic () =
  let f v = ((v.(0) -. 3.0) ** 2.0) +. ((v.(1) +. 1.0) ** 2.0) in
  let best, value = Numerics.Fit.nelder_mead ~f [| 0.0; 0.0 |] in
  check_close 1e-4 "x" 3.0 best.(0);
  check_close 1e-4 "y" (-1.0) best.(1);
  check_close 1e-6 "min" 0.0 value

let prop_linear_recovers_line =
  QCheck.Test.make ~name:"linear fit recovers exact lines" ~count:200
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))
    (fun (slope, intercept) ->
      let pts =
        List.init 8 (fun i ->
            let x = float_of_int i in
            (x, (slope *. x) +. intercept))
      in
      let line = Numerics.Fit.linear pts in
      Float.abs (line.slope -. slope) < 1e-6
      && Float.abs (line.intercept -. intercept) < 1e-6)

(* Stats *)

let test_summarize () =
  let s = Numerics.Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.count;
  check_float "mean" 2.5 s.mean;
  check_float "min" 1.0 s.min_value;
  check_float "max" 4.0 s.max_value;
  check_close 1e-9 "stddev" (sqrt (5.0 /. 3.0)) s.stddev

let test_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p0" 10.0 (Numerics.Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Numerics.Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Numerics.Stats.percentile xs 50.0)

let test_relative_error () =
  check_float "signed" (-0.1) (Numerics.Stats.relative_error ~reference:10.0 9.0);
  check_float "max abs" 0.2
    (Numerics.Stats.max_abs_relative_error [ (10.0, 9.0); (10.0, 12.0) ])

(* Interp *)

let test_interp_eval () =
  let t = Numerics.Interp.of_points [ (0.0, 0.0); (1.0, 10.0); (2.0, 0.0) ] in
  check_float "node" 10.0 (Numerics.Interp.eval t 1.0);
  check_float "midpoint" 5.0 (Numerics.Interp.eval t 0.5);
  check_float "extrapolation" (-10.0) (Numerics.Interp.eval t 3.0)

let test_interp_argmin_map () =
  let t = Numerics.Interp.of_function ~f:(fun x -> (x -. 1.0) ** 2.0) ~lo:0.0 ~hi:2.0 ~samples:21 in
  let x, y = Numerics.Interp.argmin t in
  check_close 1e-9 "argmin x" 1.0 x;
  check_close 1e-9 "argmin y" 0.0 y;
  let t2 = Numerics.Interp.map_y (fun y -> y +. 1.0) t in
  check_close 1e-9 "map_y" 1.0 (snd (Numerics.Interp.argmin t2))

let test_interp_rejects_unsorted () =
  Alcotest.(check bool)
    "unsorted rejected" true
    (match Numerics.Interp.of_points [ (1.0, 0.0); (0.5, 1.0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Extra edge cases across the numerics substrate. *)

let test_percentile_validation () =
  Alcotest.(check bool)
    "p out of range" true
    (match Numerics.Stats.percentile [ 1.0 ] 120.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "empty rejected" true
    (match Numerics.Stats.percentile [] 50.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_relative_error_zero_reference () =
  Alcotest.(check bool)
    "zero reference rejected" true
    (match Numerics.Stats.relative_error ~reference:0.0 1.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_stddev_degenerate () =
  check_float "single sample" 0.0 (Numerics.Stats.stddev [ 5.0 ]);
  check_float "empty" 0.0 (Numerics.Stats.stddev [])

let test_nelder_mead_with_scale () =
  let f v = Float.abs (v.(0) -. 100.0) in
  let best, _ =
    Numerics.Fit.nelder_mead ~scale:[| 50.0 |] ~f [| 0.0 |]
  in
  check_close 0.01 "large scale reaches far minima" 100.0 best.(0)

let test_nelder_mead_validation () =
  Alcotest.(check bool)
    "empty start rejected" true
    (match Numerics.Fit.nelder_mead ~f:(fun _ -> 0.0) [||] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "scale length mismatch rejected" true
    (match
       Numerics.Fit.nelder_mead ~scale:[| 1.0; 2.0 |]
         ~f:(fun v -> v.(0))
         [| 0.0 |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_interp_of_function_bounds () =
  let t = Numerics.Interp.of_function ~f:sin ~lo:0.0 ~hi:1.0 ~samples:11 in
  let lo, hi = Numerics.Interp.domain t in
  check_float "lo" 0.0 lo;
  check_float "hi" 1.0 hi;
  Alcotest.(check int) "points" 11 (List.length (Numerics.Interp.points t))

let test_golden_section_iterations_bounded () =
  let r =
    Numerics.Minimize.golden_section ~max_iter:10 ~f:(fun x -> x *. x)
      (-100.0) 100.0
  in
  Alcotest.(check bool) "iterations capped" true (r.iterations <= 10)

let test_grid_then_golden_validation () =
  Alcotest.(check bool)
    "samples < 3 rejected" true
    (match
       Numerics.Minimize.grid_then_golden ~samples:2 ~f:(fun x -> x) 0.0 1.0
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Interval arithmetic: outward rounding, extended division, signed-zero
   and zero-width regressions, and random-point soundness. *)

module Iv = Numerics.Interval

let iv_bounds = Alcotest.(pair (float 0.0) (float 0.0))
let bounds (x : Iv.t) = (x.Iv.lo, x.Iv.hi)

let test_interval_construction () =
  Alcotest.check_raises "nan endpoint"
    (Invalid_argument "Interval.make: NaN endpoint") (fun () ->
      ignore (Iv.make Float.nan 1.0));
  Alcotest.check_raises "inverted endpoints"
    (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (Iv.make 2.0 1.0));
  Alcotest.(check bool) "degenerate ok" true
    (Iv.width (Iv.of_float 3.0) <= 1e-300);
  Alcotest.(check bool) "entire is unbounded" false (Iv.is_finite Iv.entire);
  Alcotest.(check bool) "finite box" true (Iv.is_finite (Iv.make 0.0 1.0))

(* The outward steps must be libm's [nextafter] bit for bit: signed
   zeros, subnormals, the finite extremes, infinities and every NaN
   flavour; both sides of the arithmetic route's 2^-969 threshold and
   every binade edge (where the gap to the upward neighbour halves or
   doubles); then a million seeded random bit patterns, which land on NaNs
   and subnormals too. *)
let test_interval_ulp_steps () =
  let bits = Int64.bits_of_float in
  let check name x =
    Alcotest.(check int64) (name ^ " up") (bits (Float.succ x)) (bits (Iv.up x));
    Alcotest.(check int64) (name ^ " down") (bits (Float.pred x))
      (bits (Iv.down x))
  in
  List.iter
    (fun x ->
      check (Printf.sprintf "%h" x) x;
      check (Printf.sprintf "-(%h)" x) (-.x))
    [ 0.0; 0x1p-1074; 0x1p-1073; 0x0.fffffffffffffp-1022; Float.min_float;
      Float.pred 0x1p-969; 0x1p-969; 1.0; Float.max_float; Float.infinity ];
  List.iter
    (fun b -> check (Printf.sprintf "bits %Lx" b) (Int64.float_of_bits b))
    [ 0x7FF8000000000000L (* quiet NaN *);
      0x7FF0000000000001L (* signalling NaN *);
      0x7FF4000000000123L (* signalling NaN, payload *);
      0xFFF8000000000000L (* negative quiet NaN *);
      0xFFF0000000000001L (* negative signalling NaN *);
      0x7FFFFFFFFFFFFFFFL; 0xFFFFFFFFFFFFFFFFL ];
  let mismatches = ref 0 in
  let compare_at b =
    let x = Int64.float_of_bits b in
    if
      bits (Iv.up x) <> bits (Float.succ x)
      || bits (Iv.down x) <> bits (Float.pred x)
    then incr mismatches
  in
  for e = 0 to 2047 do
    List.iter
      (fun m ->
        let b = Int64.(logor (shift_left (of_int e) 52) m) in
        compare_at b;
        compare_at (Int64.logor b Int64.min_int))
      [ 0L; 1L; 0x8000000000000L; 0xFFFFFFFFFFFFEL; 0xFFFFFFFFFFFFFL ]
  done;
  let threshold = bits 0x1p-969 in
  for k = -1000 to 1000 do
    let b = Int64.add threshold (Int64.of_int k) in
    compare_at b;
    compare_at (Int64.logor b Int64.min_int)
  done;
  let rng = Random.State.make [| 20 |] in
  for _ = 1 to 1_000_000 do
    compare_at (Random.State.bits64 rng)
  done;
  Alcotest.(check int) "edges and random bit patterns" 0 !mismatches

(* Regression: a -0.0 endpoint must be canonicalised to +0.0, else
   extended division flips the sign of the infinite end (1/-0 = -inf). *)
let test_interval_signed_zero_division () =
  let neg_zero = -0.0 in
  let d = Iv.div Iv.one (Iv.make neg_zero 2.0) in
  Alcotest.(check bool) "1/[−0,2] is the upper half-line" true
    (Float.abs (d.Iv.lo -. 0.5) < 1e-12 && d.Iv.hi = Float.infinity);
  let d' = Iv.div Iv.one (Iv.make (-2.0) neg_zero) in
  Alcotest.(check bool) "1/[−2,−0] is the lower half-line" true
    (d'.Iv.lo = Float.neg_infinity && Float.abs (d'.Iv.hi +. 0.5) < 1e-12);
  (* The stored endpoint itself is +0.0, not -0.0. *)
  let z = Iv.make neg_zero neg_zero in
  Alcotest.(check bool) "endpoints canonicalised" false
    (Numerics.Finite.is_signed_zero z.Iv.lo
    || Numerics.Finite.is_signed_zero z.Iv.hi)

let test_interval_division_edges () =
  Alcotest.check_raises "[0,0] denominator"
    (Invalid_argument "Interval.div: division by the zero-width box [0, 0]")
    (fun () -> ignore (Iv.div Iv.one Iv.zero));
  let straddle = Iv.div Iv.one (Iv.make (-1.0) 1.0) in
  Alcotest.check iv_bounds "0 interior: entire"
    (Float.neg_infinity, Float.infinity)
    (bounds straddle);
  let both_zero = Iv.div (Iv.make (-1.0) 1.0) (Iv.make 0.0 2.0) in
  Alcotest.check iv_bounds "0/0 case stays entire"
    (Float.neg_infinity, Float.infinity)
    (bounds both_zero);
  (* Sign-definite denominator through zero-width numerator. *)
  let z = Iv.div Iv.zero (Iv.make 1.0 2.0) in
  Alcotest.(check bool) "0/[1,2] is a 1-ulp box around 0" true
    (Iv.contains z 0.0 && Iv.mag z <= 1e-300)

let test_interval_exp_edges () =
  (* exp of a huge negative bound underflows to 0; the outward step must
     not cross below zero. *)
  let e = Iv.exp (Iv.make (-1e9) (-1e8)) in
  Alcotest.(check bool) "underflow clamped at 0" true (e.Iv.lo >= 0.0);
  let u = Iv.exp Iv.zero in
  Alcotest.(check bool) "exp [0,0] contains 1" true
    (Iv.contains u 1.0 && Iv.width u < 1e-12);
  (* log straddling zero: -inf lower end, finite upper. *)
  let l = Iv.log (Iv.make 0.0 (Stdlib.exp 1.0)) in
  Alcotest.(check bool) "log [0,e]" true
    (l.Iv.lo = Float.neg_infinity && l.Iv.hi >= 1.0 && l.Iv.hi < 1.0 +. 1e-12);
  Alcotest.(check bool) "log of non-positive box rejected" true
    (match Iv.log (Iv.make (-2.0) (-1.0)) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_interval_zero_width_ops () =
  (* Degenerate boxes stay within a few ulps through every operation. *)
  let x = Iv.of_float 0.7 in
  List.iter
    (fun (name, (r : Iv.t), exact) ->
      Alcotest.(check bool)
        (name ^ " contains exact") true (Iv.contains r exact);
      Alcotest.(check bool)
        (name ^ " stays thin") true
        (Iv.width r <= 8.0 *. Float.abs exact *. epsilon_float +. 1e-300))
    [
      ("add", Iv.add x x, 1.4);
      ("mul", Iv.mul x x, 0.49);
      ("sqr", Iv.sqr x, 0.49);
      ("div", Iv.div x x, 1.0);
      ("exp", Iv.exp x, Stdlib.exp 0.7);
      ("log", Iv.log x, Stdlib.log 0.7);
      ("pow", Iv.pow_scalar x 1.3, 0.7 ** 1.3);
    ];
  Alcotest.(check bool) "thin box does not split" true
    (Iv.split (Iv.of_float 0.7) = None)

let test_interval_set_ops () =
  let a = Iv.make 0.0 2.0 and b = Iv.make 1.0 3.0 in
  Alcotest.check iv_bounds "hull" (0.0, 3.0) (bounds (Iv.hull a b));
  Alcotest.check iv_bounds "intersect" (1.0, 2.0)
    (bounds (Iv.meet_exn a b));
  Alcotest.(check bool) "disjoint intersect" true
    (Iv.intersect (Iv.make 0.0 1.0) (Iv.make 2.0 3.0) = None);
  Alcotest.(check bool) "subset" true (Iv.subset b (Iv.make 0.0 4.0));
  Alcotest.(check bool) "not subset" false (Iv.subset b a);
  match Iv.split (Iv.make 0.0 4.0) with
  | None -> Alcotest.fail "expected a split"
  | Some (l, r) ->
    Alcotest.(check bool) "split covers" true
      (l.Iv.lo = 0.0 && r.Iv.hi = 4.0 && l.Iv.hi = r.Iv.lo)

let iv_gen =
  QCheck.(
    map
      (fun (a, b) -> (Float.min a b, Float.max a b))
      (pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0)))

(* Sample t in [0,1] deterministically from the pair to get an interior
   point of each operand box. *)
let interior (lo, hi) t = lo +. (t *. (hi -. lo))

let prop_interval_arith_sound =
  QCheck.Test.make ~name:"interval +,-,*,sqr enclose real arithmetic"
    ~count:500
    QCheck.(triple iv_gen iv_gen (float_range 0.0 1.0))
    (fun ((alo, ahi), (blo, bhi), t) ->
      let a = Iv.make alo ahi and b = Iv.make blo bhi in
      let x = interior (alo, ahi) t and y = interior (blo, bhi) (1.0 -. t) in
      Iv.contains (Iv.add a b) (x +. y)
      && Iv.contains (Iv.sub a b) (x -. y)
      && Iv.contains (Iv.mul a b) (x *. y)
      && Iv.contains (Iv.sqr a) (x *. x)
      && Iv.contains (Iv.neg a) (-.x)
      && Iv.contains (Iv.scale 3.5 a) (3.5 *. x))

let prop_interval_div_sound =
  QCheck.Test.make ~name:"extended division encloses x/y" ~count:500
    QCheck.(triple iv_gen iv_gen (float_range 0.0 1.0))
    (fun ((alo, ahi), (blo, bhi), t) ->
      QCheck.assume (not (blo = 0.0 && bhi = 0.0));
      let a = Iv.make alo ahi and b = Iv.make blo bhi in
      let x = interior (alo, ahi) t and y = interior (blo, bhi) (1.0 -. t) in
      QCheck.assume (y <> 0.0);
      Iv.contains (Iv.div a b) (x /. y))

let prop_interval_transcendental_sound =
  QCheck.Test.make ~name:"exp/log/pow enclose libm" ~count:500
    QCheck.(pair (pair (float_range 0.001 30.0) (float_range 0.001 30.0))
              (float_range 0.0 1.0))
    (fun ((a, b), t) ->
      let lo = Float.min a b and hi = Float.max a b in
      let x = Iv.make lo hi in
      let p = interior (lo, hi) t in
      Iv.contains (Iv.exp x) (Stdlib.exp p)
      && Iv.contains (Iv.log x) (Stdlib.log p)
      && Iv.contains (Iv.pow_scalar x 1.37) (p ** 1.37)
      && Iv.contains (Iv.pow_scalar x (-0.8)) (p ** -0.8))

(* The affine form of (v - v^2/10) over a shared symbol must both enclose
   every point value and beat the naive interval bound (that is the whole
   point of tracking correlation). *)
let prop_affine_sound_and_tighter =
  QCheck.Test.make ~name:"affine forms enclose and tighten" ~count:300
    QCheck.(pair (pair (float_range 0.1 2.0) (float_range 0.1 2.0))
              (float_range 0.0 1.0))
    (fun ((a, b), t) ->
      let lo = Float.min a b and hi = Float.max a b +. 0.1 in
      let v = Iv.make lo hi in
      let av = Iv.Affine.of_interval v in
      let f = Iv.Affine.sub av (Iv.Affine.scale 0.1 (Iv.Affine.sqr av)) in
      let enc = Iv.Affine.to_interval f in
      let p = interior (lo, hi) t in
      let exact = p -. (0.1 *. p *. p) in
      let naive = Iv.sub v (Iv.scale 0.1 (Iv.sqr v)) in
      Iv.contains enc exact && Iv.width enc <= Iv.width naive +. 1e-12)

let test_affine_const_and_interval_roundtrip () =
  let c = Iv.Affine.const 2.5 in
  Alcotest.(check bool) "const has no spread" true
    (Iv.width (Iv.Affine.to_interval c) <= 1e-12);
  let v = Iv.make 1.0 3.0 in
  let f = Iv.Affine.of_interval v in
  Alcotest.(check bool) "of_interval covers the box" true
    (Iv.subset v (Iv.Affine.to_interval f));
  (* Correlation: x - x over a shared symbol collapses to ~0. *)
  let d = Iv.Affine.to_interval (Iv.Affine.sub f f) in
  Alcotest.(check bool) "x - x collapses" true (Iv.mag d < 1e-9)

let test_interval_finite_violation () =
  Alcotest.(check bool) "finite box clean" true
    (Iv.finite_violation (Iv.make 0.0 1.0) = None);
  (match Iv.finite_violation Iv.entire with
  | Some ("lo", Numerics.Finite.Neg_inf) -> ()
  | _ -> Alcotest.fail "entire should report its -inf lower end");
  match Iv.finite_violation (Iv.make 0.0 Float.infinity) with
  | Some ("hi", Numerics.Finite.Pos_inf) -> ()
  | _ -> Alcotest.fail "upper half-line should report its +inf end"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "numerics"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bound validation" `Quick test_rng_int_bounds_raises;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "gaussian determinism" `Quick
            test_rng_gaussian_determinism;
          Alcotest.test_case "gaussian box-muller pairing" `Quick
            test_rng_gaussian_box_muller_pair;
          Alcotest.test_case "gaussian cache vs copy/split" `Quick
            test_rng_gaussian_cache_across_copy_and_split;
          Alcotest.test_case "split_nth" `Quick test_rng_split_nth;
        ]
        @ qsuite [ prop_rng_int_in_range; prop_rng_float_in_range ] );
      ( "kahan",
        [
          Alcotest.test_case "pathological series" `Quick test_kahan_pathological;
          Alcotest.test_case "api agreement" `Quick test_kahan_agreement;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
          Alcotest.test_case "brent cos" `Quick test_brent_cos;
          Alcotest.test_case "brent linear" `Quick test_brent_linear;
          Alcotest.test_case "no bracket" `Quick test_no_bracket;
          Alcotest.test_case "newton cbrt" `Quick test_newton_cbrt;
          Alcotest.test_case "newton diverged: zero derivative" `Quick
            test_newton_diverged_zero_derivative;
          Alcotest.test_case "newton diverged: non-finite" `Quick
            test_newton_diverged_non_finite;
          Alcotest.test_case "finite guard" `Quick test_finite_guard;
          Alcotest.test_case "expand bracket" `Quick test_expand_bracket;
        ]
        @ qsuite [ prop_brent_polynomial_roots ] );
      ( "minimize",
        [
          Alcotest.test_case "golden quadratic" `Quick test_golden_quadratic;
          Alcotest.test_case "multimodal" `Quick test_grid_then_golden_multimodal;
          Alcotest.test_case "grid2 bowl" `Quick test_grid2_bowl;
        ]
        @ qsuite [ prop_minimum_not_above_samples ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_linear_exact;
          Alcotest.test_case "linear degenerate" `Quick test_linear_degenerate;
          Alcotest.test_case "nelder-mead" `Quick test_nelder_mead_quadratic;
        ]
        @ qsuite [ prop_linear_recovers_line ] );
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "relative error" `Quick test_relative_error;
        ] );
      ( "interp",
        [
          Alcotest.test_case "eval" `Quick test_interp_eval;
          Alcotest.test_case "argmin/map" `Quick test_interp_argmin_map;
          Alcotest.test_case "rejects unsorted" `Quick test_interp_rejects_unsorted;
        ] );
      ( "interval",
        [
          Alcotest.test_case "construction" `Quick test_interval_construction;
          Alcotest.test_case "ulp steps = Float.succ/pred" `Quick
            test_interval_ulp_steps;
          Alcotest.test_case "signed-zero division" `Quick
            test_interval_signed_zero_division;
          Alcotest.test_case "division edges" `Quick test_interval_division_edges;
          Alcotest.test_case "exp/log edges" `Quick test_interval_exp_edges;
          Alcotest.test_case "zero-width ops" `Quick test_interval_zero_width_ops;
          Alcotest.test_case "set operations" `Quick test_interval_set_ops;
          Alcotest.test_case "affine basics" `Quick
            test_affine_const_and_interval_roundtrip;
          Alcotest.test_case "finite violations" `Quick
            test_interval_finite_violation;
        ]
        @ qsuite
            [
              prop_interval_arith_sound;
              prop_interval_div_sound;
              prop_interval_transcendental_sound;
              prop_affine_sound_and_tighter;
            ] );
      ( "edge-cases",
        [
          Alcotest.test_case "percentile validation" `Quick test_percentile_validation;
          Alcotest.test_case "relative error zero ref" `Quick
            test_relative_error_zero_reference;
          Alcotest.test_case "stddev degenerate" `Quick test_stddev_degenerate;
          Alcotest.test_case "nelder-mead scale" `Quick test_nelder_mead_with_scale;
          Alcotest.test_case "nelder-mead validation" `Quick
            test_nelder_mead_validation;
          Alcotest.test_case "interp of_function" `Quick test_interp_of_function_bounds;
          Alcotest.test_case "golden iterations" `Quick
            test_golden_section_iterations_bounded;
          Alcotest.test_case "grid validation" `Quick test_grid_then_golden_validation;
        ] );
    ]
