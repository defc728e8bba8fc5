(* Soundness tests for the interval certifier: the certified enclosures
   must contain everything the concrete (scalar) semantics can produce.
   Random points are drawn from a fixed seed so a failure reproduces
   exactly; the oracle is the blind grid solver, deliberately independent
   of both the seeded production solver and the interval machinery. *)

module P = Power_core.Paper_data
module Pl = Power_core.Power_law
module N = Power_core.Numerical_opt
module Ab = Power_core.Absint
module Iv = Numerics.Interval

let flavors =
  [ Device.Technology.ull; Device.Technology.ll; Device.Technology.hs ]

let rel a b = Float.abs (a -. b) /. Float.max 1e-30 (Float.abs b)

let points_per_box = 200

(* Every (f, vdd) sample point of a parameter box must evaluate inside
   the box's certified Ptot range — for all 13 rows x 3 flavors, with a
   +/-5% frequency box and the full supply search range. *)
let test_range_soundness () =
  let rng = Numerics.Rng.create 20060702 in
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let f_box =
            Iv.make (problem.Pl.f *. 0.95) (problem.Pl.f *. 1.05)
          in
          let box = Ab.box ~f:f_box problem in
          let enc = Ab.ptot_over box in
          for _ = 1 to points_per_box do
            let f =
              f_box.Iv.lo
              +. Numerics.Rng.float rng (f_box.Iv.hi -. f_box.Iv.lo)
            in
            let vdd =
              box.Ab.vdd.Iv.lo
              +. Numerics.Rng.float rng
                   (box.Ab.vdd.Iv.hi -. box.Ab.vdd.Iv.lo)
            in
            let p = Pl.objective (Pl.coeffs (Pl.at_frequency problem ~f)) vdd in
            if Float.is_finite p && not (Iv.contains enc p) then
              Alcotest.failf
                "%s/%s: Ptot(f=%.6g, vdd=%.6g) = %.12g outside %s"
                (Device.Technology.name tech)
                row.P.label f vdd p (Iv.to_string enc)
          done)
        P.table1)
    flavors

(* The certified minimiser bracket and minimum enclosure must contain the
   grid-oracle optimum for every paper row x flavor, and the enclosure
   endpoints must bound the oracle power to 1e-6 relative slack. *)
let test_bracket_contains_oracle () =
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let cert = Ab.certify (Ab.box problem) in
          let oracle = Oracles.Grid.optimum problem in
          let fail msg =
            Alcotest.failf "%s/%s: %s (bracket %s, ptot %s)"
              (Device.Technology.name tech)
              row.P.label msg
              (Iv.to_string cert.Ab.vdd_bracket)
              (Iv.to_string cert.Ab.ptot)
          in
          (* The oracle refines to ~1e-9 in vdd; allow it that slop at
             the bracket edges. *)
          let slack = 1e-6 *. Float.max 1.0 oracle.Pl.vdd in
          if
            oracle.Pl.vdd < cert.Ab.vdd_bracket.Iv.lo -. slack
            || oracle.Pl.vdd > cert.Ab.vdd_bracket.Iv.hi +. slack
          then
            fail
              (Printf.sprintf "oracle vdd %.9g outside bracket"
                 oracle.Pl.vdd);
          if oracle.Pl.total < cert.Ab.ptot.Iv.lo *. (1.0 -. 1e-6) then
            fail
              (Printf.sprintf "oracle ptot %.9g below certified lower bound"
                 oracle.Pl.total);
          if oracle.Pl.total > cert.Ab.ptot.Iv.hi *. (1.0 +. 1e-6) then
            fail
              (Printf.sprintf "oracle ptot %.9g above certified upper bound"
                 oracle.Pl.total);
          (* The enclosure should also be useful, not just sound: the
             incumbent is a real point evaluation, so the upper end must
             be within a few percent of the oracle minimum. *)
          if rel cert.Ab.ptot.Iv.hi oracle.Pl.total > 0.05 then
            fail
              (Printf.sprintf "upper bound %.9g is loose vs oracle %.9g"
                 cert.Ab.ptot.Iv.hi oracle.Pl.total))
        P.table1)
    flavors

(* Supply boxes whose lower end is a few ulps above zero: the product
   chi' vdd rounds outward below zero there, and the enclosures must
   still be returned, and sound. Every sampled point value lies inside
   the range enclosure and not below the certified minimum, and no
   sampled value is excluded. *)
let test_tiny_supply_boxes () =
  let rng = Numerics.Rng.create 20061020 in
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          List.iter
            (fun (lo, hi) ->
              let b = Ab.box ~vdd:(Iv.make lo hi) problem in
              let fail what v p =
                Alcotest.failf "%s/%s [%h, %h]: Ptot(%h) = %h %s"
                  (Device.Technology.name tech)
                  row.P.label lo hi v p what
              in
              let enc = Ab.ptot_over b in
              let cert = Ab.certify b in
              let points =
                lo :: hi
                :: List.init 50 (fun _ ->
                       Float.exp
                         (Float.log lo
                         +. Numerics.Rng.float rng (Float.log hi -. Float.log lo)))
              in
              List.iter
                (fun v ->
                  let v = Float.min hi (Float.max lo v) in
                  let p = Pl.objective (Pl.coeffs problem) v in
                  if not (Iv.contains enc p) then
                    fail ("outside " ^ Iv.to_string enc) v p;
                  if p < cert.Ab.ptot.Iv.lo then
                    fail ("below certified " ^ Iv.to_string cert.Ab.ptot) v p;
                  if Ab.excludes b ~threshold:p then fail "excluded" v p)
                points)
            [
              (0x1p-1074, 0.5);
              (0x1p-1074, 3.0);
              (1e-310, 0.3);
              (Float.min_float, 1e-3);
              (0x1p-1074, Float.min_float *. 4.0);
            ])
        P.table1)
    flavors

(* The explorer's certified pruner over a 1k-slice cut of the supply
   axis, for every paper row x flavor: with the grid oracle's total as the
   threshold — an achieved value, so no sound proof can put the slice
   holding the oracle's vdd strictly above it — that slice is never
   excluded, and nearly all others are. *)
let test_excludes_slices () =
  let lo, hi = Pl.vdd_search_range in
  let n = 1000 in
  let step = (hi -. lo) /. float_of_int n in
  List.iter
    (fun tech ->
      List.iter
        (fun (row : P.table1_row) ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let oracle = Oracles.Grid.optimum problem in
          let excluded = ref 0 in
          for i = 0 to n - 1 do
            let a = lo +. (float_of_int i *. step) in
            let vdd = Iv.make a (a +. step) in
            if Ab.excludes (Ab.box ~vdd problem) ~threshold:oracle.Pl.total
            then begin
              incr excluded;
              if Iv.contains vdd oracle.Pl.vdd then
                Alcotest.failf "%s/%s: excluded slice %d holding the optimum"
                  row.label (Device.Technology.name tech) i
            end
          done;
          if !excluded < 990 then
            Alcotest.failf "%s/%s: excluded only %d/%d slices (need >= 990)"
              row.label (Device.Technology.name tech) !excluded n)
        P.table1)
    flavors

(* The closed-form interval lift must enclose the scalar closed form
   across a frequency box, whenever the scalar evaluation is feasible. *)
let test_eq13_enclosure () =
  let rng = Numerics.Rng.create 20060703 in
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let f_box =
            Iv.make (problem.Pl.f *. 0.9) (problem.Pl.f *. 1.1)
          in
          match Power_core.Closed_form.evaluate_iv problem ~f:f_box with
          | Error _ -> ()
          | Ok enc ->
            for _ = 1 to 50 do
              let f =
                f_box.Iv.lo
                +. Numerics.Rng.float rng (f_box.Iv.hi -. f_box.Iv.lo)
              in
              match
                Power_core.Closed_form.evaluate
                  (Pl.at_frequency problem ~f)
              with
              | exception Power_core.Closed_form.Infeasible _ -> ()
              | r ->
                let check what value iv =
                  if not (Iv.contains iv value) then
                    Alcotest.failf "%s/%s: %s %.12g outside %s at f=%.6g"
                      (Device.Technology.name tech)
                      row.P.label what value (Iv.to_string iv) f
                in
                check "vdd_opt" r.Power_core.Closed_form.vdd_opt
                  enc.Power_core.Closed_form.vdd_opt_iv;
                check "vth_opt" r.Power_core.Closed_form.vth_opt
                  enc.Power_core.Closed_form.vth_opt_iv;
                check "ptot" r.Power_core.Closed_form.ptot
                  enc.Power_core.Closed_form.ptot_iv
            done)
        P.table1)
    flavors

(* --- Differential: production certifier vs the reference one --------- *)

module O = Oracles.Certify
module Af = Iv.Affine

let bits = Int64.bits_of_float
let same_float a b = bits a = bits b
let same_iv a b = same_float a.Iv.lo b.Iv.lo && same_float a.Iv.hi b.Iv.hi

let describe (p : Pl.problem) =
  Printf.sprintf "%s/%s f=%h chi'=%h" (Device.Technology.name p.Pl.tech)
    p.Pl.params.Power_core.Arch_params.label p.Pl.f p.Pl.chi_prime

let check_certificate (p : Pl.problem) =
  let b = Ab.box p in
  let c = Ab.certify b and o = O.certify b in
  if
    not
      (same_iv c.Ab.ptot o.Ab.ptot
      && same_iv c.Ab.vdd_bracket o.Ab.vdd_bracket
      && same_float c.Ab.vdd_best o.Ab.vdd_best
      && c.Ab.boxes = o.Ab.boxes && c.Ab.splits = o.Ab.splits
      && c.Ab.prunes = o.Ab.prunes)
  then
    Alcotest.failf
      "%s: certify ptot %s bracket %s best %h (%d/%d/%d) vs reference %s \
       %s best %h (%d/%d/%d)"
      (describe p) (Iv.to_string c.Ab.ptot)
      (Iv.to_string c.Ab.vdd_bracket)
      c.Ab.vdd_best c.Ab.boxes c.Ab.splits c.Ab.prunes
      (Iv.to_string o.Ab.ptot)
      (Iv.to_string o.Ab.vdd_bracket)
      o.Ab.vdd_best o.Ab.boxes o.Ab.splits o.Ab.prunes

(* 200 seeded problems per flavor, each at three frequency decades. *)
let test_certify_seeded () =
  List.iter check_certificate
    (Oracles.Problems.seeded ~seed:20061016 ~n:200 flavors)

(* Booth radix 2/4/8 and pipelined Wallace, 1/2/4/8 copies, every flavor,
   1/4x to 4x the paper's frequency — the problems the explorer's exact
   solves certify. *)
let test_certify_explorer () =
  List.iter check_certificate (Lazy.force Oracles.Problems.explorer)

(* Supply sub-boxes of every shape the branch-and-bound and the explorer
   produce, and some they do not: wide, narrow, a few ulps, points,
   boxes starting at a subnormal, and boxes around the supply where the
   constraint-locus threshold crosses zero (vth = 0 at vdd =
   chi'^(1/(alpha - 1))), where the affine intermediates pass through
   signed zeros and subnormals. *)
let sub_boxes rng (p : Pl.problem) =
  let uniform lo hi = lo +. Numerics.Rng.float rng (hi -. lo) in
  let log_uniform lo hi = Float.exp (uniform (Float.log lo) (Float.log hi)) in
  let around v w = Iv.make (Float.max 1e-300 (v -. w)) (v +. w) in
  let v0 =
    p.Pl.chi_prime ** (1.0 /. (p.Pl.tech.Device.Technology.alpha -. 1.0))
  in
  let random_box () =
    let a = log_uniform 0.05 3.0 and b = log_uniform 0.05 3.0 in
    Iv.make (Float.min a b) (Float.max a b)
  in
  let v = log_uniform 0.05 3.0 in
  [
    random_box ();
    random_box ();
    around v (v *. 1e-3);
    Iv.make v (Float.succ (Float.succ v));
    Iv.of_float v;
    Iv.make (Float.succ 0.0) v;
    Iv.make 1e-310 (Float.min_float *. 4.0);
  ]
  @
  if Float.is_finite v0 && v0 > 0.0 then
    [ around v0 (v0 *. 1e-2); around v0 (v0 *. 1e-9); Iv.of_float v0 ]
  else []

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument e -> Error e

(* Production [f] and reference [g] on one input: equal results, bit for
   bit. Neither may raise: every sub-box is strictly positive, including
   those starting a few ulps above zero. Returns the agreed result. *)
let agree ~fail what show same f g =
  let show = function Ok v -> show v | Error e -> "Invalid_argument " ^ e in
  match (outcome f, outcome g) with
  | Ok a, Ok o when same a o -> a
  | a, o ->
    fail (Printf.sprintf "%s %s vs reference %s" what (show a) (show o))

let show_opt = function None -> "None" | Some iv -> Iv.to_string iv

let same_opt a o =
  match (a, o) with
  | None, None -> true
  | Some a, Some o -> same_iv a o
  | _ -> false

let test_sub_boxes () =
  let rng = Numerics.Rng.create 20061017 in
  let problems =
    Oracles.Problems.seeded ~seed:20061018 ~n:40 flavors
    @ Lazy.force Oracles.Problems.explorer
  in
  List.iter
    (fun (p : Pl.problem) ->
      let f_boxes =
        [ Iv.of_float p.Pl.f; Iv.make (p.Pl.f *. 0.95) (p.Pl.f *. 1.05) ]
      in
      List.iter
        (fun f ->
          List.iter
            (fun vdd ->
              let b = { Ab.problem = p; f; vdd } in
              let fail what =
                Alcotest.failf "%s f=%s vdd=%s: %s" (describe p)
                  (Iv.to_string f) (Iv.to_string vdd) what
              in
              ignore
                (agree ~fail "affine_over" show_opt same_opt
                   (fun () -> Ab.affine_over b)
                   (fun () -> O.affine_over b));
              let enc =
                agree ~fail "ptot_over" Iv.to_string same_iv
                  (fun () -> Ab.ptot_over b)
                  (fun () -> O.ptot_over b)
              in
              List.iter
                (fun scale ->
                  let threshold = enc.Iv.hi *. scale in
                  ignore
                    (agree ~fail
                       (Printf.sprintf "excludes ~threshold:%h" threshold)
                       string_of_bool Bool.equal
                       (fun () -> Ab.excludes b ~threshold)
                       (fun () -> O.excludes b ~threshold)))
                [ 0.5; 0.99; 1.0; 1.01; 2.0; Numerics.Rng.float rng 3.0 ])
            (sub_boxes rng p))
        f_boxes)
    problems

(* A point box's range is its naive enclosure intersected with its affine
   one, and needs no derivative: the endpoint hull of a point is its own
   naive enclosure, which already contains that intersection. The
   derivative-free path shows as allocation: ptot_over of a point box
   allocates no more than the naive and affine enclosures it consists
   of, far less than one derivative enclosure adds. *)
let test_point_box_range () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (p : Pl.problem) ->
      List.iter
        (fun v ->
          let b = Ab.box ~vdd:(Iv.of_float v) p in
          let naive () = O.naive p ~f:b.Ab.f ~vdd:b.Ab.vdd in
          let expected =
            match Ab.affine_over b with
            | None -> naive ()
            | Some aff -> (
              match Iv.intersect (naive ()) aff with
              | Some t -> t
              | None -> naive ())
          in
          let enc = Ab.ptot_over b in
          if not (same_iv enc expected) then
            Alcotest.failf "%s vdd=%h: point range %s, naive/affine %s"
              (describe p) v (Iv.to_string enc) (Iv.to_string expected);
          let parts =
            minor_words naive +. minor_words (fun () -> Ab.affine_over b)
          in
          let deriv = minor_words (fun () -> Ab.dptot_over b) in
          let used = minor_words (fun () -> Ab.ptot_over b) in
          if used > parts +. (deriv /. 2.0) then
            Alcotest.failf
              "%s vdd=%h: point ptot_over allocated %.0f words, its \
               naive+affine parts %.0f and a derivative %.0f"
              (describe p) v used parts deriv)
        [ 0.05; 0.3; 0.45; 1.2; 3.0 ])
    (Oracles.Problems.seeded ~seed:20061019 ~n:5 flavors)

(* Random affine programs over one noise symbol, evaluated by the
   production form and the list-based reference side by side: every
   intermediate must agree in every field, bit for bit. The operands
   include signed zeros, subnormals and huge scales. *)
let same_form (a : Af.form) (o : O.Affine.form) =
  same_float a.Af.mid o.O.Affine.mid
  && same_float a.Af.err o.O.Affine.err
  &&
  match o.O.Affine.coeffs with
  | [] -> a.Af.c = 0.0
  | [ (0, c) ] -> same_float a.Af.c c
  | _ -> false

let test_affine_programs () =
  let rng = Numerics.Rng.create 20061020 in
  let pick a = a.(Numerics.Rng.int rng (Array.length a)) in
  let scalars =
    [| 0.0; -0.0; 1.0; -1.0; 2.5; -0.37; 1e-300; -1e-300; 5e-324; 1e300;
       Float.min_float; 0.1; 1e-15 |]
  in
  let intervals () =
    let a = pick scalars and b = pick scalars in
    let w = Numerics.Rng.float rng 1.0 in
    pick
      [| Iv.make (Float.min a b) (Float.max a b);
         Iv.make 0.3 (0.3 +. w);
         Iv.make (-.w) w;
         Iv.make (Float.pred 0.0) (Float.succ 0.0);
         Iv.of_float (pick scalars) |]
  in
  for trial = 1 to 400 do
    let x = intervals () in
    let pool = ref [ (Af.of_interval x, O.Affine.of_interval ~id:0 x) ] in
    let any () = pick (Array.of_list !pool) in
    for step = 1 to 10 do
      let (a, oa) = any () and (b, ob) = any () in
      let k = pick scalars in
      let s = intervals () in
      let result =
        match Numerics.Rng.int rng 10 with
        | 0 -> (Af.add a b, O.Affine.add oa ob)
        | 1 -> (Af.sub a b, O.Affine.sub oa ob)
        | 2 -> (Af.neg a, O.Affine.neg oa)
        | 3 -> (Af.scale k a, O.Affine.scale k oa)
        | 4 -> (Af.mul a b, O.Affine.mul oa ob)
        | 5 -> (Af.sqr a, O.Affine.sqr oa)
        | 6 -> (Af.add_const k a, O.Affine.add_const k oa)
        | 7 -> (Af.mul_interval s a, O.Affine.mul_interval s oa)
        | 8 ->
          let fmid = intervals () in
          ( Af.mean_value ~x0:k ~fmid ~slope:s a,
            O.Affine.mean_value ~x0:k ~fmid ~slope:s oa )
        | _ -> (Af.const k, O.Affine.const k)
      in
      let r, o = result in
      if not (same_form r o) then
        Alcotest.failf "trial %d step %d: form {%h; %h; %h} vs reference %h/%h"
          trial step r.Af.mid r.Af.c r.Af.err o.O.Affine.mid o.O.Affine.err;
      if
        Float.is_finite r.Af.mid && Float.is_finite (Af.radius r)
        && not (same_iv (Af.to_interval r) (O.Affine.to_interval o))
      then
        Alcotest.failf "trial %d step %d: enclosure %s vs reference %s" trial
          step
          (Iv.to_string (Af.to_interval r))
          (Iv.to_string (O.Affine.to_interval o));
      pool := result :: !pool
    done
  done;
  (* An infinite scale must leave an absent coefficient absent. *)
  let r = Af.scale Float.infinity (Af.const 1.0) in
  Alcotest.(check bool) "inf scale keeps the symbol absent" true (r.Af.c = 0.0);
  Alcotest.(check bool) "inf scale matches reference" true
    (same_form r (O.Affine.scale Float.infinity (O.Affine.const 1.0)))

let () =
  Alcotest.run "certify"
    [
      ( "soundness",
        [
          Alcotest.test_case "random points inside certified Ptot range"
            `Slow test_range_soundness;
          Alcotest.test_case "certified bracket contains grid oracle" `Slow
            test_bracket_contains_oracle;
          Alcotest.test_case "Eq. 13 interval lift encloses scalar form"
            `Quick test_eq13_enclosure;
          Alcotest.test_case "tiny-supply boxes enclose points" `Quick
            test_tiny_supply_boxes;
        ] );
      ( "excludes",
        [
          Alcotest.test_case ">= 990/1k slices, never the optimum" `Quick
            test_excludes_slices;
        ] );
      ( "reference",
        [
          Alcotest.test_case "certify = reference, 200 seeded x 3 x 3" `Slow
            test_certify_seeded;
          Alcotest.test_case "certify = reference, explorer problems" `Slow
            test_certify_explorer;
          Alcotest.test_case "ptot_over/affine/excludes = reference on \
                              sub-boxes" `Slow test_sub_boxes;
          Alcotest.test_case "point box range is naive/affine, no derivative"
            `Quick test_point_box_range;
          Alcotest.test_case "one-symbol affine forms = list-based reference"
            `Quick test_affine_programs;
        ] );
    ]
