(* Outward-rounded interval arithmetic. OCaml gives no access to the FPU
   rounding mode, so every operation widens its round-to-nearest result by
   one ulp per side (two for the libm transcendentals, whose last-ulp
   correctness is not guaranteed): the returned interval always encloses
   the exact real result. Endpoints may be infinite (an unbounded
   enclosure carries no information but stays sound); NaN endpoints are
   rejected at construction.

   The one-ulp steps equal libm's [nextafter] ([Float.succ]/[Float.pred])
   bit for bit, NaN included, without its C call, which dominated the
   certifier's arithmetic. [up] takes one of two exact routes:
   - 2^-969 <= |x| <= max_float: e = |x| * 2^-53 * (1 + 2^-52) is a normal
     double strictly between one half and three halves of the gap from x
     to its upward neighbour (an ulp of |x|, or half of one when x is a
     negative power of two), and the next double past that neighbour is at
     least one more gap away, so the round-to-nearest sum x + e is the
     neighbour itself (from max_float it overflows to +inf, as
     [nextafter] does).
   - Elsewhere, an integer step on the IEEE-754 bit pattern: a positive
     finite x steps up by one and a negative one down by one (the
     encoding is sign-magnitude), +inf stays, both zeros give the least
     subnormal, and a NaN comes back as glibc's [x + y]. *)

type t = { lo : float; hi : float }

exception Empty

let[@inline] up x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= Float.max_float then
    x +. (a *. 0x1.0000000000001p-53)
  else if x > 0.0 then
    if x = Float.infinity then x
    else Int64.float_of_bits (Int64.succ (Int64.bits_of_float x))
  else if x < 0.0 then Int64.float_of_bits (Int64.pred (Int64.bits_of_float x))
  else if x = 0.0 then 0x1p-1074
  else x +. Float.infinity

let[@inline] down x = -.up (-.x)

(* libm results are within 1 ulp of exact on every platform this repo
   targets; widening by two keeps the enclosure sound with margin. *)
let down2 x = down (down x)
let up2 x = up (up x)

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN endpoint";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo = Finite.canonical_zero lo; hi = Finite.canonical_zero hi }

let of_float x =
  if Float.is_nan x then invalid_arg "Interval.of_float: NaN";
  let x = Finite.canonical_zero x in
  { lo = x; hi = x }

let entire = { lo = Float.neg_infinity; hi = Float.infinity }
let zero = { lo = 0.0; hi = 0.0 }
let one = { lo = 1.0; hi = 1.0 }

let width t = up (t.hi -. t.lo)
let mid t = if t.lo = Float.neg_infinity && t.hi = Float.infinity then 0.0
            else 0.5 *. (t.lo +. t.hi)
let rad t = Float.max (up (mid t -. t.lo)) (up (t.hi -. mid t))
let mag t = Float.max (Float.abs t.lo) (Float.abs t.hi)
let contains t x = t.lo <= x && x <= t.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi
let is_finite t = Float.is_finite t.lo && Float.is_finite t.hi

let finite_violation t =
  match Finite.violation t.lo with
  | Some v -> Some ("lo", v)
  | None -> (
    match Finite.violation t.hi with
    | Some v -> Some ("hi", v)
    | None -> None)

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let meet_exn a b =
  match intersect a b with Some t -> t | None -> raise Empty

let neg t = { lo = -.t.hi; hi = -.t.lo }
let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }
let sub a b = add a (neg b)

let add_scalar t x = add t (of_float x)

(* Endpoint products: the IEEE convention 0 * inf = NaN is wrong for
   interval endpoints, where a zero endpoint annihilates. *)
let mul_ep a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

let mul a b =
  let p1 = mul_ep a.lo b.lo and p2 = mul_ep a.lo b.hi in
  let p3 = mul_ep a.hi b.lo and p4 = mul_ep a.hi b.hi in
  {
    lo = down (Float.min (Float.min p1 p2) (Float.min p3 p4));
    hi = up (Float.max (Float.max p1 p2) (Float.max p3 p4));
  }

(* [mul] by the point [k, k]: its four endpoint products are two. *)
let scale k t =
  if Float.is_nan k then invalid_arg "Interval.scale: NaN";
  let p1 = mul_ep k t.lo and p2 = mul_ep k t.hi in
  { lo = down (Float.min p1 p2); hi = up (Float.max p1 p2) }

let sqr t =
  let a = Float.abs t.lo and b = Float.abs t.hi in
  let m = Float.max a b in
  let lo = if contains t 0.0 then 0.0 else Float.min a b in
  { lo = Float.max 0.0 (down (lo *. lo)); hi = up (m *. m) }

(* Division. Endpoints are canonical (+0.0 only, enforced by [make] /
   [of_float] and preserved by the arithmetic above through
   [Finite.canonical_zero] on construction), so a denominator touching
   zero does it with the positive zero and the quotient endpoints below
   keep their signs. Zero-width boxes divide like scalars; a denominator
   containing zero in its interior yields the whole line, one touching
   zero at an end yields a half-line (extended interval division). *)
let div_ep a b = if a = 0.0 && b <> 0.0 then 0.0 else a /. b

let div a b =
  if b.lo = 0.0 && b.hi = 0.0 then
    invalid_arg "Interval.div: division by the zero-width box [0, 0]"
  else if b.lo > 0.0 || b.hi < 0.0 then
    (* Sign-definite denominator: min/max over the four quotients. *)
    let q1 = div_ep a.lo b.lo and q2 = div_ep a.lo b.hi in
    let q3 = div_ep a.hi b.lo and q4 = div_ep a.hi b.hi in
    {
      lo = down (Float.min (Float.min q1 q2) (Float.min q3 q4));
      hi = up (Float.max (Float.max q1 q2) (Float.max q3 q4));
    }
  else if a.lo <= 0.0 && a.hi >= 0.0 then
    (* 0/0 is possible somewhere in the box: no information. *)
    entire
  else if b.lo = 0.0 then
    (* Denominator in [0, b.hi]: one-signed numerator escapes to +/-inf
       on the zero side. *)
    if a.lo > 0.0 then { lo = down (a.lo /. b.hi); hi = Float.infinity }
    else { lo = Float.neg_infinity; hi = up (a.hi /. b.hi) }
  else if b.hi = 0.0 then
    if a.lo > 0.0 then { lo = Float.neg_infinity; hi = up (a.lo /. b.lo) }
    else { lo = down (a.hi /. b.lo); hi = Float.infinity }
  else
    (* Zero interior to the denominator. *)
    entire

let inv t = div one t

(* A zero-width box makes one libm call: the same argument gives the
   same result at both ends. *)
let exp t =
  let e_lo = Float.exp t.lo in
  let e_hi = if t.hi = t.lo then e_lo else Float.exp t.hi in
  {
    (* e^x > 0 always: the one-ulp outward step below a tiny positive
       result may cross zero, clamp it back (0-width boxes at large
       negative x evaluate exp to exactly 0.0). *)
    lo = Float.max 0.0 (down2 e_lo);
    hi = up2 e_hi;
  }

let log t =
  if t.hi <= 0.0 then invalid_arg "Interval.log: non-positive interval";
  {
    lo = (if t.lo <= 0.0 then Float.neg_infinity else down2 (Float.log t.lo));
    hi = up2 (Float.log t.hi);
  }

(* x^y for x >= 0 and a scalar exponent — monotone in x for either sign
   of y. Covers the alpha-power uses: (chi' * v)^(1/alpha) with
   1/alpha in (0, 1], overdrive^alpha with alpha in [1, 2]. *)
let pow_scalar t y =
  if Float.is_nan y then invalid_arg "Interval.pow_scalar: NaN exponent";
  if t.lo < 0.0 then
    invalid_arg "Interval.pow_scalar: negative base interval";
  if y = 0.0 then one
  else
    (* One libm call per distinct endpoint, as in [exp]. *)
    let p_hi = t.hi ** y in
    let p_lo = if t.lo = t.hi then p_hi else t.lo ** y in
    if y > 0.0 then
      {
        lo = (if t.lo = 0.0 then 0.0 else Float.max 0.0 (down2 p_lo));
        hi = up2 p_hi;
      }
    else if t.lo = 0.0 then
      { lo = Float.max 0.0 (down2 p_hi); hi = Float.infinity }
    else { lo = Float.max 0.0 (down2 p_hi); hi = up2 p_lo }

let split t =
  let m = mid t in
  if not (t.lo < m && m < t.hi) then None
  else Some ({ lo = t.lo; hi = m }, { lo = m; hi = t.hi })

let to_string t = Printf.sprintf "[%.17g, %.17g]" t.lo t.hi
let pp ppf t = Format.fprintf ppf "[%g, %g]" t.lo t.hi

(* --- Affine forms ---------------------------------------------------- *)

(* x = mid + c * eps + delta, eps in [-1, 1], |delta| <= err. One noise
   symbol is all the certifier needs — a box has one correlated variable,
   the supply voltage — and it keeps the linear correlation between
   quantities derived from it, which is what defeats the dependency
   blow-up of plain intervals on expressions like v - (chi' v)^(1/alpha)
   where v appears several times. [c = 0.0] means the form does not depend
   on the symbol. Every operation inflates [err] by an outward bound on its
   own rounding, so [to_interval] is a sound enclosure. *)
module Affine = struct
  type interval = t

  type form = {
    mid : float;
    c : float; (* 0.0: no dependence on the symbol *)
    err : float; (* >= 0 *)
  }

  (* One-ulp-grade rounding slop of a computed double: 1e-15 > 2^-52
     relative, the absolute floor covers subnormals. *)
  let slop v = (Float.abs v *. 1e-15) +. 1e-290

  (* An absent coefficient stays absent: an infinite [k] must not turn it
     into NaN. *)
  let times k c = if c = 0.0 then 0.0 else k *. c

  (* A result coefficient's own rounding, charged to the error term. *)
  let with_coeff mid c err =
    if c = 0.0 then { mid; c; err } else { mid; c; err = up (err +. slop c) }

  let const x =
    if Float.is_nan x then invalid_arg "Affine.const: NaN";
    { mid = x; c = 0.0; err = 0.0 }

  let of_interval (iv : interval) =
    if not (is_finite iv) then
      invalid_arg "Affine.of_interval: infinite interval";
    let mid = mid iv in
    let r = Float.max (up (mid -. iv.lo)) (up (iv.hi -. mid)) in
    { mid; c = r; err = 0.0 }

  let radius t = if t.c = 0.0 then t.err else up (t.err +. Float.abs t.c)

  let to_interval t =
    let r = radius t in
    { lo = down (t.mid -. r); hi = up (t.mid +. r) }

  let neg t = { mid = -.t.mid; c = -.t.c; err = t.err }

  let add a b =
    let mid = a.mid +. b.mid in
    with_coeff mid (a.c +. b.c) (up (up (a.err +. b.err) +. slop mid))

  let sub a b = add a (neg b)
  let add_const x t = add (const x) t

  let scale k t =
    if Float.is_nan k then invalid_arg "Affine.scale: NaN";
    let mid = k *. t.mid in
    with_coeff mid (times k t.c) (up ((Float.abs k *. t.err) +. slop mid))

  (* General product: linear part exact in the noise symbol, the
     second-order term bounded by the product of the two radii. *)
  let mul a b =
    let ra = radius a and rb = radius b in
    let mid = a.mid *. b.mid in
    with_coeff mid
      (times b.mid a.c +. times a.mid b.c)
      (up
         (up ((Float.abs a.mid *. b.err) +. (Float.abs b.mid *. a.err))
         +. up ((ra *. rb) +. slop mid)))

  let sqr t = mul t t

  (* Multiplication by an interval coefficient: s * x with s = [s] known
     only as an enclosure. Centre on mid(s); the slope uncertainty
     rad(s) scales the full magnitude of x into the error term. *)
  let mul_interval (s : interval) t =
    if not (is_finite s) then
      invalid_arg "Affine.mul_interval: infinite coefficient";
    let sm = mid s and sr = rad s in
    let scaled = scale sm t in
    let xmag = mag (to_interval t) in
    { scaled with err = up (scaled.err +. up ((sr *. xmag) +. slop xmag)) }

  (* Mean-value form of a differentiable univariate g at [x]:
       g(x) = g(x0) + g'(xi) * (x - x0)   for some xi between x0 and x,
     so with [fmid] enclosing g(x0) and [slope] enclosing g' over the
     whole range of [x], [fmid + slope * (x - x0)] encloses g(x) while
     keeping the linear correlation with x. Tight whenever the derivative
     varies little over the box — exactly the regime where plain interval
     evaluation of v - g(v) blows up. *)
  let mean_value ~(x0 : float) ~(fmid : interval) ~(slope : interval) t =
    if Float.is_nan x0 then invalid_arg "Affine.mean_value: NaN x0";
    if not (is_finite fmid && is_finite slope) then
      invalid_arg "Affine.mean_value: infinite enclosure";
    let dx = add_const (-.x0) t in
    let lin = mul_interval slope dx in
    let centered = add_const (mid fmid) lin in
    { centered with err = up (centered.err +. rad fmid) }
end
