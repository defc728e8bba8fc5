(* Reference certifier: the interval branch-and-bound as it stood before
   the evaluation schedule was tightened, over the general list-based
   affine forms. Every sub-box pays naive, affine and derivative
   enclosures, the derivative twice, and its endpoint enclosures afresh.
   [Power_core.Absint] must return the same certificates, bit for bit;
   test_certify checks that and the bench pair
   diag:certify-explorer-oracle / diag:certify-explorer times it. Built on
   the public [Numerics.Interval] API only. *)

module Iv = Numerics.Interval
module Pl = Power_core.Power_law
module Ab = Power_core.Absint

let up x = Float.succ x
let down x = Float.pred x

(* Affine forms over any number of noise symbols:
   x = mid + sum_i c_i * eps_i + delta, eps_i in [-1, 1], |delta| <= err. *)
module Affine = struct
  type form = {
    mid : float;
    coeffs : (int * float) list; (* sorted by symbol id, no zeros *)
    err : float; (* >= 0 *)
  }

  let slop v = (Float.abs v *. 1e-15) +. 1e-290

  let const x =
    if Float.is_nan x then invalid_arg "Affine.const: NaN";
    { mid = x; coeffs = []; err = 0.0 }

  let of_interval ~id (iv : Iv.t) =
    if not (Iv.is_finite iv) then
      invalid_arg "Affine.of_interval: infinite interval";
    let mid = Iv.mid iv in
    let r = Float.max (up (mid -. iv.Iv.lo)) (up (iv.Iv.hi -. mid)) in
    { mid; coeffs = [ (id, r) ]; err = 0.0 }

  let radius t =
    List.fold_left
      (fun acc (_, c) -> up (acc +. Float.abs c))
      t.err t.coeffs

  (* [down (mid - r), up (mid + r)]: the sum below rounds to exactly
     these endpoints for every non-NaN [mid] and [r >= 0], signed zeros
     included. *)
  let to_interval t =
    let r = radius t in
    Iv.add (Iv.of_float t.mid) (Iv.make (-.r) r)

  let neg t =
    { mid = -.t.mid; coeffs = List.map (fun (i, c) -> (i, -.c)) t.coeffs;
      err = t.err }

  let merge_coeffs f a b =
    let rec go acc a b =
      match (a, b) with
      | [], [] -> List.rev acc
      | (i, c) :: ta, [] | [], (i, c) :: ta ->
        go ((i, f 0.0 c) :: acc) ta []
      | (ia, ca) :: ta, (ib, cb) :: tb ->
        if ia = ib then go ((ia, f ca cb) :: acc) ta tb
        else if ia < ib then go ((ia, f ca 0.0) :: acc) ta b
        else go ((ib, f 0.0 cb) :: acc) a tb
    in
    go [] a b

  let prune_and_slop coeffs err0 =
    List.fold_left
      (fun (cs, err) (i, c) ->
        if c = 0.0 then (cs, err) else ((i, c) :: cs, up (err +. slop c)))
      ([], err0) (List.rev coeffs)

  let add a b =
    let mid = a.mid +. b.mid in
    let coeffs = merge_coeffs ( +. ) a.coeffs b.coeffs in
    let coeffs, err =
      prune_and_slop coeffs (up (up (a.err +. b.err) +. slop mid))
    in
    { mid; coeffs; err }

  let sub a b = add a (neg b)
  let add_const x t = add (const x) t

  let scale k t =
    if Float.is_nan k then invalid_arg "Affine.scale: NaN";
    let mid = k *. t.mid in
    let coeffs = List.map (fun (i, c) -> (i, k *. c)) t.coeffs in
    let coeffs, err =
      prune_and_slop coeffs (up ((Float.abs k *. t.err) +. slop mid))
    in
    { mid; coeffs; err }

  let mul a b =
    let ra = radius a and rb = radius b in
    let mid = a.mid *. b.mid in
    let coeffs =
      merge_coeffs ( +. )
        (List.map (fun (i, c) -> (i, b.mid *. c)) a.coeffs)
        (List.map (fun (i, c) -> (i, a.mid *. c)) b.coeffs)
    in
    let err0 =
      up
        (up ((Float.abs a.mid *. b.err) +. (Float.abs b.mid *. a.err))
        +. up ((ra *. rb) +. slop mid))
    in
    let coeffs, err = prune_and_slop coeffs err0 in
    { mid; coeffs; err }

  let sqr t = mul t t

  let mul_interval (s : Iv.t) t =
    if not (Iv.is_finite s) then
      invalid_arg "Affine.mul_interval: infinite coefficient";
    let sm = Iv.mid s and sr = Iv.rad s in
    let scaled = scale sm t in
    let xmag = Iv.mag (to_interval t) in
    { scaled with err = up (scaled.err +. up ((sr *. xmag) +. slop xmag)) }

  let mean_value ~(x0 : float) ~(fmid : Iv.t) ~(slope : Iv.t) t =
    if Float.is_nan x0 then invalid_arg "Affine.mean_value: NaN x0";
    if not (Iv.is_finite fmid && Iv.is_finite slope) then
      invalid_arg "Affine.mean_value: infinite enclosure";
    let dx = add_const (-.x0) t in
    let lin = mul_interval slope dx in
    let centered = add_const (Iv.mid fmid) lin in
    { centered with err = up (centered.err +. Iv.rad fmid) }
end

module Af = Affine

let vdd_symbol = 0

(* The naive lifts, each evaluating its own chi', locus and leakage
   exponential. *)
(* chi' vdd of two positive boxes, its outward-rounded lower end clamped
   at 0 so a supply box starting a few ulps above 0 has a root. *)
let chi_vdd chi_prime vdd =
  let cv = Iv.mul chi_prime vdd in
  if cv.Iv.lo < 0.0 then Iv.make 0.0 cv.Iv.hi else cv

let naive (t : Pl.problem) ~f ~vdd =
  let chi_prime = Pl.chi_prime_iv t ~f in
  if vdd.Iv.lo <= 0.0 then invalid_arg "naive: vdd box <= 0";
  let vth =
    Iv.sub vdd
      (Iv.pow_scalar (chi_vdd chi_prime vdd) (1.0 /. t.tech.alpha))
  in
  let p = t.params in
  let pstat =
    Iv.scale
      (p.Power_core.Arch_params.n_cells *. p.io_cell)
      (Iv.mul vdd
         (Iv.exp
            (Iv.scale (-1.0 /. Device.Technology.n_ut t.tech) vth)))
  in
  Iv.add (Pl.pdyn_iv t ~f ~vdd) pstat

let dptot (t : Pl.problem) ~f ~vdd =
  if vdd.Iv.lo <= 0.0 then invalid_arg "dptot: vdd box <= 0";
  let p = t.params in
  let n_ut = Device.Technology.n_ut t.tech in
  let chi_prime = Pl.chi_prime_iv t ~f in
  let g = Iv.pow_scalar (chi_vdd chi_prime vdd) (1.0 /. t.tech.alpha) in
  let g' = Iv.scale (1.0 /. t.tech.alpha) (Iv.div g vdd) in
  let vth = Iv.sub vdd g in
  let vth' = Iv.sub Iv.one g' in
  let pdyn' =
    Iv.scale
      (2.0 *. p.Power_core.Arch_params.activity *. p.n_cells *. p.avg_cap)
      (Iv.mul f vdd)
  in
  let pstat' =
    Iv.scale
      (p.Power_core.Arch_params.n_cells *. p.io_cell)
      (Iv.mul
         (Iv.exp (Iv.scale (-1.0 /. n_ut) vth))
         (Iv.sub Iv.one (Iv.scale (1.0 /. n_ut) (Iv.mul vdd vth'))))
  in
  Iv.add pdyn' pstat'

let affine_range (t : Pl.problem) ~f ~vdd =
  if not (Iv.is_finite vdd && Iv.is_finite f) then None
  else
    let p = t.params in
    let n_ut = Device.Technology.n_ut t.tech in
    let chi_prime = Pl.chi_prime_iv t ~f in
    if not (Iv.is_finite chi_prime) then None
    else
      let v = Af.of_interval ~id:vdd_symbol vdd in
      let u = Af.mul_interval chi_prime v in
      let u_iv = Af.to_interval u in
      if u_iv.Iv.lo <= 0.0 then None
      else
        let p_exp = 1.0 /. t.tech.alpha in
        let g_mid = Iv.mid u_iv in
        let g_slope = Iv.scale p_exp (Iv.pow_scalar u_iv (p_exp -. 1.0)) in
        let g_fmid = Iv.pow_scalar (Iv.of_float g_mid) p_exp in
        if not (Iv.is_finite g_slope && Iv.is_finite g_fmid) then None
        else
          let g = Af.mean_value ~x0:g_mid ~fmid:g_fmid ~slope:g_slope u in
          let vth = Af.sub v g in
          let w = Af.scale (-1.0 /. n_ut) vth in
          let w_iv = Af.to_interval w in
          let e_slope = Iv.exp w_iv in
          let e_fmid = Iv.exp (Iv.of_float (Iv.mid w_iv)) in
          if not (Iv.is_finite e_slope && Iv.is_finite e_fmid) then None
          else
            let e =
              Af.mean_value ~x0:(Iv.mid w_iv) ~fmid:e_fmid ~slope:e_slope w
            in
            let pstat =
              Af.scale
                (p.Power_core.Arch_params.n_cells *. p.io_cell)
                (Af.mul v e)
            in
            let pdyn =
              Af.mul_interval
                (Iv.scale
                   (p.Power_core.Arch_params.activity *. p.n_cells
                  *. p.avg_cap)
                   f)
                (Af.sqr v)
            in
            Some (Af.to_interval (Af.add pdyn pstat))

let affine_over (b : Ab.box) = affine_range b.problem ~f:b.f ~vdd:b.vdd

let tighten base candidate =
  match Iv.intersect base candidate with Some t -> t | None -> base

let point_range (b : Ab.box) v = naive b.problem ~f:b.f ~vdd:(Iv.of_float v)

let dptot_over (b : Ab.box) = dptot b.problem ~f:b.f ~vdd:b.vdd

let ptot_over (b : Ab.box) =
  let naive = naive b.problem ~f:b.f ~vdd:b.vdd in
  let enc =
    match affine_range b.problem ~f:b.f ~vdd:b.vdd with
    | Some aff -> tighten naive aff
    | None -> naive
  in
  if Iv.width b.vdd <= 0.0 then enc
  else
    let d = dptot_over b in
    if d.Iv.lo >= 0.0 || d.Iv.hi <= 0.0 then
      tighten enc
        (Iv.hull (point_range b b.vdd.Iv.lo) (point_range b b.vdd.Iv.hi))
    else enc

let c_boxes = Obs.Counter.make "cert.boxes"
let c_splits = Obs.Counter.make "cert.splits"
let c_prunes = Obs.Counter.make "cert.prunes"

let certify ?(tol = 2e-3) ?(max_splits = 20_000) (b : Ab.box) =
  let domain = b.vdd in
  let point_hi v = (point_range b v).Iv.hi in
  let ub = ref (point_hi (Iv.mid domain)) and best = ref (Iv.mid domain) in
  let boxes = ref 0 and splits = ref 0 and prunes = ref 0 in
  let survivors = ref [] in
  let keep vdd enc = survivors := (vdd, enc) :: !survivors in
  let rec go = function
    | [] -> ()
    | vdd :: rest ->
      incr boxes;
      Obs.Counter.incr c_boxes;
      let sub = { b with vdd } in
      let enc = ptot_over sub in
      if enc.Iv.lo > !ub then (
        incr prunes;
        Obs.Counter.incr c_prunes;
        go rest)
      else (
        let pm = point_hi (Iv.mid vdd) in
        if pm < !ub then (
          ub := pm;
          best := Iv.mid vdd);
        let monotone =
          if Iv.width vdd <= tol then `No
          else
            let d = dptot_over sub in
            if d.Iv.lo > 0.0 then `Min_at vdd.Iv.lo
            else if d.Iv.hi < 0.0 then `Min_at vdd.Iv.hi
            else `No
        in
        match monotone with
        | `Min_at edge ->
          incr prunes;
          Obs.Counter.incr c_prunes;
          if edge <= domain.Iv.lo || edge >= domain.Iv.hi then (
            let pt = Iv.of_float edge in
            keep pt (ptot_over { b with vdd = pt }));
          go rest
        | `No ->
          if Iv.width vdd <= tol || !splits >= max_splits then (
            keep vdd enc;
            go rest)
          else (
            match Iv.split vdd with
            | None ->
              keep vdd enc;
              go rest
            | Some (l, r) ->
              incr splits;
              Obs.Counter.incr c_splits;
              go (l :: r :: rest)))
  in
  go [ domain ];
  let kept = List.filter (fun (_, enc) -> enc.Iv.lo <= !ub) !survivors in
  let ptot, vdd_bracket =
    match kept with
    | [] -> (Iv.make (Float.min !ub !ub) !ub, domain)
    | (v0, e0) :: tl ->
      let lo, bracket =
        List.fold_left
          (fun (lo, h) (v, e) -> (Float.min lo e.Iv.lo, Iv.hull h v))
          (e0.Iv.lo, v0) tl
      in
      (Iv.make (Float.min lo !ub) !ub, bracket)
  in
  {
    Ab.ptot;
    vdd_bracket;
    vdd_best = !best;
    boxes = !boxes;
    splits = !splits;
    prunes = !prunes;
  }

let excludes ?(tol = 2e-3) ?(max_splits = 32) (b : Ab.box) ~threshold =
  if not (threshold > 0.0 && Float.is_finite threshold) then false
  else begin
    let p = b.problem.Pl.params in
    let k =
      p.Power_core.Arch_params.activity *. p.n_cells *. p.avg_cap
      *. b.f.Iv.lo
    in
    let domain =
      if k <= 0.0 then b.vdd
      else
        let guess = Float.sqrt (threshold /. k) *. 1.0001 in
        if guess >= b.vdd.Iv.hi || guess <= b.vdd.Iv.lo then b.vdd
        else
          let clip = Iv.make guess b.vdd.Iv.hi in
          let pdyn_at = Pl.pdyn_iv b.problem ~f:b.f ~vdd:clip in
          if pdyn_at.Iv.lo > threshold then Iv.make b.vdd.Iv.lo guess
          else b.vdd
    in
    let lower vdd =
      let naive = naive b.problem ~f:b.f ~vdd in
      match affine_range b.problem ~f:b.f ~vdd with
      | Some aff -> Float.max naive.Iv.lo aff.Iv.lo
      | None -> naive.Iv.lo
    in
    let splits = ref 0 in
    let rec go = function
      | [] -> true
      | vdd :: rest ->
        Obs.Counter.incr c_boxes;
        if lower vdd > threshold then (
          Obs.Counter.incr c_prunes;
          go rest)
        else if Iv.width vdd <= tol || !splits >= max_splits then false
        else (
          match Iv.split vdd with
          | None -> false
          | Some (l, r) ->
            incr splits;
            Obs.Counter.incr c_splits;
            go (l :: r :: rest))
    in
    go [ domain ]
  end
