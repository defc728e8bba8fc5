(* Abstract interpretation of the on-constraint power model over parameter
   boxes. The concrete semantics is Power_law.objective; the
   abstract domain is outward-rounded intervals (Numerics.Interval)
   tightened with affine mean-value forms. Everything returned here is a
   machine-checked enclosure: no result depends on executing the solver. *)

module Iv = Numerics.Interval
module Af = Numerics.Interval.Affine

type box = {
  problem : Power_law.problem;
  f : Iv.t;
  vdd : Iv.t;
}

let box ?f ?vdd (problem : Power_law.problem) =
  let f = match f with Some f -> f | None -> Iv.of_float problem.f in
  let vdd =
    match vdd with
    | Some v -> v
    | None ->
      let lo, hi = Power_law.vdd_search_range in
      Iv.make lo hi
  in
  if f.Iv.lo <= 0.0 then invalid_arg "Absint.box: f box <= 0";
  if vdd.Iv.lo <= 0.0 then invalid_arg "Absint.box: vdd box <= 0";
  { problem; f; vdd }

(* What every enclosure over a supply sub-box needs that depends only on
   the problem and the f box: computed once per query, not once per
   sub-box. *)
type model = {
  problem : Power_law.problem;
  f : Iv.t;
  chi_prime : Iv.t;  (* chi' over the f box *)
  inv_alpha : float;
  n_ut : float;
  k_dyn : Iv.t;  (* a N C f *)
  k_stat : float;  (* N io *)
}

let model (b : box) =
  let t = b.problem in
  let p = t.params in
  {
    problem = t;
    f = b.f;
    chi_prime = Power_law.chi_prime_iv t ~f:b.f;
    inv_alpha = 1.0 /. t.tech.alpha;
    n_ut = Device.Technology.n_ut t.tech;
    k_dyn =
      Iv.scale (p.Arch_params.activity *. p.n_cells *. p.avg_cap) b.f;
    k_stat = p.Arch_params.n_cells *. p.io_cell;
  }

(* Affine evaluation of Ptot over a supply box: vdd is the one noise
   symbol, so the vth = vdd - (chi' vdd)^(1/alpha) cancellation — which
   naive intervals lose entirely — survives as a linear correlation. The
   two nonlinear links (the alpha-power root and the leakage exponential)
   go through mean-value forms with interval-enclosed slopes. Returns None
   when an intermediate leaves the regime where the tightening is valid
   (the caller falls back to the naive enclosure, which is always sound). *)
let affine_range m vdd =
  if not (Iv.is_finite vdd && Iv.is_finite m.f && Iv.is_finite m.chi_prime)
  then None
  else
    let v = Af.of_interval vdd in
    let u = Af.mul_interval m.chi_prime v in
    let u_iv = Af.to_interval u in
    if u_iv.Iv.lo <= 0.0 then None
    else
      let g_mid = Iv.mid u_iv in
      let g_slope =
        Iv.scale m.inv_alpha (Iv.pow_scalar u_iv (m.inv_alpha -. 1.0))
      in
      let g_fmid = Iv.pow_scalar (Iv.of_float g_mid) m.inv_alpha in
      if not (Iv.is_finite g_slope && Iv.is_finite g_fmid) then None
      else
        let g = Af.mean_value ~x0:g_mid ~fmid:g_fmid ~slope:g_slope u in
        let vth = Af.sub v g in
        let w = Af.scale (-1.0 /. m.n_ut) vth in
        let w_iv = Af.to_interval w in
        let e_slope = Iv.exp w_iv in
        let e_fmid = Iv.exp (Iv.of_float (Iv.mid w_iv)) in
        if not (Iv.is_finite e_slope && Iv.is_finite e_fmid) then None
        else
          let e =
            Af.mean_value ~x0:(Iv.mid w_iv) ~fmid:e_fmid ~slope:e_slope w
          in
          let pstat = Af.scale m.k_stat (Af.mul v e) in
          let pdyn = Af.mul_interval m.k_dyn (Af.sqr v) in
          Some (Af.to_interval (Af.add pdyn pstat))

let affine_over (b : box) = affine_range (model b) b.vdd

let tighten base candidate =
  match Iv.intersect base candidate with Some t -> t | None -> base

(* Naive enclosures: the locus terms of a box are evaluated once and
   feed both its Ptot and, if it survives, its derivative enclosure. *)
let locus m vdd = Power_law.locus_iv m.problem ~chi_prime:m.chi_prime vdd
let naive m l = Power_law.ptot_on_constraint_iv m.problem ~f:m.f l
let deriv m l = Power_law.dptot_on_constraint_iv m.problem ~f:m.f l
let point m v = naive m (locus m (Iv.of_float v))

(* The naive enclosure [naive] of a box, intersected with its affine one. *)
let enclose m vdd naive =
  match affine_range m vdd with Some aff -> tighten naive aff | None -> naive

(* A sign-definite derivative makes Ptot monotone on the box: its exact
   range is spanned by the two endpoint values. *)
let monotone d = d.Iv.lo >= 0.0 || d.Iv.hi <= 0.0

(* The range enclosure of [ptot_over]. A point box skips the derivative:
   its endpoint hull is its naive enclosure, which already contains
   [enc]. *)
let range m vdd =
  let l = locus m vdd in
  let enc = enclose m vdd (naive m l) in
  if vdd.Iv.lo = vdd.Iv.hi || not (monotone (deriv m l)) then enc
  else tighten enc (Iv.hull (point m vdd.Iv.lo) (point m vdd.Iv.hi))

let ptot_over (b : box) = range (model b) b.vdd

let dptot_over (b : box) =
  let m = model b in
  deriv m (locus m b.vdd)

type certificate = {
  ptot : Iv.t;
  vdd_bracket : Iv.t;
  vdd_best : float;
  boxes : int;
  splits : int;
  prunes : int;
}

let c_boxes = Obs.Counter.make "cert.boxes"
let c_splits = Obs.Counter.make "cert.splits"
let c_prunes = Obs.Counter.make "cert.prunes"

(* A supply sub-box on the work list with the point enclosures at its two
   ends. A child takes one end from its parent and the other from the
   parent's midpoint evaluation; the root's ends are evaluated only if a
   monotone box needs them. *)
type sub = { vdd : Iv.t; at_lo : Iv.t Lazy.t; at_hi : Iv.t Lazy.t }

(* Interval branch-and-bound over the supply axis. Invariants:
   - [ub] is always an achieved value: the .hi of a point evaluation, so
     min Ptot <= ub with certainty even over a non-degenerate f box;
     [best] is the supply of that evaluation.
   - a sub-box is discarded only when its certified lower bound exceeds
     [ub] (cannot contain the minimiser), or when its derivative is
     certified sign-definite and it is interior (the minimum then sits on
     a shared endpoint owned by the neighbouring box; domain-edge boxes
     collapse to the degenerate edge point instead of vanishing).
   Hence every minimiser of Ptot over the box survives in some kept leaf:
   the hull of the kept leaves is a certified bracket, and
   [min lo over kept leaves, ub] a certified enclosure of the minimum. *)
let certify ?(tol = 2e-3) ?(max_splits = 20_000) (b : box) =
  let m = model b in
  let domain = b.vdd in
  let root_mid = point m (Iv.mid domain) in
  let ub = ref root_mid.Iv.hi and best = ref (Iv.mid domain) in
  let boxes = ref 0 and splits = ref 0 and prunes = ref 0 in
  let survivors = ref [] in
  let keep vdd enc = survivors := (vdd, enc) :: !survivors in
  let prune () =
    incr prunes;
    Obs.Counter.incr c_prunes
  in
  (* [mid] is the point enclosure at the box midpoint when already known
     (the root's, evaluated for the first incumbent). *)
  let rec go mid = function
    | [] -> ()
    | s :: rest ->
      incr boxes;
      Obs.Counter.incr c_boxes;
      let vdd = s.vdd in
      (* Each tightening below only raises .lo, so a box the naive bound
         prunes needs no affine form, one naive ∩ affine prunes no
         derivative. *)
      let l = locus m vdd in
      let nv = naive m l in
      let enc = if nv.Iv.lo > !ub then nv else enclose m vdd nv in
      if enc.Iv.lo > !ub then (
        prune ();
        go None rest)
      else
        let d = deriv m l in
        let enc =
          if vdd.Iv.lo < vdd.Iv.hi && monotone d then
            tighten enc
              (Iv.hull (Lazy.force s.at_lo) (Lazy.force s.at_hi))
          else enc
        in
        if enc.Iv.lo > !ub then (
          prune ();
          go None rest)
        else
          let pm =
            match mid with Some pm -> pm | None -> point m (Iv.mid vdd)
          in
          if pm.Iv.hi < !ub then (ub := pm.Iv.hi; best := Iv.mid vdd);
          let min_at =
            if Iv.width vdd <= tol then None
            else if d.Iv.lo > 0.0 then Some (vdd.Iv.lo, s.at_lo)
            else if d.Iv.hi < 0.0 then Some (vdd.Iv.hi, s.at_hi)
            else None
          in
          match min_at with
          | Some (edge, at_edge) ->
            prune ();
            (* Interior edges are shared with a neighbouring sub-box which
               keeps covering them; domain edges have no neighbour and
               stay as degenerate leaves. *)
            if edge <= domain.Iv.lo || edge >= domain.Iv.hi then (
              let pt = Iv.of_float edge in
              keep pt (enclose m pt (Lazy.force at_edge)));
            go None rest
          | None -> (
            if Iv.width vdd <= tol || !splits >= max_splits then (
              keep vdd enc;
              go None rest)
            else
              match Iv.split vdd with
              | None ->
                keep vdd enc;
                go None rest
              | Some (l, r) ->
                incr splits;
                Obs.Counter.incr c_splits;
                let at_mid = Lazy.from_val pm in
                go None
                  ({ vdd = l; at_lo = s.at_lo; at_hi = at_mid }
                  :: { vdd = r; at_lo = at_mid; at_hi = s.at_hi }
                  :: rest))
  in
  go (Some root_mid)
    [
      {
        vdd = domain;
        at_lo = lazy (point m domain.Iv.lo);
        at_hi = lazy (point m domain.Iv.hi);
      };
    ];
  let kept = List.filter (fun (_, enc) -> enc.Iv.lo <= !ub) !survivors in
  let ptot, vdd_bracket =
    match kept with
    | [] ->
      (* Unreachable when the invariants hold — the minimiser's leaf
         always survives — but degrade soundly rather than raise. *)
      (Iv.make (Float.min !ub !ub) !ub, domain)
    | (v0, e0) :: tl ->
      let lo, bracket =
        List.fold_left
          (fun (lo, h) (v, e) -> (Float.min lo e.Iv.lo, Iv.hull h v))
          (e0.Iv.lo, v0) tl
      in
      (Iv.make (Float.min lo !ub) !ub, bracket)
  in
  { ptot; vdd_bracket; vdd_best = !best; boxes = !boxes; splits = !splits;
    prunes = !prunes }

(* One-sided exclusion test: a certified "min Ptot over the box is
   strictly above [threshold]". Two structural cheapenings over a
   two-sided [certify]:

   - pdyn clip. Pdyn = K vdd^2 with K = a N Cavg f.lo is a monotone lower
     envelope of Ptot, so any vdd with K vdd^2 > threshold cannot hold a
     sub-threshold point. One square root locates the crossing; a single
     interval evaluation at the clip point verifies it outward-rounded,
     after which the branch-and-bound only ever works the [lo, clip]
     prefix of the supply axis.

   - lower-bound-only leaves. Exclusion never needs the achieved upper
     values [certify] maintains, so leaves evaluate the naive/affine .lo
     alone and skip the derivative enclosure and the endpoint-spanned
     refinement that [ptot_over] pays for two-sided tightness.

   [true] is the proof (candidate cannot reach the threshold); [false] is
   conservative — an inconclusive leaf at the tol/budget floor, never an
   unsound exclusion. *)
let excludes ?(tol = 2e-3) ?(max_splits = 32) (b : box) ~threshold =
  if not (threshold > 0.0 && Float.is_finite threshold) then false
  else begin
    let p = b.problem.Power_law.params in
    let k =
      p.Arch_params.activity *. p.n_cells *. p.avg_cap *. b.f.Iv.lo
    in
    let domain =
      if k <= 0.0 then b.vdd
      else
        let guess = Float.sqrt (threshold /. k) *. 1.0001 in
        if guess >= b.vdd.Iv.hi || guess <= b.vdd.Iv.lo then b.vdd
        else
          let clip = Iv.make guess b.vdd.Iv.hi in
          let pdyn_at = Power_law.pdyn_iv b.problem ~f:b.f ~vdd:clip in
          if pdyn_at.Iv.lo > threshold then Iv.make b.vdd.Iv.lo guess
          else b.vdd
    in
    let m = model b in
    (* Naive first: the affine form can only raise its .lo. *)
    let lower vdd =
      let lo = (naive m (locus m vdd)).Iv.lo in
      if lo > threshold then lo
      else
        match affine_range m vdd with
        | Some aff -> Float.max lo aff.Iv.lo
        | None -> lo
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
