(** One- and two-dimensional scalar minimisation.

    The numerical optimal-working-point search (Section 3 of the paper) is a
    one-dimensional minimisation of total power over Vdd, with Vth tied to Vdd
    by the timing constraint; Figure 1 needs the full two-dimensional map. *)

type result = {
  x : float;  (** Argmin. *)
  fx : float;  (** Minimum value. *)
  iterations : int;
}

val golden_section :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> result
(** [golden_section ~f lo hi] minimises a unimodal [f] on [\[lo, hi\]].
    @param tol absolute tolerance on [x] (default [1e-10]). *)

val grid_then_golden :
  ?samples:int -> ?tol:float -> f:(float -> float) -> float -> float -> result
(** [grid_then_golden ~f lo hi] scans [samples] equally spaced points
    (default 64) to localise the global minimum basin, then refines with
    golden section on the bracketing sub-interval. Robust to mild
    non-unimodality. *)

val seeded_bracket :
  ?tol:float ->
  ?max_iter:int ->
  ?grow:float ->
  f:(float -> float) ->
  refine:(float -> float -> float -> float -> result) ->
  x0:float ->
  scale:float ->
  float ->
  float ->
  result
(** [seeded_bracket ~f ~refine ~x0 ~scale lo hi] minimises [f] on
    [\[lo, hi\]] starting from an analytic seed: a bracket of half-width
    [scale] is centred on [x0] (clamped into the interval) and slid
    downhill with the step growing by [grow] (default 2.0) each move until
    the middle point [m] is no worse than both ends [a], [b] — local
    unimodality is established — and the result is then
    [refine a b m (f m)]. A window driven into an interval end exits the
    expansion with the minimum pinned at that boundary ([m] equal to it).
    If no bracket can be established (strongly non-unimodal objective),
    falls back to {!golden_section} over the whole interval with [tol]
    (absolute in [x], default [1e-10]) and [max_iter].
    @raise Invalid_argument if [lo >= hi], [scale] is not positive and
    finite, or [grow <= 1]. *)
