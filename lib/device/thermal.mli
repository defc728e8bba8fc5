(** Temperature dependence and a self-heating fixpoint.

    Sub-threshold leakage grows steeply with temperature (the thermal
    voltage in the exponent plus carrier-density effects), so a circuit's
    optimal working point shifts with die temperature, and the die
    temperature depends on the dissipated power. [self_heating] closes the
    loop: T = T_ambient + R_th · Ptot(T), iterated to a fixpoint. *)

val at_temperature : Technology.t -> temperature:float -> Technology.t
(** The technology re-evaluated at a die temperature: Ut scales linearly
    with T; the off-current magnitude follows
    [Io(T) = Io(T0) · exp((T − T0)/T_leak)] with T_leak ≈ 25 K (roughly a
    decade per 57 K, a typical 0.13 µm sub-threshold figure); the threshold
    falls by ≈ 1 mV/K. *)

type equilibrium = {
  temperature : float;  (** Converged die temperature, K. *)
  ptot : float;  (** Total power at the converged optimum, W. *)
  iterations : int;
}

val self_heating :
  ?ambient:float ->
  ?r_th:float ->
  ?tol:float ->
  ?max_iter:int ->
  optimum_at:(Technology.t -> float) ->
  Technology.t ->
  equilibrium
(** [self_heating ~optimum_at tech] iterates
    T ← T_amb + R_th · optimum_at(tech@T) until the temperature moves less
    than [tol] (default 0.01 K). [r_th] defaults to 40 K/W (a small QFN
    package), [ambient] to 300 K. @raise Failure if not converged within
    [max_iter] (default 100) iterations. *)
