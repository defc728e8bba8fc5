(** Transistor current and gate delay models — Eqs. 2, 3 and 4 of the paper.

    The on-current is the modified alpha-power law
    [Ion = Io * (alpha * (Vdd - Vth) / (e * n * Ut))^alpha] (Eq. 2), which
    meets the sub-threshold characteristic continuously at Vgs = Vth. The
    DIBL effect lowers the effective threshold linearly with the supply
    (Eq. 3). The gate delay is [t = zeta * Vdd / Ion] (Eq. 4). *)

val vth_effective : Technology.t -> vth0:float -> vdd:float -> float
(** Eq. 3: [Vth = Vth0 - eta * Vdd]. *)

val on_current : Technology.t -> vdd:float -> vth:float -> float
(** Eq. 2 with [vth] the {e effective} threshold (DIBL already applied).
    Defined for [vdd > vth]; @raise Invalid_argument otherwise. *)

val off_current : Technology.t -> vth:float -> float
(** Sub-threshold off-current per cell at Vgs = 0:
    [Io * exp (-vth / (n * Ut))]. *)

val gate_delay : Technology.t -> zeta:float -> vdd:float -> vth:float -> float
(** Eq. 4: [zeta * Vdd / Ion], seconds. [zeta] is the per-gate delay
    coefficient (e.g. {!Technology.gate_zeta}). *)

val delay_scaling : Technology.t -> vdd:float -> vth:float -> float
(** Delay relative to the nominal operating point:
    [t(vdd, vth) / t(vdd_nom, vth_nom_effective)]. Both points use effective
    thresholds; ζ cancels. Used to scale a measured nominal critical path. *)
