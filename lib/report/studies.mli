(** Renderers for the ablation / extension studies (beyond the paper's own
    tables — see {!Power_core.Ablation}). *)

val render_dibl : Power_core.Ablation.dibl_row list -> string
val render_glitch : Power_core.Ablation.glitch_row list -> string
val render_lin_range : Power_core.Ablation.lin_range_row list -> string
val render_frequency : Power_core.Ablation.freq_point list -> string
val render_width : Power_core.Ablation.width_row list -> string

val render_extensions :
  ?cycles:int -> Device.Technology.t -> f:float -> string
(** Score the extension architectures (Booth, Dadda, parallel versions)
    with the from-scratch pipeline next to their paper-set baselines. *)

val render_variation : Power_core.Variation.result -> string

val render_yield : Power_core.Variation.yield_result -> string
(** Streamed million-die yield study: distribution table (moments +
    sketch quantiles) for the optimal power and supply, then the
    yield-vs-power-budget curve with an ASCII bar per spec. *)

val render_energy :
  Power_core.Energy.sweep_point list -> Power_core.Energy.mep -> string

val render_thermal :
  (float * Device.Thermal.equilibrium) list -> string
(** Rows of (thermal resistance, equilibrium). *)
