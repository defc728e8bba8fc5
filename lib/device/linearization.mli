(** Linearisation of Vdd^(1/α) — Eq. 7 and Figure 2 of the paper.

    Over a practical supply range, [Vdd^(1/alpha)] is close to a straight
    line [A * Vdd + B]. The constants A and B feed the closed-form optimum
    (Eqs. 8–13). The paper fits over Vdd in \[0.3, 1.0\] V and reports
    A = 0.671, B = 0.347 for α = 1.86. *)

type t = {
  alpha : float;
  a : float;  (** Slope A of Eq. 7. *)
  b : float;  (** Intercept B of Eq. 7. *)
  lo : float;  (** Lower end of the fitting range, V. *)
  hi : float;  (** Upper end of the fitting range, V. *)
  max_error : float;  (** Largest |Vdd^(1/α) − (A·Vdd + B)| on the range. *)
}

val default_lo : float
(** 0.3 V — the paper's fitting range lower bound. *)

val default_hi : float
(** 1.0 V — the paper's fitting range upper bound. *)

val fit : ?lo:float -> ?hi:float -> ?samples:int -> alpha:float -> unit -> t
(** Least-squares fit of [Vdd^(1/alpha)] on [\[lo, hi\]]
    (defaults: the paper's 0.3–1.0 V, 201 samples). *)

val eval_exact : t -> float -> float
(** [vdd ** (1 / alpha)]. *)

val eval_linear : t -> float -> float
(** [A * vdd + B]. *)

val figure2_series : t -> samples:int -> (float * float * float) list
(** [(vdd, exact, linear)] triples over the fitting range — the two curves of
    Figure 2. *)
