(** Reference event-driven gate-level simulator (boxed representation).

    The original record-and-list kernel, kept as the semantic oracle for the
    compiled kernel: the differential suite holds {!Logicsim.Compiled}
    (and the bit-parallel engine) bitwise equal to this implementation — settled
    values, per-cell toggle counts, committed-event counts and glitch
    ratios. Production paths go through {!Logicsim.Simulator} (the
    compiled kernel); this module lives with the tests and the bench A/B
    rows.

    Toggle accounting: a committed 0↔1 transition on a cell's output
    increments that cell's counter (X resolutions are not counted). The
    inertial model cancels a pending transition when a newer evaluation
    reverts it before it commits — pulses shorter than the gate delay are
    swallowed, longer ones propagate as glitches. *)

type t

val create : Netlist.Circuit.t -> t
(** Builds simulation state, initialises ties and flip-flop power-up values
    and settles. @raise Failure on a malformed circuit
    (see {!Netlist.Check}). *)

val circuit : t -> Netlist.Circuit.t
val now : t -> float

val value : t -> Netlist.Circuit.net -> Netlist.Logic.value

val set_input : t -> Netlist.Circuit.net -> Netlist.Logic.value -> unit
(** Schedule a primary-input change at the current time.
    @raise Invalid_argument if the net is not a primary input. *)

val settle : ?event_limit:int -> t -> unit
(** Run the event loop until quiescent; advances [now] past the last event.
    @raise Failure if [event_limit] (default 10 million) is exceeded —
    indicates oscillation. *)

val clock_tick : t -> unit
(** Synchronous clock edge: samples every flip-flop's D simultaneously and
    schedules Q updates after the clk→q delay, iterating a flip-flop list
    precomputed at {!create} (the historical implementation re-filtered
    every cell on every tick). Call {!settle} afterwards. *)

val cell_toggles : t -> int array
(** Per-cell committed toggle counts since the last reset. *)

val total_toggles : t -> int
val reset_toggles : t -> unit

val snapshot_values : t -> Netlist.Logic.value array
(** Copy of all net values (for per-cycle glitch accounting). *)

val events_processed : t -> int
(** Committed events since creation (monotonic; not reset by
    {!reset_toggles}). *)
