(** Zero-delay reference evaluator.

    Evaluates a circuit cycle-accurately in topological order, ignoring all
    gate delays. Glitches never exist here, so it cannot measure activity —
    its job is to provide an independent oracle: after the event-driven
    {!Logicsim.Simulator} settles, every net must agree with this evaluator
    (differential testing), and multi-cycle behaviour must match tick for
    tick. *)

type state
(** Immutable snapshot: one value per net. *)

val initial : Netlist.Circuit.t -> state
(** Ties driven, flip-flops at their power-up values, primary inputs X,
    everything else propagated. @raise Failure on a combinational cycle. *)

val value : state -> Netlist.Circuit.net -> Netlist.Logic.value

val set_inputs :
  Netlist.Circuit.t ->
  state ->
  (Netlist.Circuit.net * Netlist.Logic.value) list ->
  state
(** Apply primary-input values and re-propagate combinationally.
    @raise Invalid_argument if a net is not a primary input. *)

val clock : Netlist.Circuit.t -> state -> state
(** One synchronous clock edge: every flip-flop captures its D
    simultaneously, then the combinational fabric re-propagates. *)

val values : state -> Netlist.Logic.value array
(** Copy of the full net-value vector. *)
