(** Generic pipeline-register insertion (retiming by stage assignment).

    Given a combinational region whose cells carry stage numbers that never
    decrease along signal flow, inserts [stage(consumer) − stage(producer)]
    flip-flops on every crossing edge and brings every listed output to the
    final stage. Functional behaviour is preserved cycle-for-cycle apart
    from the added latency — a property the test suite checks by streaming
    random operands through pipelined and flat multipliers. *)

module C := Netlist.Circuit

val insert :
  C.t ->
  stage_of_cell:(C.cell_id -> int option) ->
  max_stage:int ->
  outputs:C.net array ->
  C.net array
(** [insert circuit ~stage_of_cell ~max_stage ~outputs] rewires in place and
    returns the delayed outputs (each now at [max_stage]). Cells for which
    [stage_of_cell] is [None] (input registers, pre-existing logic) count as
    stage-0 producers and are never rewired.
    @raise Invalid_argument if a consumer's stage is lower than its
    producer's, or a stage exceeds [max_stage]. *)

val by_depth :
  C.t -> stages:int -> outputs:C.net array -> C.net array
(** Stage assignment from static timing: cell stage =
    ⌊arrival / (critical_depth / stages)⌋. Arrival times are monotone along
    every edge, so the assignment is always valid — any combinational
    region can be pipelined this way without structural knowledge (the
    generalisation of the RCA-specific cuts). Returns the delayed outputs
    at the final stage. *)
