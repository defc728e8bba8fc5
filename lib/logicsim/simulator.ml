(* The production simulator is the compiled allocation-free kernel; the
   original boxed implementation lives on in the test oracles as
   [Oracles.Reference], which the differential tests hold this kernel
   bitwise equal to. *)
include Compiled
