(** The paper's thirteen 16-bit multiplier architectures, in Table 1 order. *)

type entry = {
  label : string;  (** Exact Table 1 row label. *)
  build : unit -> Spec.t;  (** Generators are lazy — building all thirteen
      costs a few hundred thousand cells. *)
}

val entries : entry list
(** Thirteen entries, Table 1 order. *)

val extensions : entry list
(** Architectures beyond the paper's set (radix-4 Booth, Dadda, and their
    parallelised versions) — extra points for the model to score. *)

val find : string -> entry
(** Lookup by label, searching {!entries} then {!extensions}.
    @raise Not_found. *)

val build : ?bits:int -> string -> Spec.t
(** Memoised build by label (default width {!default_bits}): the first call
    generates and cleans the netlist, later calls — from any domain —
    return the same physically-shared, read-only spec.
    @raise Not_found on an unknown label.
    @raise Invalid_argument for a width other than {!default_bits}. *)

val default_bits : int
(** 16 — the operand width used throughout the paper. *)
