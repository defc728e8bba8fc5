(** Reduced ordered binary decision diagrams and combinational equivalence
    checking.

    Random and corner vectors sample a multiplier's behaviour; a BDD proves
    it. Building both circuits' output functions in one hash-consed manager
    makes functional equivalence a physical-equality check — the classic
    formal way to show the RCA, Wallace, Dadda and Booth cores all compute
    the same product. (Multiplier BDDs grow exponentially with width — the
    textbook worst case — so proofs are run at 8 bits and sampling covers
    16; a node budget aborts gracefully.) *)

type manager
type node

exception Node_limit_exceeded

val create : ?max_nodes:int -> unit -> manager
(** [max_nodes] (default 4_000_000) bounds the unique table;
    @raise Node_limit_exceeded past it. *)

val bdd_false : manager -> node

val var : manager -> int -> node
(** Variable by index; smaller indices test first (the variable order). *)

val bdd_not : manager -> node -> node
val bdd_and : manager -> node -> node -> node
val bdd_or : manager -> node -> node -> node
val bdd_xor : manager -> node -> node -> node
val ite : manager -> node -> node -> node -> node
(** [ite m sel then_ else_]. *)

val equal : node -> node -> bool
(** Functional equivalence — physical equality under hash-consing. *)

val size : manager -> node -> int
(** Nodes reachable from one root. *)

val eval : manager -> node -> (int -> bool) -> bool
(** Evaluate under an assignment of variable indices. *)

(** {1 Circuits} *)

val outputs_of_circuit :
  manager -> var_of_input:(Circuit.net -> int) -> Circuit.t ->
  (string * node) list
(** Symbolically evaluate a combinational circuit: one BDD per primary
    output (by name). @raise Failure on sequential circuits. *)

type verdict =
  | Equivalent
  | Inequivalent of string  (** Name of a differing output. *)
  | Aborted  (** Node budget exhausted. *)

val check_equivalence :
  ?max_nodes:int -> Circuit.t -> Circuit.t -> verdict
(** Match primary inputs and outputs by name (e.g. [a\[3\]], [p\[7\]]);
    inputs are ordered by interleaving bit indices across buses — the
    standard good order for datapath circuits.
    @raise Invalid_argument if the interfaces do not match. *)
