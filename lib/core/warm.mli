(** Warm-store glue: the model fingerprint and the exact codecs that let
    {!Explorer}, {!Numerical_opt} and the serve layer persist results
    across runs without ever compromising bitwise reproducibility.

    Two invariants carry the whole design:

    - {b Exact keys.} Store keys are full serializations ([%h] hex
      floats) of every quantity the solver reads — never lossy hashes —
      so a hit can only come from the byte-identical problem, and the
      solver being deterministic, the stored bits equal what a cold
      re-solve would produce.
    - {b Fingerprint invalidation.} {!fingerprint} digests every
      calibration and technology constant plus a codec version; the store
      header carries it, so any model change discards stale entries by
      construction. *)

val codec_version : string
(** The revision of the record codecs and of the solver whose bits they
    store: raised whenever a cold re-solve would no longer reproduce a
    stored record bit for bit. *)

val fingerprint : unit -> string
(** Hex FNV-1a-64 digest over {!codec_version}, every float field of the
    three {!Device.Technology} flavors and the paper's reference
    frequency. *)

val default_path : unit -> string
(** [$OPTPOWER_STORE] when set, else [".optpower-store"]. *)

val open_store :
  ?readonly:bool -> ?path:string -> unit -> Store.t option
(** Open the warm store at [path] (default {!default_path}) with the
    current {!fingerprint}. Filesystem errors degrade to [None] (cold),
    never raise. *)

(** {2 Namespaces} *)

val ns_chars : string
(** Substrate characterizations, keyed by generator parameters. *)

val ns_opt : string
(** Exact optima, keyed by the full problem serialization. *)

val ns_ledger : string
(** Certified lower bounds, keyed by (design, frequency slice). *)

val ns_solve : string
(** Retired namespace of standalone solver optima (problem plus search
    bracket, no certificate). Nothing writes it any more: a seeded solve
    costs about what a store lookup and put do. Records left in older
    stores are inert. Still exported for the benchmark's store statistics,
    which list every namespace. *)

(** {2 Codecs — exact hex-float round-trips} *)

val encode_floats : float list -> string
val decode_floats : string -> float list option

val design_key : Power_law.problem -> string
(** Serialization of the technology and architecture fields only — the
    frequency-independent identity of a design. *)

val problem_key : Power_law.problem -> string
(** {!design_key} plus [f] and [chi_prime]: the exact solve identity. *)

val problem_key_of_design : design_key:string -> Power_law.problem -> string
(** {!problem_key} from an already formatted [design_key] (which must be
    [design_key p]): the same bytes, without formatting the technology
    and architecture fields again. *)

val encode_opt : (Power_law.breakdown * float) option -> string
(** A stored exact-solve outcome: the optimum plus its certified lower
    bound, or the infeasibility marker. *)

val decode_opt : string -> (Power_law.breakdown * float) option option
(** [None] = undecodable; [Some None] = recorded infeasible. *)
