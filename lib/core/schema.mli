(** Shape Expression Schemas — the pair (Λ, δ) of §8.

    A schema is a shape definition function δ mapping labels to
    regular shape expressions, presented as rules [λ ↦ e].
    Definitions may be mutually recursive (Example 13). *)

type t

(** A shape: a triple-expression body plus an optional constraint on
    the focus node itself (ShEx's node constraints at shape level —
    e.g. "a Person is an IRI"). *)
type shape = { focus : Value_set.obj option; expr : Rse.t }

val make : (Label.t * Rse.t) list -> (t, string) result
(** Builds a schema from rules.  Fails on duplicate labels, on a shape
    reference to a label with no rule, and on non-stratified negation —
    a reference under [!] that participates in a recursive cycle (see
    {!Strata}).  Negation {e across} strata is fine: a shape may negate
    references to shapes it does not mutually recurse with. *)

val make_exn : (Label.t * Rse.t) list -> t
(** Like {!make}, raising [Invalid_argument] on error. *)

val make_shapes : (Label.t * shape) list -> (t, string) result
(** Like {!make} but with focus-node constraints. *)

val find : t -> Label.t -> Rse.t option
(** δ(l) — the triple expression only. *)

val find_shape : t -> Label.t -> shape option
(** The full shape, including the focus constraint. *)

val find_exn : t -> Label.t -> Rse.t

val labels : t -> Label.t list
(** Λ, in rule order. *)

val rules : t -> (Label.t * Rse.t) list
(** (label, triple expression) pairs in rule order. *)

val shapes : t -> (Label.t * shape) list
(** Full shapes (with focus constraints), in rule order. *)

val mem : t -> Label.t -> bool

val dependencies : t -> Label.t -> Label.Set.t
(** Labels reachable from [l] through shape references (including [l]
    itself). *)

val stratum : t -> Label.t -> int
(** The label's negation stratum (0-based; see {!Strata}).  Validation
    settles lower strata before evaluating a label, so negated
    references always see final verdicts. *)

val pp : Format.formatter -> t -> unit
(** Prints rules as [⟨l⟩ ↦ e], one per line. *)
