(** Shape typings τ — mappings from nodes to sets of shape labels (§8).

    The paper defines the empty typing , the extension [n → s : τ]
    and the combination [τ₁ ⊎ τ₂]; a typing is the result of the type
    inference judgement [Γ ⊢ n ≃s l ⇒ τ]. *)

type t

val empty : t
val is_empty : t -> bool

val add : Rdf.Term.t -> Label.t -> t -> t
(** [n → l : τ]. *)

val singleton : Rdf.Term.t -> Label.t -> t

type ascending
(** A typing built from nodes in ascending order, in linear time (a fold
    of {!add} copies a map path per node). *)

val ascending : ascending
val push : Rdf.Term.t -> Label.Set.t -> ascending -> ascending
(** [push n ls b] types [n] with [ls]; [n] must be greater than every
    node pushed before.  An empty [ls] adds nothing. *)

val of_ascending : ascending -> t

val combine : t -> t -> t
(** [τ₁ ⊎ τ₂] — pointwise union of label sets. *)

val mem : Rdf.Term.t -> Label.t -> t -> bool
val labels_of : Rdf.Term.t -> t -> Label.Set.t
val nodes : t -> Rdf.Term.t list

val cardinal : t -> int
(** Number of (node, label) pairs. *)

val to_list : t -> (Rdf.Term.t * Label.t) list
(** All pairs in (node, label) order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
