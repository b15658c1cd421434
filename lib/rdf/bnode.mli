(** Blank nodes.

    A blank node is an existential: it has document-scoped identity but
    no global name.  We represent it by its label.  Graph {e union}
    (the operation the paper uses, §2) preserves blank node identity
    across graphs, so equal labels denote the same node. *)

type t

val of_string : string -> t
(** [of_string "b0"] is the blank node labelled [_:b0]. *)

val label : t -> string

val fresh : unit -> t
(** A process-unique generated blank node ([_:genN]).  Used by the
    Turtle parser for anonymous nodes. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints [_:label]. *)
