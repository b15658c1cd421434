(** Evaluator for the SPARQL fragment over {!Rdf.Graph}.

    Solutions are partial mappings from variables to RDF terms.
    Evaluation is nested-loop: later conjuncts are evaluated under the
    bindings of earlier ones; sub-SELECTs evaluate independently (per
    the SPARQL bottom-up semantics) and merge with the outer solution
    by compatibility; [NOT EXISTS] is correlated with the enclosing
    bindings.  Expression errors (unbound variables, incomparable
    values) make the enclosing [FILTER] reject the solution, as in
    SPARQL's error semantics. *)

module Solution : sig
  type t

  val empty : t
  val find : Ast.var -> t -> Rdf.Term.t option
  val bindings : t -> (Ast.var * Rdf.Term.t) list
  val pp : Format.formatter -> t -> unit
end

val select : Rdf.Graph.t -> Ast.select -> Solution.t list
(** Evaluate a (sub-)SELECT from an empty seed. *)

val ask : Rdf.Graph.t -> Ast.pattern -> bool

val run : Rdf.Graph.t -> Ast.query -> [ `Boolean of bool | `Solutions of Solution.t list ]
