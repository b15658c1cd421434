(** Stratification of schemas with negated shape references.

    The greatest-fixpoint semantics of recursion (§8) needs verdicts to
    be monotone in the reference answers, which fails when a shape
    reference occurs under negation {e on a dependency cycle}.  The
    classic remedy (as in stratified Datalog) is to allow negation only
    {e across} strata: the label dependency graph is condensed into
    strongly connected components; a negative edge inside a component
    is rejected, and otherwise every label gets a stratum number such
    that positive dependencies stay within or below its stratum and
    negative dependencies go strictly below.

    {!Validate} then settles lower strata completely before evaluating
    a pair, so negation is only ever applied to already-final
    verdicts. *)

type t

val compute : (Label.t * Rse.t) list -> (t, string) result
(** Build the stratification of a rule set.  Fails with a descriptive
    message when some reference under negation participates in a
    dependency cycle.  All referenced labels must have rules (checked
    by {!Schema.make} beforehand). *)

val stratum : t -> Label.t -> int
(** The label's stratum, [0]-based from the bottom.  Unknown labels
    are reported as stratum [0]. *)
