(** The [--explain] mode: pretty-print the derivative walk behind a
    verdict, in the style of the paper's Example 8–12 tables.

    For each (node, shape) association the walk renders
    {!Shex.Validate.trace} (the session's own neighbourhood, its
    settled verdicts answering the shape references) as

    {v
    check <node>@<Shape>
      e ≃ {t₁, t₂, …}
      ⇔ ∂t₁(e) ≃ {t₂, …}
      ⇔ …
      ⇔ ν(e') ⇔ true
      PASS
    v}

    with, on failure, the structured blame set
    ({!Shex.Explain.to_string}) on the verdict line. *)

val pp_report :
  Format.formatter ->
  session:Shex.Validate.session ->
  (Rdf.Term.t * Shex.Label.t) list ->
  unit
(** One [check] block per association, blank-line free, in
    order. *)
