(** ShExJ: the JSON interchange syntax for ShEx schemas.

    Exports {!Shex.Schema} values to a ShExJ-compatible JSON document
    and imports them back.  The encoding follows the ShExJ vocabulary
    where our constructs map directly:

    - [‖] → [EachOf], [|] → [OneOf], arcs → [TripleConstraint]
      (with [predicate], [inverse], [valueExpr], [min]/[max]);
    - [e⋆], [e⁺], [e?] → [min]/[max] on the wrapped expression
      ([max = -1] is unbounded, as in ShExJ);
    - value classes → [NodeConstraint] with [datatype], [nodeKind] or
      [values] (IRIs, literals and [IriStem]s);
    - shape references → JSON strings (shapeExprRef);
    - shapes are emitted with ["closed": true] since regular shape
      expressions are closed by construction.

    Two constructs have no ShExJ counterpart and use a vendor type
    tag, accepted on import: the complement extension
    (["type": "Not"]) and the unsatisfiable shape (["type": "Empty"]).

    Round-trip guarantee: [import_string (export_string s)] succeeds
    and the result is semantically equivalent to [s] — same verdict on
    every neighbourhood.  Structural equality is {e not} guaranteed:
    the or-factoring normalisation is not associative, so
    re-normalising the imported expression can factor alternative
    groups differently (the property suite decides the semantic
    equivalence exhaustively over a finite triple universe). *)

val export_string : ?minify:bool -> Shex.Schema.t -> string
(** Raises [Invalid_argument] on shapes with non-singleton predicate
    sets, which ShExJ cannot express. *)

val import_string : string -> (Shex.Schema.t, string) result
