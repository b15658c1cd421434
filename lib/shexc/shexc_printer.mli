(** Printer from core schemas back to ShEx compact syntax.

    Covers every construct the parser can produce, each printed as
    the node it is, [{m,n}] included, so parse ∘ print is the identity
    on parsed schemas.  Value sets
    built programmatically with {!Shex.Value_set.Obj_not} have no
    ShExC notation and raise [Invalid_argument]. *)

val schema_to_string :
  ?namespaces:Rdf.Namespace.t -> Shex.Schema.t -> string
(** Render a schema.  [namespaces] (default {!Rdf.Namespace.default})
    drives prefix abbreviation; used prefixes are declared up front. *)

val expr_to_string :
  ?namespaces:Rdf.Namespace.t -> Shex.Rse.t -> string
(** Render one shape body (without the braces). *)
