(** Structured failure explanations — the blame set of a verdict.

    The paper's walks (Examples 8–12) don't just say {e whether} a
    neighbourhood matches, they show {e why}: the step where the
    derivative collapsed to ∅ names the offending triple (Example 12),
    and a non-nullable final residual names the obligations still open
    (Example 11).  This module extracts that structure from a
    derivative trace, replacing the free-form reason strings that
    reports used to carry.  "Semantics and Validation of Shapes
    Schemas for RDF" (Boneva et al.) calls these the witness/blame
    notions of a validation report.

    An explanation is a value, so tools can act on it ({!to_json});
    {!to_string} renders the exact human-readable messages earlier
    releases produced, so existing output is unchanged. *)

(** A shape reference the blamed triple travelled along whose far node
    failed the referenced shape — the refuted hypothesis of a
    recursive check. *)
type ref_failure = { ref_node : Rdf.Term.t; ref_label : Label.t }

type t =
  | No_shape of { node : Rdf.Term.t; label : Label.t }
      (** the schema has no rule δ(label) *)
  | Node_constraint of { node : Rdf.Term.t; constraint_ : Value_set.obj }
      (** the focus node itself fails the shape's node constraint *)
  | Blame_triple of {
      node : Rdf.Term.t;
      label : Label.t;
      triple : Neigh.dtriple;  (** the triple that drove the residual to ∅ *)
      residual : Rse.t;  (** the expression {e before} the fatal step *)
      ref_failures : ref_failure list;
          (** recursive hypotheses whose failure made the triple
              unmatchable (empty when the triple simply fits no arc) *)
    }
  | Missing_arcs of {
      node : Rdf.Term.t;
      label : Label.t;
      residual : Rse.t;  (** the final, non-nullable residual *)
      missing : Rse.arc list;
          (** the arc obligations it still demands, deduplicated and
              sorted: an [Arc] demands itself; [And] demands the arcs of
              each non-nullable conjunct; a non-nullable [Or] offers the
              arcs of either alternative; [Star] and [Not] demand
              nothing ([ν] of a star is true, and a complement fails by
              excess, not lack) *)
    }
      (** every triple was consumed, but obligations remain open *)

val of_trace :
  check:Neigh.ref_check ->
  node:Rdf.Term.t ->
  label:Label.t ->
  Deriv.trace ->
  t option
(** Extract the blame set from a failed trace ([None] if the trace
    accepted): the first step that collapsed to ∅ yields
    {!Blame_triple} — with [check] (the session's settled-verdict
    oracle) consulted to name the {!ref_failure}s behind an
    unmatchable reference arc — and an exhausted, non-nullable
    residual yields {!Missing_arcs}. *)

val node : t -> Rdf.Term.t
(** The focus node the explanation is about. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Renders the historical reason strings (["triple … matches no arc
    of the remaining expression (it reduces the expression to ∅)"],
    …), extended with the ref-failure / missing-arc details when
    present. *)

val to_json : t -> Json.t
(** [{"kind": "no_shape" | "node_constraint" | "blame_triple" |
    "missing_arcs", "node": …, …}] — kind-specific members carry the
    triple, residual expression, reference failures or missing
    arcs. *)
