(** Synthetic FOAF social graphs — the linked-data-portal workload.

    The paper motivates validation with linked data portals ([16]) and
    its running example is the recursive Person shape (Examples 1, 2,
    14).  This generator produces deterministic social graphs with a
    controllable fraction of invalid persons, standing in for the
    portal datasets we cannot ship (see DESIGN.md, substitutions). *)

type violation =
  | Missing_name     (** no [foaf:name] arc (the [mary]-style failure) *)
  | Extra_age        (** two [foaf:age] arcs *)
  | Age_not_integer  (** [foaf:age "old"] *)
  | Knows_literal    (** [foaf:knows "somebody"] — fails the reference *)

type profile = {
  n_persons : int;
  invalid_fraction : float;
      (** fraction of persons given one random violation *)
  knows_degree : int;
      (** average out-degree of [foaf:knows] among valid persons;
          valid persons only know valid persons, so violations do not
          cascade through the recursion *)
  seed : int;
}

type generated = {
  graph : Rdf.Graph.t;
  valid : Rdf.Term.t list;    (** persons generated without violation *)
  invalid : Rdf.Term.t list;  (** persons given a violation *)
}

val generate : profile -> generated

val generate_clustered : ?community:int -> profile -> generated
(** Like {!generate}, but [foaf:knows] arcs stay within communities of
    [community] consecutive persons (default 10) instead of being
    drawn uniformly — the portal shape with locality.  Uniform knows
    at degree ≥ 2 produce one giant strongly-connected component, so
    under the recursive schema a single verdict flip cascades through
    most of the portal and {e any} sound incremental revalidation
    degenerates to a near-full re-run; community structure bounds the
    dependency frontier of an edit by the community size, independent
    of portal size (experiment E14 measures both regimes). *)

val person_schema : unit -> Shex.Schema.t * Shex.Label.t
(** The Example 1/14 schema:
    [person ↦ foaf:age→xsd:integer ‖ (foaf:name→xsd:string)+ ‖
    (foaf:knows→@person)⋆], and its label. *)

val flat_person_schema : unit -> Shex.Schema.t * Shex.Label.t
(** The non-recursive variant: [foaf:knows] objects only have to be
    IRIs instead of conforming [@person]s.  Reference-free, so every
    focus node's check is fully independent — the workload for which
    parallel and sequential validation do {e exactly} the same work
    (identical telemetry counter totals, not just identical verdicts;
    experiment E12). *)
