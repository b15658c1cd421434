(** Structured validation reports.

    A report is the result of checking a set of (node, label)
    associations — typically obtained from a {!Shape_map} — against a
    graph: one entry per association with the verdict and, on failure,
    the human-readable reason from the derivative trace.  A report
    carries no typing: the typing of a whole-graph report is its
    conformant entries, and the typing of one entry is
    {!Validate.typing}.

    Reports render as a text table, as a result shape map
    ([node@<Shape>] / [node@!<Shape>], the ShEx convention), and as
    JSON for tooling. *)

type status = Conformant | Nonconformant

type entry = {
  node : Rdf.Term.t;
  label : Label.t;
  status : status;
  explain : Explain.t option;
      (** structured failure explanation (blame set), [None] on
          success *)
}

val reason : entry -> string option
(** The rendered form of [explain] ({!Explain.to_string}). *)

type t = { entries : entry list }

val run : Validate.session -> (Rdf.Term.t * Label.t) list -> t
(** Check every association and collect the outcomes.  Runs through
    {!Validate.check_all}, so a session created with [~domains:n]
    (n > 1) validates the associations across [n] OCaml domains; the
    report is identical to the sequential one either way. *)

val run_shape_map : Validate.session -> Shape_map.t -> Rdf.Graph.t -> t
(** Resolve the shape map against the graph, then {!run}. *)

val conformant : t -> entry list
val nonconformant : t -> entry list
val all_conformant : t -> bool

val pp : Format.formatter -> t -> unit
(** Text table: one line per entry with verdict and reason. *)

val to_result_shape_map : t -> string
(** The ShEx result-shape-map convention: [node@<S>] for conformant
    entries, [node@!<S>] for nonconformant ones, comma-separated. *)

val to_json : ?metrics:Telemetry.snapshot -> ?profile:Profile.t -> t -> Json.t
(** [{ "entries": [ {"node": …, "shape": …, "status": "conformant",
    "reason": …, "explain": …}, … ], "conformant": n,
    "nonconformant": m }] — nonconformant entries carry both the
    rendered ["reason"] string and the structured ["explain"] member
    ({!Explain.to_json}).  With [?metrics] (the CLI's
    [--json --metrics=json] combination) a final ["metrics"] member
    carries the session's {!Validate.metrics} snapshot; with
    [?profile] (the CLI's [--json --profile]) a ["profile"] member
    carries the attribution tables ({!Profile.to_json}). *)
