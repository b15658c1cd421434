(** Cross-engine differential oracle.

    The repo carries four neighbourhood matchers (derivatives,
    backtracking, SORBE counting, compiled DFA), a SPARQL compilation
    path and a domain-parallel bulk runner, all promising identical
    verdicts.  This module checks that promise mechanically: it runs a
    random workload ({!Workload.Rand_gen}) through every applicable
    arm, compares verdicts and report JSON, and delta-shrinks any
    disagreement to a minimal counterexample that can be written as a
    self-contained repro file (ShExC + Turtle + shape map) and
    replayed as a regression test. *)

(** How two arms disagreed. *)
type kind =
  | Verdict  (** conformance bits differ *)
  | Report   (** verdicts agree but report JSON (blame sets) differs *)

type divergence = {
  arm : string;
      (** the disagreeing arm: ["backtrack"], ["interned-backtrack"],
          ["auto"], ["interned"], ["interned-auto"], ["compiled"],
          ["interned-compiled"], ["domains=2"], ["domains=4"],
          ["interned-domains=2"], ["sorbe"], ["sparql"] or ["edits"];
          the reference arm is always the sequential derivative engine
          on the structural graph *)
  kind : kind;
  detail : string;  (** one-line human-readable description *)
}

val divergences :
  Shex.Schema.t ->
  Rdf.Graph.t ->
  (Rdf.Term.t * Shex.Label.t) list ->
  divergence list
(** Run every applicable arm over the associations and report each
    disagreement with the derivative reference.  The ten engine and
    domain arms always run; the SORBE and SPARQL arms restrict
    themselves to the shapes (and, for SPARQL, focus nodes) inside
    their fragments. *)

(** {1 Shrinking} *)

val shrink_with :
  keep:
    (Shex.Schema.t ->
    Rdf.Graph.t ->
    (Rdf.Term.t * Shex.Label.t) list ->
    bool) ->
  Shex.Schema.t ->
  Rdf.Graph.t ->
  (Rdf.Term.t * Shex.Label.t) list ->
  Shex.Schema.t * Rdf.Graph.t * (Rdf.Term.t * Shex.Label.t) list
(** Greedy delta-shrink preserving an arbitrary predicate: drop
    associations, then graph triples, then simplify shape expressions
    and drop unreferenced rules, to a local minimum; [keep] is called
    on each candidate and a step is kept only when it returns [true].
    [keep] must hold on the input or the output is just the input.
    Used by {!run} with "the divergence survives", and by the
    static-analysis containment arm with "the focus still satisfies S1
    and fails S2" (S2 closed over by the predicate) — the witness
    property must survive shrinking, not just some divergence. *)

(** A workload under test, as a repro document holds it. *)
type case = {
  schema : Shex.Schema.t;
  graph : Rdf.Graph.t;  (** the initial graph when [script] is non-empty *)
  associations : (Rdf.Term.t * Shex.Label.t) list;
  script : Workload.Rand_gen.edit list;
      (** edits replayed over [graph]; [[]] outside the edits mode *)
}

val shrink_edits : keep:(case -> bool) -> case -> case
(** Greedy shrink preserving [keep]: associations, then script edits,
    then initial graph triples, through the same association and
    triple passes as {!shrink_with}.  The schema is left whole. *)

(** {1 Campaigns} *)

(** What a campaign checks on each seed.  The first three run the
    divergence arms and shrink the first divergence of a seed; the
    last two attack [lib/analysis]'s one-sided verdicts. *)
type mode =
  | Surface  (** every engine and fragment arm on a ShExC-printable workload *)
  | Extended
      (** the same on workloads with predicate stems that overlap
          singleton predicates (the SORBE applicability edge) and
          object complements; a shrunk case still using them has no
          ShExC form and gets no repro file *)
  | Edits
      (** the incremental arm: a seeded 12-edit script replayed
          through a [Shex_incremental.Session], each association's
          verdict, typing and explanation compared after every edit
          with a from-scratch session over the same graph (arm
          ["edits"]; DESIGN.md §11's frontier argument) *)
  | Containment
      (** [Analysis.check_compat v1 v2] against a seeded mutation v2
          (rules kept, widened or narrowed): a [Contained] claim must
          survive verdict fuzzing over generated graphs, and a
          [Refuted] witness must validate under v1 and fail v2 —
          directly, after a Turtle round-trip, and after
          {!shrink_with} *)
  | Optimizer
      (** report JSON over the associations must be byte-identical
          between the original and the optimised schema, on the
          structural and the interned session path, once the
          [explain]/[reason] blame payloads (which render the
          rewritten expression) are blanked on both sides *)

val modes : (string * mode) list
(** Every mode under its [mode=] name, in usage order. *)

type finding = {
  seed : int;
  detail : string;  (** re-derived on the shrunk case for divergences *)
  repro : string option;  (** path of the written repro file, if any *)
}

type summary = {
  mode : mode;
  first_seed : int;
  seeds_run : int;
  tallies : (string * int) list;
      (** the mode's counts, sorted by name: ["contained"],
          ["refuted"] and ["inconclusive"] compat verdicts, or
          ["rewritten"] schemas; absent names count 0 *)
  findings : finding list;
}

val run :
  ?dir:string ->
  ?log:(string -> unit) ->
  mode ->
  first_seed:int ->
  count:int ->
  summary
(** Check [count] seeded workloads starting at [first_seed].  A
    divergence is shrunk and, with [?dir] set and the case printable,
    written there as [oracle-seed<N>.repro]
    ([oracle-edits-seed<N>.repro] in the edits mode); [run] creates
    [dir] when it is missing.  Only {!Surface}, {!Extended} and
    {!Edits} write repro files: an analysis arm's finding concerns a
    schema pair, which a repro document cannot hold, so [?dir] with
    {!Containment} or {!Optimizer} raises [Invalid_argument] before
    any seed runs.  [log] receives one [seed N: detail] line per
    finding. *)

val render : summary -> string list
(** The headline, then one [  seed N: detail[ [path]]] line per
    finding. *)

(** {1 Repro documents} *)

val repro_to_string : seed:int -> mode:mode -> detail:string -> case -> string
(** The self-contained repro document: a commented header, then
    [%schema] (ShExC), [%data] (Turtle) and [%map] (fixed shape map)
    sections, and an [%edits] section — one [+ <s> <p> <o> .] /
    [- <s> <p> <o> .] N-Triples line per edit — when the case has a
    script.  Raises [Invalid_argument] when the schema is outside the
    ShExC-printable fragment (Extended-mode predicate sets). *)

val replay_file : string -> (unit, string) result
(** Parse the repro document at the path and re-run {!divergences} on
    it — plus, when the document carries a non-empty [%edits] section,
    the edits arm over that script: [Ok ()] when every arm now agrees
    (the regression stays fixed), [Error detail] otherwise.  Also
    [Error] on malformed documents and unreadable files. *)
