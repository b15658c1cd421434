(** The Single-Occurrence Regular Bag Expression subset.

    The paper's future work (§8) points at SORBE — the tractable
    fragment identified in the companion ICDT'15 paper — as “a
    tractable language which could be expressive enough”, and plans to
    “adapt our implementation to that subset and study its performance
    behaviour in practice”.  This module is that adaptation
    (experiment E4).

    A SORBE shape is an unordered concatenation of arc constraints
    with cardinality intervals, [a₁{m₁,n₁} ‖ … ‖ aₖ{mₖ,nₖ}], where the
    predicate sets of distinct constraints are pairwise disjoint — so
    every triple of the neighbourhood can be attributed to at most one
    constraint and matching reduces to {e counting}: tally the triples
    per constraint and compare against the intervals.  This is linear
    in the neighbourhood and does not build derivative expressions at
    all. *)

type interval = { min : int; max : int option (** [None] = unbounded *) }

type constr = { arc : Rse.arc; card : interval }

type t = constr list

val of_rse : Rse.t -> t option
(** Recognises (smart-constructed) expressions in the subset:
    [arc] (1,1), [(arc)⋆] (0,∞), [arc{m,n}] (m,n), [arc | ε] i.e.
    [arc?] (0,1), [ε], and [‖]-compositions thereof whose constraints
    have provably disjoint predicate sets (so an arc that occurs twice,
    as in [a ‖ a], is refused).  Returns [None] for anything else
    (alternatives between different arcs, negation, nested stars,
    counted groups, …). *)

(** {1 Telemetry}

    The matcher reports [sorbe_matches] (calls) and
    [sorbe_counter_updates] (one per triple attributed to a
    constraint's tally). *)

type instruments

val instruments : Telemetry.t -> instruments
val no_instruments : instruments

val counters : instruments -> Telemetry.Counter.t list
(** The monotone counters resolved, in order: [sorbe_matches],
    [sorbe_counter_updates]. *)

val matches :
  check:Neigh.ref_check -> ?instr:instruments ->
  Rdf.Term.t -> Neigh.dtriple list -> t -> bool
(** Counting matcher: attribute each triple of the neighbourhood to
    the (unique) constraint whose predicate set contains its
    predicate; fail if some triple matches no constraint or fails its
    constraint's object test; finally check every tally against its
    interval.  The neighbourhood is Σgn as {!Validate} extracts it for
    every engine: incoming triples included exactly when the source
    expression has an inverse arc ([Rse.has_inverse]), which for an
    expression {!of_rse} accepts is exactly when some constraint's arc
    is inverse. *)

val matches_dts :
  ?check_ref:(Label.t -> Rdf.Term.t -> bool) -> ?instr:instruments ->
  Rdf.Term.t -> Neigh.dtriple list -> t -> bool
(** {!matches} checking references on the far term: an adapter. *)

val pp : Format.formatter -> t -> unit
(** Prints [a→1{1,1} ‖ b→{1, 2}{0,*}]. *)
