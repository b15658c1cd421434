(** Per-shape / per-node cost attribution, decoded from a telemetry
    snapshot of a profiled session ({!Validate.session} with
    [~profile:true]).

    The recording side charges each (node, shape) evaluation its
    {e self} cost — engine counter deltas and wall time, minus what
    nested lower-stratum evaluations already charged to their own
    shapes — into labelled families ([deriv_steps_by_shape{shape=…}],
    [check_seconds_by_node{node=…}], …).  Self-costs sum to the
    session-global counters, so {!step_coverage} is exactly the
    fraction of derivative work the profile explains (1.0 up to
    work done outside any check, e.g. none today). *)

(** {2 Family names}

    The recording contract: {!Validate} writes labelled families under
    these names, {!of_snapshot} reads them back. *)

val checks_family : string
val seconds_family : string
val deriv_family : string
val backtrack_family : string
val sorbe_family : string
val compiled_family : string
val flips_family : string
val node_seconds_family : string

type shape_row = {
  shape : string;
  checks : int;       (** evaluations of this shape (fixpoint re-runs included) *)
  seconds : float;    (** self wall time across those evaluations *)
  deriv_steps : int;
  backtrack_branches : int;
  sorbe_updates : int;
  compiled_steps : int;  (** DFA transitions taken (cache hits + misses) *)
  flips : int;           (** fixpoint hypotheses on this shape refuted *)
}

type node_row = { node : string; checks : int; seconds : float }

type t = {
  shapes : shape_row list;  (** hottest (by wall time) first *)
  nodes : node_row list;    (** likewise *)
  attributed_steps : int;
  total_steps : int;
  attributed_seconds : float;
}

val of_snapshot : Telemetry.snapshot -> t
(** Decode the labelled families {!Validate} records under
    [~profile:true].  Empty result on snapshots without them. *)

val is_empty : t -> bool

val step_coverage : t -> float
(** Attributed over total [deriv_steps]; [1.0] when no derivative work
    happened at all. *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** The [--profile] table: top-N hottest shapes (checks, wall ms, per
    engine work, flips), top-N hottest focus nodes, and the
    attribution-coverage line. *)

val to_json : ?top:int -> t -> Json.t
(** [{"shapes": [...], "nodes": [...], "totals": {...}}], rows in
    heat order, truncated to [top] when given. *)
