(** Fork/join over OCaml 5 domains.

    The shape-map semantics (Boneva et al.; §8 of the source paper)
    makes bulk validation embarrassingly parallel: each focus node's
    verdict is a function of the graph and schema alone, so shards
    share only immutable data.  This pool is the minimal fork/join
    that exploits it — spawn one domain per task beyond the first,
    run the first task on the calling domain, join everything. *)

val shard : int -> 'a list -> 'a list list
(** [shard n xs] splits [xs] into at most [n] contiguous runs whose
    lengths differ by at most one, in order ([List.concat (shard n
    xs) = xs]).  Never an empty run for non-empty input. *)

val run : (unit -> 'a) list -> 'a list
(** [run tasks] evaluates every task to completion — the head on the
    calling domain, the rest each on a fresh domain — and returns
    their results in task order.  A task the runtime cannot give a
    domain (past its limit on live domains) runs on the calling
    domain after the head.  Every domain is joined before the call
    returns, even on failure; if any task raised, the first raising
    task's exception is re-raised with its original backtrace. *)
