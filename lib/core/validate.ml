type engine = Derivatives | Backtracking | Auto | Compiled

module Pair = struct
  type t = Rdf.Term.t * Label.t

  let compare (n1, l1) (n2, l2) =
    let c = Rdf.Term.compare n1 n2 in
    if c <> 0 then c else Label.compare l1 l2
end

(* The pair table: every (node, label) pair a session meets is interned
   once into a dense int id, hashed and compared without the
   polymorphic primitives. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = Pair.t

  let equal (n1, l1) (n2, l2) = Rdf.Term.equal n1 n2 && Label.equal l1 l2
  let hash (n, l) = (Rdf.Term.hash n * 31) + Label.hash l
end)

module Int_set = Set.Make (Int)

type compiled = Counting of Sorbe.t | Table of Dfa.t

(* First-class dependency record of the fixpoint (PR 3 only emitted
   these edges as telemetry events; incremental revalidation needs
   them as data).  For every settled pair the arrays hold, by pair id,
   the ids its *last* evaluation consulted — the edge set the final
   verdict actually depends on — plus the reverse edges, so a graph
   delta can walk from edited nodes back to every memoised verdict
   that could observe it. *)
type dep_record = {
  mutable deps : Int_set.t array;
      (* id → ids its last evaluation consulted *)
  mutable rdeps : Int_set.t array;  (* exact reverse edges of [deps] *)
}

(* Per-shape attribution state (the [?profile] flag).  One labelled
   cell bundle per shape label, cached by {!Label.t} so the hot path
   resolves a label's cells once; plus, per attributed engine, how much
   of its global work is already charged to some shape.  A nested
   evaluation (a lower-stratum reference settled inline) charges its
   own shape, and the outer evaluation subtracts what was charged
   during its window, so every unit of engine work is attributed to
   exactly one shape and the family sums reproduce the session-global
   counters. *)
type prof_cells = {
  c_checks : Telemetry.Counter.t;
  c_seconds : Telemetry.Span.t;
  c_work : Telemetry.Counter.t array;  (* one cell per [p_work] entry *)
}

type prof = {
  p_work :
    (Telemetry.Counter.t list * Telemetry.Counter.t Telemetry.family) array;
      (* per engine: the global counters whose sum is its work, and the
         family that work is charged to by shape *)
  p_charged : int array;  (* per [p_work] entry: work charged so far *)
  p_checks : Telemetry.Counter.t Telemetry.family;
  p_seconds : Telemetry.Span.t Telemetry.family;
  p_flips : Telemetry.Counter.t Telemetry.family;
  p_node_seconds : Telemetry.Span.t Telemetry.family;
  p_cells : (Label.t, prof_cells) Hashtbl.t;
  mutable charged_seconds : float;
  (* runtime resource gauges, sampled at span boundaries *)
  g_minor_words : Telemetry.Counter.t;
  g_major_words : Telemetry.Counter.t;
  g_heap_words : Telemetry.Counter.t;
  g_top_heap_words : Telemetry.Counter.t;
  g_compactions : Telemetry.Counter.t;
  g_minor_collections : Telemetry.Counter.t;
  g_major_collections : Telemetry.Counter.t;
  g_memo_entries : Telemetry.Counter.t;
}

let make_prof tele dfa_instr =
  let shape_counter ?help name =
    Telemetry.counter_family tele ?help ~key:"shape" name
  in
  let global name = [ Telemetry.counter tele name ] in
  let p_work =
    [| ( global "deriv_steps",
         shape_counter ~help:"Derivative steps attributed to this shape"
           Profile.deriv_family );
       ( global "backtrack_branches",
         shape_counter ~help:"Backtracking branches attributed to this shape"
           Profile.backtrack_family );
       ( global "sorbe_counter_updates",
         shape_counter ~help:"SORBE counter updates attributed to this shape"
           Profile.sorbe_family );
       ( Dfa.counters dfa_instr,
         shape_counter ~help:"Compiled-DFA transitions attributed to this shape"
           Profile.compiled_family ) |]
  in
  {
    p_work;
    p_charged = Array.make (Array.length p_work) 0;
    p_checks =
      shape_counter
        ~help:"Evaluations per shape (fixpoint re-runs included)"
        Profile.checks_family;
    p_seconds =
      Telemetry.span_family tele ~key:"shape"
        ~help:"Self wall time of evaluations of this shape"
        Profile.seconds_family;
    p_flips =
      shape_counter ~help:"Fixpoint hypotheses on this shape refuted"
        Profile.flips_family;
    p_node_seconds =
      Telemetry.span_family tele ~key:"node"
        ~help:"Self wall time of checks of this focus node"
        Profile.node_seconds_family;
    p_cells = Hashtbl.create 16;
    charged_seconds = 0.;
    g_minor_words =
      Telemetry.gauge tele ~help:"Gc.quick_stat minor_words" "gc_minor_words";
    g_major_words =
      Telemetry.gauge tele ~help:"Gc.quick_stat major_words" "gc_major_words";
    g_heap_words =
      Telemetry.gauge tele ~help:"Major heap size in words" "gc_heap_words";
    g_top_heap_words =
      Telemetry.gauge tele ~help:"Largest major heap size reached, in words"
        "gc_top_heap_words";
    g_compactions =
      Telemetry.gauge tele ~help:"Heap compactions" "gc_compactions";
    g_minor_collections =
      Telemetry.gauge tele ~help:"Minor collections" "gc_minor_collections";
    g_major_collections =
      Telemetry.gauge tele ~help:"Major collection cycles"
        "gc_major_collections";
    g_memo_entries =
      Telemetry.gauge tele ~help:"Memoised (node, shape) verdicts"
        "memo_entries";
  }

type session = {
  engine : engine;
  schema : Schema.t;
  mutable graph : Rdf.Graph.t option;
      (* the structural view; mutable for {!set_graph} (incremental
         sessions swap in the edited graph and invalidate the affected
         memo entries) and [None] until demanded on columnar-primary
         sessions ({!session_columnar}), which materialise it lazily *)
  mutable columnar : Rdf.Columnar.t option;
      (* the interned accelerator: when present, neighbourhoods are
         binary-searched slices of the frozen int columns instead of
         structural index walks.  Canonical ids keep the slices in
         triple order, so verdicts, traces and reports are
         byte-identical either way (the oracle's interned arm pins
         this). *)
  domains : int;
      (* requested bulk-validation parallelism; 1 = sequential *)
  (* The verdict memo, indexed by pair id (see {!intern}).  Ids are
     never recycled: a pair whose verdict is invalidated goes back to
     [unknown] and keeps its id, so the table holds one entry per
     distinct pair the session has looked up. *)
  ids : int Pair_tbl.t;                (* pair → id *)
  mutable pairs : Pair.t array;        (* id → pair *)
  mutable state : Bytes.t;             (* id → one of the states below *)
  mutable dependents : int list array;
      (* id → ids whose evaluation consulted it while it was a
         candidate; filled for the running solve's candidates only and
         cleared when that solve ends *)
  mutable consulted : int list option array;
      (* settled-true id → what one evaluation of it under the settled
         verdicts consulted; filled by {!typing_of} only, and dropped
         with the pair's verdict *)
  mutable count : int;                 (* ids handed out *)
  mutable settled : int;               (* ids in a settled state *)
  mutable labels : Label.Set.t;
      (* every label interned so far: what {!invalidate_nodes} probes an
         edited node with *)
  dep_record : dep_record option;     (* Some iff [record_deps] *)
  compiled : (Label.t, compiled) Hashtbl.t;
      (* per-label compilation: SORBE counting matcher or lazy DFA *)
  tele : Telemetry.t;
  deriv_instr : Deriv.instruments;
  back_instr : Backtrack.instruments;
  sorbe_instr : Sorbe.instruments;
  dfa_instr : Dfa.instruments;
  fix_evals : Telemetry.Counter.t;    (* fixpoint_iterations *)
  fix_flips : Telemetry.Counter.t;    (* fixpoint_flips *)
  fix_demands : Telemetry.Counter.t;  (* fixpoint_demands *)
  profile : prof option;              (* Some iff [?profile] *)
  mutable slowlog : Slowlog.t option; (* Some iff a slow-ms threshold *)
  slow_work : Telemetry.Counter.t list;
      (* every monotone counter the session resolved: what a slowlog
         entry reports deltas of *)
}

let make_session ~engine ~telemetry ~domains ~record_deps ~profile ~slow_ms
    ~graph ~columnar schema =
  (* Instruments are resolved once here; on the default (disabled)
     registry every later use is a single branch.  Only the engines
     that compile shapes to automata resolve the DFA's, so other
     sessions' snapshots carry no [compiled_*] entries. *)
  let deriv_instr = Deriv.instruments telemetry
  and back_instr = Backtrack.instruments telemetry
  and sorbe_instr = Sorbe.instruments telemetry
  and dfa_instr =
    match engine with
    | Auto | Compiled -> Dfa.instruments telemetry
    | Derivatives | Backtracking -> Dfa.no_instruments
  and fix_evals = Telemetry.counter telemetry "fixpoint_iterations"
  and fix_flips = Telemetry.counter telemetry "fixpoint_flips"
  and fix_demands = Telemetry.counter telemetry "fixpoint_demands" in
  { engine; schema; graph; columnar;
    domains = max 1 domains;
    ids = Pair_tbl.create 256;
    pairs = [||];
    state = Bytes.empty;
    dependents = [||];
    consulted = [||];
    count = 0;
    settled = 0;
    labels = Label.Set.empty;
    dep_record =
      (if record_deps then Some { deps = [||]; rdeps = [||] } else None);
    compiled = Hashtbl.create 16;
    tele = telemetry;
    deriv_instr; back_instr; sorbe_instr; dfa_instr;
    fix_evals; fix_flips; fix_demands;
    profile = (if profile then Some (make_prof telemetry dfa_instr) else None);
    slowlog =
      Option.map (fun threshold_ms -> Slowlog.create ~threshold_ms ()) slow_ms;
    slow_work =
      List.concat
        [ Deriv.counters deriv_instr; Backtrack.counters back_instr;
          Sorbe.counters sorbe_instr; Dfa.counters dfa_instr;
          [ fix_evals; fix_flips; fix_demands ] ] }

let session ?(engine = Derivatives) ?(telemetry = Telemetry.disabled)
    ?(domains = 1) ?(record_deps = false) ?(profile = false) ?slow_ms
    ?(interned = false) schema graph =
  make_session ~engine ~telemetry ~domains ~record_deps ~profile ~slow_ms
    ~graph:(Some graph)
    ~columnar:(if interned then Some (Rdf.Columnar.of_graph graph) else None)
    schema

let session_columnar ?(engine = Derivatives) ?(telemetry = Telemetry.disabled)
    ?(domains = 1) ?(profile = false) ?slow_ms schema columnar =
  make_session ~engine ~telemetry ~domains ~record_deps:false ~profile
    ~slow_ms ~graph:None ~columnar:(Some columnar) schema

let telemetry st = st.tele
let schema st = st.schema

let graph st =
  match st.graph with
  | Some g -> g
  | None ->
      (* Columnar-primary session: materialise the structural view on
         first demand (the Backtracking baseline, incremental swaps
         and external callers want a {!Rdf.Graph.t}).  The hot
         validation paths never reach this. *)
      let g = Rdf.Columnar.to_graph (Option.get st.columnar) in
      st.graph <- Some g;
      g

let interned st = Option.is_some st.columnar
let columnar_store st = st.columnar
let engine st = st.engine
let domains st = st.domains
let record_deps st = Option.is_some st.dep_record
let memo_size st = st.settled
let profiling st = Option.is_some st.profile
let slowlog st = st.slowlog

let set_slow_ms st = function
  | None -> st.slowlog <- None
  | Some ms -> (
      match st.slowlog with
      | Some slog -> Slowlog.set_threshold_ms slog ms
      | None -> st.slowlog <- Some (Slowlog.create ~threshold_ms:ms ()))

let set_graph st graph =
  st.graph <- Some graph;
  st.columnar <-
    Option.map (fun _ -> Rdf.Columnar.of_graph graph) st.columnar

(* Σgn through whichever representation the session holds: a
   binary-searched columnar slice when the accelerator is present, the
   structural indexes otherwise.  Either way the list is in triple
   order, so every engine sees the same consumption sequence. *)
let neighbourhood st ~include_inverse n =
  match st.columnar with
  | Some c -> Neigh.of_columnar ~include_inverse n c
  | None -> Neigh.of_node ~include_inverse n (graph st)

(* Pair states.  A solve marks the pairs it demands candidate-true,
   flips refuted ones to candidate-false, and settles every one of them
   in place when it ends. *)
let unknown = 0
let cand_true = 1
let cand_false = 2
let settled_true = 3
let settled_false = 4
let state st id = Bytes.get_uint8 st.state id
let set_state st id s = Bytes.set_uint8 st.state id s
let is_settled st id = state st id >= settled_true

let new_id st p =
  let id = st.count in
  if id = Array.length st.pairs then begin
    let cap = max 256 (2 * id) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 id;
      b
    in
    st.pairs <- extend st.pairs p;
    st.dependents <- extend st.dependents [];
    st.consulted <- extend st.consulted None;
    let state = Bytes.make cap (Char.chr unknown) in
    Bytes.blit st.state 0 state 0 id;
    st.state <- state;
    match st.dep_record with
    | Some r ->
        r.deps <- extend r.deps Int_set.empty;
        r.rdeps <- extend r.rdeps Int_set.empty
    | None -> ()
  end;
  st.pairs.(id) <- p;
  st.count <- id + 1;
  Pair_tbl.add st.ids p id;
  if not (Label.Set.mem (snd p) st.labels) then
    st.labels <- Label.Set.add (snd p) st.labels;
  id

(* [find], not [find_opt]: a memo hit then allocates nothing beyond
   the caller's key tuple.  Interning may grow the per-id arrays, so
   callers re-read them from [st] after anything that can intern. *)
let intern st p =
  match Pair_tbl.find st.ids p with
  | id -> id
  | exception Not_found -> new_id st p

(* Ids sorted and deduplicated in {!Pair.compare} order.  Requeues
   and frontier walks visit pairs in this order, not in interning
   order, so the evaluation sequence, the fixpoint counters and the
   frontier list do not depend on which pair a session met first. *)
let in_pair_order st ids =
  List.sort_uniq (fun a b -> Pair.compare st.pairs.(a) st.pairs.(b)) ids

let dependencies_of st p =
  match (st.dep_record, Pair_tbl.find_opt st.ids p) with
  | Some r, Some id ->
      List.map
        (fun q -> st.pairs.(q))
        (in_pair_order st (Int_set.elements r.deps.(id)))
  | _ -> []

(* Replace the recorded edge set of [p] with the consultations of its
   latest evaluation, keeping [rdeps] exact (stale reverse edges would
   make later invalidations walk — and kill — verdicts that no longer
   depend on the flipped pair). *)
let record_edges r p used =
  let now = Int_set.of_list used in
  let before = r.deps.(p) in
  Int_set.iter
    (fun q -> r.rdeps.(q) <- Int_set.remove p r.rdeps.(q))
    (Int_set.diff before now);
  Int_set.iter
    (fun q -> r.rdeps.(q) <- Int_set.add p r.rdeps.(q))
    (Int_set.diff now before);
  r.deps.(p) <- now

let compile st l e =
  match Hashtbl.find_opt st.compiled l with
  | Some c -> c
  | None ->
      let table () = Table (Dfa.compile ~instr:st.dfa_instr e) in
      let c =
        match st.engine with
        | Compiled -> table ()
        | _ -> (
            match Sorbe.of_rse e with
            | Some sorbe -> Counting sorbe
            | None -> table ())
      in
      Hashtbl.replace st.compiled l c;
      c

(* Runtime resource gauges ("where is the memory"): GC words/heap/
   compactions plus the verdict-memo size, sampled into the registry at
   span boundaries — the end of each bulk call and every [metrics]
   read.  Only profiled sessions sample, so unprofiled snapshots (and
   the byte-identity guarantees of the parallel path, E12) are
   untouched. *)
let sample_resources st =
  match st.profile with
  | None -> ()
  | Some p ->
      let q = Gc.quick_stat () in
      Telemetry.Counter.set p.g_minor_words (int_of_float q.Gc.minor_words);
      Telemetry.Counter.set p.g_major_words (int_of_float q.Gc.major_words);
      Telemetry.Counter.set p.g_heap_words q.Gc.heap_words;
      Telemetry.Counter.set p.g_top_heap_words q.Gc.top_heap_words;
      Telemetry.Counter.set p.g_compactions q.Gc.compactions;
      Telemetry.Counter.set p.g_minor_collections q.Gc.minor_collections;
      Telemetry.Counter.set p.g_major_collections q.Gc.major_collections;
      Telemetry.Counter.set p.g_memo_entries st.settled

(* The unified snapshot: every engine, the DFA included, reports into
   the registry as it works, so reading it is sampling the resource
   gauges and taking a snapshot. *)
let metrics st =
  sample_resources st;
  Telemetry.snapshot st.tele

type outcome = { ok : bool; typing : Typing.t; explain : Explain.t option }

let reason o = Option.map Explain.to_string o.explain

let prof_cells p l =
  match Hashtbl.find_opt p.p_cells l with
  | Some c -> c
  | None ->
      let s = Label.to_string l in
      let c =
        { c_checks = Telemetry.labelled p.p_checks s;
          c_seconds = Telemetry.labelled p.p_seconds s;
          c_work =
            Array.map (fun (_, fam) -> Telemetry.labelled fam s) p.p_work }
      in
      Hashtbl.replace p.p_cells l c;
      c

(* Wrap one matcher run with self-cost attribution: counter deltas and
   wall time of the window, minus whatever nested evaluations (lower
   strata settled inline through [check_ref]) charged to their own
   shapes meanwhile.  Every unit of work is charged exactly once, so
   summing a family reproduces the global counter — the ≥95 %
   attribution-coverage invariant is structural, not statistical. *)
let profiled_run p n l run () =
  let cells = prof_cells p l in
  (* Work not yet charged to any shape: its growth over the window is
     this evaluation's self-cost. *)
  let unowned i =
    List.fold_left
      (fun acc c -> acc + Telemetry.Counter.value c)
      0 (fst p.p_work.(i))
    - p.p_charged.(i)
  in
  let base = Array.init (Array.length p.p_work) unowned
  and ct0 = p.charged_seconds in
  let t0 = Telemetry.now () in
  Fun.protect run ~finally:(fun () ->
      let dt = max 0. (Telemetry.now () -. t0) in
      Array.iteri
        (fun i cell ->
          let self = unowned i - base.(i) in
          Telemetry.Counter.add cell self;
          p.p_charged.(i) <- p.p_charged.(i) + self)
        cells.c_work;
      let dts = dt -. (p.charged_seconds -. ct0) in
      Telemetry.Counter.incr cells.c_checks;
      Telemetry.Span.record cells.c_seconds dts;
      Telemetry.Span.record
        (Telemetry.labelled p.p_node_seconds (Rdf.Term.to_string n))
        dts;
      p.charged_seconds <- p.charged_seconds +. (if dts < 0. then 0. else dts))

(* One evaluation of a (node, label) pair under the current candidate
   valuation.  References to settled pairs read their state byte;
   same-stratum references read [value] and are recorded in the use
   list; references to lower strata are settled on the spot through
   {!solve} (they are final by stratification, so negation over them
   is sound).  The use list holds pair ids, most recent first. *)
let rec evaluate st ~value ~demand id =
  let n, l = st.pairs.(id) in
  match Schema.find_shape st.schema l with
  | None -> (false, [])
  | Some { Schema.focus = Some vo; _ }
    when not (Value_set.obj_mem vo n) ->
      (* The focus node itself fails the shape's node constraint. *)
      (false, [])
  | Some { Schema.expr = e; _ } ->
      let used = ref [] in
      let stratum = Schema.stratum st.schema l in
      let tracing = Telemetry.tracing st.tele in
      let check_ref l' o =
        let q = intern st (o, l') in
        used := q :: !used;
        let settled = is_settled st q in
        let answer =
          if settled then state st q = settled_true
          else if Schema.stratum st.schema l' < stratum then begin
            solve st q;
            state st q = settled_true
          end
          else begin
            demand q;
            value q
          end
        in
        (* The dependency edge of the fixpoint: which hypothesis this
           verdict consulted, and whether the answer was a settled
           fact or the optimistic candidate valuation. *)
        if tracing then
          Telemetry.emit st.tele
            (Telemetry.instant "fixpoint_dep"
               [ ("node", Telemetry.String (Rdf.Term.to_string n));
                 ("shape", Telemetry.String (Label.to_string l));
                 ("on_node", Telemetry.String (Rdf.Term.to_string o));
                 ("on_shape", Telemetry.String (Label.to_string l'));
                 ("answer", Telemetry.Bool answer);
                 ("settled", Telemetry.Bool settled) ]);
        answer
      in
      (* One provenance span per (node, shape) evaluation, labelled
         with the matcher that actually ran (Auto resolves per
         shape). *)
      (* The neighbourhood is computed inside the matcher closure (so
         profiled runs charge it to the shape, as when the engines
         computed it themselves) through {!neighbourhood} — one binary
         search per evaluation on interned sessions. *)
      let matcher_name, run =
        match st.engine with
        | Derivatives ->
            ( "derivatives",
              fun () ->
                let dts =
                  neighbourhood st ~include_inverse:(Rse.has_inverse e) n
                in
                Deriv.matches_dts ~check_ref ~instr:st.deriv_instr n dts e )
        | Backtracking ->
            (* The Fig.-1 baseline decomposes whole neighbourhood
               graphs, so it stays on the structural view. *)
            ( "backtracking",
              fun () ->
                Backtrack.matches ~check_ref ~instr:st.back_instr n (graph st)
                  e )
        | Auto | Compiled -> (
            (* Per-label compilation (experiments E4, E9): Auto uses
               the linear counting matcher when the shape is in the
               single-occurrence fragment and the lazy DFA otherwise;
               Compiled always uses the DFA. *)
            match compile st l e with
            | Counting sorbe ->
                ( "sorbe",
                  fun () ->
                    let dts =
                      neighbourhood st
                        ~include_inverse:(Sorbe.has_inverse sorbe) n
                    in
                    Sorbe.matches_dts ~check_ref ~instr:st.sorbe_instr n dts
                      sorbe )
            | Table dfa ->
                ( "compiled",
                  fun () ->
                    let dts =
                      neighbourhood st ~include_inverse:(Rse.has_inverse e) n
                    in
                    Dfa.matches_dts ~check_ref dfa n dts ))
      in
      let run =
        match st.profile with
        | Some p -> profiled_run p n l run
        | None -> run
      in
      if tracing then
        Telemetry.emit st.tele
          (Telemetry.span_begin "check"
             [ ("node", Telemetry.String (Rdf.Term.to_string n));
               ("shape", Telemetry.String (Label.to_string l));
               ("engine", Telemetry.String matcher_name) ]);
      (* The span must close even when the matcher raises (a user
         value-set predicate, an out-of-memory shard worker): an
         unbalanced begin would corrupt the span tree of every later
         event the sink sees. *)
      let span_end fields =
        if tracing then
          Telemetry.emit st.tele
            (Telemetry.span_end "check"
               (("node", Telemetry.String (Rdf.Term.to_string n))
               :: ("shape", Telemetry.String (Label.to_string l))
               :: fields))
      in
      let ok =
        match run () with
        | ok -> ok
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            span_end [ ("raised", Telemetry.String (Printexc.to_string e)) ];
            Printexc.raise_with_backtrace e bt
      in
      span_end [ ("ok", Telemetry.Bool ok) ];
      (ok, !used)

(* Greatest-fixpoint solver (chaotic iteration).  All demanded pairs
   start optimistically [true] — the coinductive hypothesis of §8's
   MatchShape rule — and can only flip to [false] when their rule
   fails, re-triggering the pairs that relied on them.  Verdicts are
   monotone in the same-stratum reference answers because
   {!Schema.make} rejects negation inside a stratum, so the iteration
   terminates at the greatest fixpoint in polynomially many
   evaluations; negated references live in lower strata and are
   settled before use.

   The candidates live in the session's state bytes, so a solve that
   ends settles its demanded pairs in place; one that raises (a
   telemetry sink, [Out_of_memory], [Stack_overflow]) puts them back
   to [unknown] first, leaving lower-stratum solves that finished
   inside it settled. *)
and solve st root =
  if not (is_settled st root) then begin
    let queue = Queue.create () in
    let demanded = ref [] in
    let demand q =
      if state st q = unknown then begin
        Telemetry.Counter.incr st.fix_demands;
        set_state st q cand_true;
        demanded := q :: !demanded;
        Queue.add q queue
      end
    in
    let value q = state st q = cand_true in
    let run () =
      demand root;
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        (* A pair already refuted needs no re-evaluation. *)
        if state st p = cand_true then begin
          Telemetry.Counter.incr st.fix_evals;
          let ok, used = evaluate st ~value ~demand p in
          (* The last evaluation of each pair wins: its consultations
             are the edges the settled verdict depends on. *)
          (match st.dep_record with
          | Some r -> record_edges r p used
          | None -> ());
          (* Only a candidate-true pair can still flip, so only its
             dependents are ever read. *)
          List.iter
            (fun q ->
              if state st q = cand_true then
                st.dependents.(q) <- p :: st.dependents.(q))
            used;
          if not ok then begin
            Telemetry.Counter.incr st.fix_flips;
            (match st.profile with
            | Some prof ->
                Telemetry.Counter.incr
                  (Telemetry.labelled prof.p_flips
                     (Label.to_string (snd st.pairs.(p))))
            | None -> ());
            set_state st p cand_false;
            let requeued = ref 0 in
            List.iter
              (fun d ->
                if state st d = cand_true then begin
                  incr requeued;
                  Queue.add d queue
                end)
              (in_pair_order st st.dependents.(p));
            (* The refutation edge: this hypothesis flipped to false and
               re-triggered the verdicts that relied on it. *)
            if Telemetry.tracing st.tele then
              let fn, fl = st.pairs.(p) in
              Telemetry.emit st.tele
                (Telemetry.instant "fixpoint_flip"
                   [ ("node", Telemetry.String (Rdf.Term.to_string fn));
                     ("shape", Telemetry.String (Label.to_string fl));
                     ("requeued", Telemetry.Int !requeued) ])
          end
        end
      done
    in
    let finish settle =
      List.iter
        (fun q ->
          set_state st q (settle (state st q));
          st.dependents.(q) <- [])
        !demanded
    in
    match run () with
    | () ->
        finish (fun s -> if s = cand_true then settled_true else settled_false);
        st.settled <- st.settled + List.length !demanded
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish (fun _ -> unknown);
        Printexc.raise_with_backtrace e bt
  end

let verdict_id st id =
  solve st id;
  state st id = settled_true

let verdict st p = verdict_id st (intern st p)

(* Dependency-frontier invalidation: every memoised verdict anchored
   on an edited node, plus — transitively, backwards along the
   recorded edges — every verdict that consulted one of those.  What
   remains in the memo was computed by evaluations that read only
   unchanged neighbourhoods and reference answers that are themselves
   retained, so re-running them against the new graph would reproduce
   the memoised verdict verbatim; dropping exactly the frontier and
   re-solving it therefore converges to the same greatest fixpoint as
   a full from-scratch run (the oracle's edit-script arm checks this
   equivalence mechanically). *)
let invalidate_nodes st nodes =
  let drop id =
    let was = state st id = settled_true in
    set_state st id unknown;
    st.settled <- st.settled - 1;
    st.consulted.(id) <- None;
    (st.pairs.(id), was)
  in
  match st.dep_record with
  | None ->
      (* No recorded edges: the only sound reaction to a graph change
         is dropping the whole memo (a full revalidation). *)
      let all = ref [] in
      for id = st.count - 1 downto 0 do
        if is_settled st id then all := drop id :: !all
      done;
      !all
  | Some r ->
      let visited = ref Int_set.empty in
      let queue = Queue.create () in
      let push id =
        if is_settled st id && not (Int_set.mem id !visited) then begin
          visited := Int_set.add id !visited;
          Queue.add id queue
        end
      in
      (* An edited node's settled pairs, in label order: probe the pair
         table with every label the session has interned. *)
      List.iter
        (fun n ->
          Label.Set.iter
            (fun l ->
              match Pair_tbl.find_opt st.ids (n, l) with
              | Some id -> push id
              | None -> ())
            st.labels)
        nodes;
      let frontier = ref [] in
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        frontier := p :: !frontier;
        List.iter push (in_pair_order st (Int_set.elements r.rdeps.(p)))
      done;
      (* Drop the frontier from the memo and the dependency record.
         Every dependent of a frontier pair is itself in the frontier
         (that is what the backwards walk computes), so unlinking each
         dropped pair from the rdeps of what it consulted leaves the
         record exactly describing the retained memo. *)
      List.map
        (fun p ->
          Int_set.iter
            (fun q -> r.rdeps.(q) <- Int_set.remove p r.rdeps.(q))
            r.deps.(p);
          r.deps.(p) <- Int_set.empty;
          drop p)
        !frontier

(* The typing τ produced by a successful check: the root fact plus the
   facts its (final) match relies on, transitively — mirroring how the
   typed derivative of §8 combines sub-typings with ⊎.  What a settled
   pair relies on is a property of the graph, not of the root asking,
   so each pair is matched once per session and its consultations are
   kept for as long as its verdict is ({!invalidate_nodes} drops both
   together; DESIGN.md §8). *)
let typing_of st root =
  let consultations p =
    match st.consulted.(p) with
    | Some used -> used
    | None ->
        let _, used =
          evaluate st ~value:(verdict_id st) ~demand:(fun _ -> ()) p
        in
        st.consulted.(p) <- Some used;
        used
  in
  let rec closure visited p =
    if Int_set.mem p visited || not (verdict_id st p) then visited
    else List.fold_left closure (Int_set.add p visited) (consultations p)
  in
  Int_set.fold
    (fun id acc ->
      let n, l = st.pairs.(id) in
      Typing.add n l acc)
    (closure Int_set.empty root)
    Typing.empty

let failure_explain st n l =
  match Schema.find_shape st.schema l with
  | None -> Some (Explain.No_shape { node = n; label = l })
  | Some { Schema.focus = Some vo; _ } when not (Value_set.obj_mem vo n) ->
      Some (Explain.Node_constraint { node = n; constraint_ = vo })
  | Some { Schema.expr = e; _ } ->
      let check_ref l' o = verdict st (o, l') in
      let dts = neighbourhood st ~include_inverse:(Rse.has_inverse e) n in
      let trace = Deriv.matches_trace_dts ~check_ref n dts e in
      Explain.of_trace ~check_ref ~node:n ~label:l trace

let plain_check st n l =
  let id = intern st (n, l) in
  if verdict_id st id then
    { ok = true; typing = typing_of st id; explain = None }
  else { ok = false; typing = Typing.empty; explain = failure_explain st n l }

(* Slow-validation capture: time the whole check (first checks of a
   pair include the fixpoint solve they trigger — the honest cost of
   answering that question on a cold memo) and retain it when over
   threshold, with the work-counter deltas of the window.  The deltas
   need an enabled registry; the wall clock and explanations do not,
   so [--slow-ms] works on otherwise un-instrumented sessions. *)
let slow_capture st slog n l f ~conformant ~explain_of =
  let before = List.map Telemetry.Counter.value st.slow_work in
  let t0 = Telemetry.now () in
  let result = f () in
  let t1 = Telemetry.now () in
  (* Wall clock, so a backwards NTP step can make [t1 < t0]; clamping
     keeps a clock step from recording a nonsense negative duration
     (it can still hide one genuinely slow check — acceptable). *)
  let dt = if t1 > t0 then t1 -. t0 else 0. in
  if dt *. 1000. >= Slowlog.threshold_ms slog then
    Slowlog.record slog
      { Slowlog.node = n; label = l; seconds = dt; at = t1;
        request = Slowlog.context slog;
        conformant = conformant result; explain = explain_of result;
        work =
          List.concat
            (List.map2
               (fun c v0 ->
                 let d = Telemetry.Counter.value c - v0 in
                 if d > 0 then [ (Telemetry.Counter.name c, d) ] else [])
               st.slow_work before) };
  result

let check st n l =
  match st.slowlog with
  | None -> plain_check st n l
  | Some slog ->
      slow_capture st slog n l
        (fun () -> plain_check st n l)
        ~conformant:(fun o -> o.ok)
        ~explain_of:(fun o -> o.explain)

let check_bool st n l =
  match st.slowlog with
  | None -> verdict st (n, l)
  | Some slog ->
      slow_capture st slog n l
        (fun () -> verdict st (n, l))
        ~conformant:Fun.id
        ~explain_of:(fun ok -> if ok then None else failure_explain st n l)

(* Domain-parallel bulk validation: contiguous shards of the
   association list, so outcome order is input order by construction
   and the merged report is byte-for-byte the sequential one.  Each
   shard gets a private sub-session (its own memo, SORBE counters and
   DFA transition tables) and a private telemetry registry; the only
   data crossing domains is the immutable schema and graph (or frozen
   columnar store) going in and the finished outcome lists coming back
   at join.  Nothing mutable is shared, so nothing needs a lock. *)
let check_sharded st associations =
  let engine = st.engine and schema = st.schema in
  let profile = Option.is_some st.profile in
  let instrumented = Telemetry.enabled st.tele in
  let sub_session =
    match st.columnar with
    | Some c ->
        fun telemetry -> session_columnar ~engine ~telemetry ~profile schema c
    | None ->
        let g = graph st in
        fun telemetry -> session ~engine ~telemetry ~profile schema g
  in
  let per_shard =
    Pool.run
      (List.map
         (fun run () ->
           let telemetry =
             if instrumented then Telemetry.create () else Telemetry.disabled
           in
           let sub = sub_session telemetry in
           (List.map (fun (n, l) -> check sub n l) run, telemetry))
         (Pool.shard st.domains associations))
  in
  if instrumented then
    List.iter (fun (_, tele) -> Telemetry.merge ~into:st.tele tele) per_shard;
  List.concat_map fst per_shard

(* Tracing always forces the sequential path: event sinks (and the
   span tree they rebuild) are single-threaded. *)
let check_all st associations =
  let outcomes =
    if
      st.domains > 1
      && (not (Telemetry.tracing st.tele))
      && List.compare_length_with associations 2 >= 0
    then check_sharded st associations
    else List.map (fun (n, l) -> check st n l) associations
  in
  sample_resources st;
  outcomes

let validate_graph st =
  let nodes =
    match st.columnar with
    | Some c -> Rdf.Columnar.nodes c
    | None -> Rdf.Graph.nodes (graph st)
  in
  let labels = Schema.labels st.schema in
  let typing =
    List.fold_left
      (fun acc n ->
        List.fold_left
          (fun acc l ->
            (* [check_bool], not bare [verdict]: whole-graph runs feed
               the slowlog too. *)
            if check_bool st n l then Typing.add n l acc else acc)
          acc labels)
      Typing.empty nodes
  in
  sample_resources st;
  typing

let validate ?engine schema graph n l =
  check (session ?engine schema graph) n l
