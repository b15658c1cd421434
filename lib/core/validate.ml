type engine = Derivatives | Backtracking | Auto | Compiled

module Term_tbl = Hashtbl.Make (Rdf.Term)
module Label_tbl = Hashtbl.Make (Label)
module Int_set = Set.Make (Int)

type store = Structural of Rdf.Graph.t | Frozen of Rdf.Columnar.t

(* One label's matcher, built once per session: the engine that runs
   (its name labels the label's [check] spans — Auto resolves per
   shape), whether its neighbourhoods include incoming triples (the
   shape has an inverse arc), and the run itself over that
   neighbourhood.  Every engine matches the Σgn the session reads, so
   {!evaluate} has one path whatever the engine or the store. *)
type matcher = {
  name : string;
  inverse : bool;
  run : check:Neigh.ref_check -> Rdf.Term.t -> Neigh.dtriple list -> bool;
}

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
   cell bundle per shape label, cached in the label's entry so the hot
   path resolves a label's cells once; plus, per attributed engine, how much
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

(* A label at its index: the schema's in {!Schema.labels} order, then
   any other label a check names, added on first sight. *)
type label_entry = {
  label : Label.t;
  shape : Schema.shape option;
  stratum : int;
  refs : (Label.t * int) array;  (* the shape's references, by index *)
  matcher : matcher Lazy.t;
      (* built on first evaluation: the SORBE counters and DFA
         transition tables live here *)
  mutable cells : prof_cells option;  (* profiled sessions *)
  mutable slots : int array array;  (* node id → pair id or -1, chunked *)
}

type session = {
  engine : engine;
  schema : Schema.t;
  mutable store : store;
      (* what every neighbourhood is read from: the structural indexes
         of a graph, or the offset slices of a frozen columnar store's
         int columns, read by node id.  Canonical ids keep the slices
         in triple order, so verdicts, traces and reports are
         byte-identical either way (the oracle's interned arms pin
         this).  Mutable for {!set_graph}: incremental sessions swap in
         the edited graph and invalidate the affected memo entries. *)
  domains : int;
      (* requested bulk-validation parallelism; 1 = sequential *)
  (* Node ids, fixed at creation: a term of the frozen store the session
     was created over keeps its store id; [local] numbers the rest. *)
  frozen : Rdf.Interner.t option;
  base : int;
  local : int Term_tbl.t;
  mutable local_terms : Rdf.Term.t array array;  (* id - base → term, chunked *)
  label_ids : int Label_tbl.t;         (* label → label index *)
  mutable labels : label_entry array;  (* label index → entry *)
  (* The verdict memo, indexed by pair id (see {!pair}).  Ids are
     never recycled: a pair whose verdict is invalidated goes back to
     [unknown] and keeps its id, so the arrays hold one entry per
     distinct pair the session has looked up. *)
  mutable pairs : int array;  (* id → node id · 2³¹ + label index *)
  mutable state : Bytes.t;             (* id → one of the states below *)
  mutable dependents : int list array;
      (* id → ids whose evaluation consulted it while it was a
         candidate; filled for the running solve's candidates only and
         cleared when that solve ends *)
  mutable count : int;                 (* ids handed out *)
  mutable settled : int;               (* ids in a settled state *)
  dep_record : dep_record option;     (* Some iff [record_deps] *)
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

(* A label's matcher (experiments E4, E9): Auto uses the linear
   counting matcher when the shape is in the single-occurrence fragment
   and the lazy DFA otherwise; Compiled always uses the DFA. *)
let matcher st e =
  let table () =
    let dfa = Dfa.compile ~instr:st.dfa_instr e in
    ("compiled", fun ~check n dts -> Dfa.matches ~check dfa n dts)
  in
  let name, run =
    match st.engine with
    | Derivatives ->
        ( "derivatives",
          fun ~check n dts -> Deriv.matches ~check ~instr:st.deriv_instr n dts e )
    | Backtracking ->
        ( "backtracking",
          fun ~check n dts ->
            Backtrack.matches ~check ~instr:st.back_instr n dts e )
    | Compiled -> table ()
    | Auto -> (
        match Sorbe.of_rse e with
        | Some sorbe ->
            ( "sorbe",
              fun ~check n dts ->
                Sorbe.matches ~check ~instr:st.sorbe_instr n dts sorbe )
        | None -> table ())
  in
  { name; inverse = Rse.has_inverse e; run }

(* A label's entry; [st.label_ids] already numbers what its shape refers to. *)
let label_entry st l =
  let shape = Schema.find_shape st.schema l in
  let refs = Option.fold ~none:Label.Set.empty ~some:(fun s -> Rse.refs s.Schema.expr) shape in
  let index r = (r, Label_tbl.find st.label_ids r) in
  { label = l; shape; stratum = Schema.stratum st.schema l;
    refs = Array.of_seq (Seq.map index (Label.Set.to_seq refs));
    matcher = lazy (matcher st (Option.get shape).Schema.expr);
    cells = None; slots = [||] }

let make_session ~engine ~telemetry ~domains ~record_deps ~profile ~slow_ms
    store schema =
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
  let frozen =
    match store with Frozen c -> Some (Rdf.Columnar.interner c) | _ -> None
  and label_ids = Label_tbl.create 16 in
  List.iteri (fun i l -> Label_tbl.replace label_ids l i) (Schema.labels schema);
  let st =
    { engine; schema; store;
      domains = max 1 domains;
      frozen; base = Option.fold ~none:0 ~some:Rdf.Interner.cardinal frozen;
      local = Term_tbl.create 64; local_terms = [||]; label_ids; labels = [||];
      pairs = [||]; state = Bytes.empty;
      dependents = [||]; count = 0; settled = 0;
      dep_record =
        (if record_deps then Some { deps = [||]; rdeps = [||] } else None);
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
  in
  st.labels <- Array.of_list (List.map (label_entry st) (Schema.labels schema));
  st

let session ?(engine = Derivatives) ?(telemetry = Telemetry.disabled)
    ?(domains = 1) ?(record_deps = false) ?(profile = false) ?slow_ms schema
    graph =
  make_session ~engine ~telemetry ~domains ~record_deps ~profile ~slow_ms
    (Structural graph) schema

let session_columnar ?(engine = Derivatives) ?(telemetry = Telemetry.disabled)
    ?(domains = 1) ?(profile = false) ?slow_ms schema columnar =
  make_session ~engine ~telemetry ~domains ~record_deps:false ~profile
    ~slow_ms (Frozen columnar) schema

let schema st = st.schema

let graph st =
  match st.store with
  | Structural g -> g
  | Frozen c -> Rdf.Columnar.to_graph c

let columnar_store st =
  match st.store with Frozen c -> Some c | Structural _ -> None

let engine st = st.engine
let memo_size st = st.settled
let profiling st = Option.is_some st.profile
let slowlog st = st.slowlog

let set_slow_ms st = function
  | None -> st.slowlog <- None
  | Some ms -> (
      match st.slowlog with
      | Some slog -> Slowlog.set_threshold_ms slog ms
      | None -> st.slowlog <- Some (Slowlog.create ~threshold_ms:ms ()))

let set_graph st graph = st.store <- Structural graph

(* Σgn of the node with id [nid] and term [n] through whichever store
   the session holds: the offset slices of the frozen store, by id —
   below [st.base] the canonical store id, from [st.base] up a term the
   store lacks, whose slices are empty — or the structural indexes, by
   term.  Either way the list is in triple order, so every engine sees
   the same consumption sequence.  The only place a session reads its
   store for matching. *)
let neighbourhood st ~include_inverse nid n =
  match st.store with
  | Frozen c -> Neigh.of_id ~include_inverse nid c
  | Structural g -> Neigh.of_node ~include_inverse n g

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

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Arrays indexed by node id grow one 1 024-slot chunk at a time:
   doubling would leave each old copy to the major GC, and those copies
   raised the peak heap of sessions that number nodes as they go. *)
let chunk_get a i absent =
  let k = i lsr 10 in
  if k < Array.length a && Array.length a.(k) > 0 then a.(k).(i land 1023)
  else absent

let chunk_set a i v fill =
  let k = i lsr 10 in
  let a = if k < Array.length a then a else extend a (max (k + 1) (2 * k)) [||] in
  if Array.length a.(k) = 0 then a.(k) <- Array.make 1024 fill;
  a.(k).(i land 1023) <- v;
  a

(* Node, label and pair lookups allocate nothing on a hit ([find], not
   [find_opt]), so neither does a memo hit.  [find_node] is -1 for a
   node the session has not numbered. *)
let find_node st n =
  let id =
    match st.frozen with Some ids -> Rdf.Interner.find_id ids n | None -> -1
  in
  if id >= 0 then id else try Term_tbl.find st.local n with Not_found -> -1

let node_id st n =
  let id = find_node st n in
  if id >= 0 then id
  else begin
    let id = st.base + Term_tbl.length st.local in
    Term_tbl.add st.local n id;
    st.local_terms <- chunk_set st.local_terms (id - st.base) n n;
    id
  end

(* The far node of a directed triple: a frozen slice row carries its
   id, so no term is hashed; any other triple numbers its far term. *)
let far_node st dt =
  let far = Neigh.far_id dt in
  if far >= 0 then far else node_id st (Neigh.far dt)

let node_term st id =
  match st.frozen with
  | Some ids when id < st.base -> Rdf.Interner.resolve ids id
  | _ -> st.local_terms.((id - st.base) lsr 10).((id - st.base) land 1023)

let label_index st l =
  match Label_tbl.find st.label_ids l with
  | i -> i
  | exception Not_found ->
      let i = Array.length st.labels in
      st.labels <- Array.append st.labels [| label_entry st l |];
      Label_tbl.add st.label_ids l i;
      i

(* A reference's label index, from the few labels its shape names. *)
let ref_index st entry l =
  let rec go i =
    if i = Array.length entry.refs then label_index st l
    else
      let l', k = entry.refs.(i) in
      if Label.equal l l' then k else go (i + 1)
  in
  go 0

(* -1 when there is none, as for the node id -1 ([lsr] makes it huge). *)
let find_pair st n li = chunk_get st.labels.(li).slots n (-1)

(* The pair id of (node id, label index), handed out on first sight;
   that may grow the per-id arrays, so re-read them from [st] after. *)
let pair st n li =
  let found = find_pair st n li in
  if found >= 0 then found
  else begin
    let id = st.count in
    if id = Array.length st.pairs then begin
      let cap = max 256 (2 * id) in
      st.pairs <- extend st.pairs cap 0;
      st.dependents <- extend st.dependents cap [];
      let state = Bytes.make cap (Char.chr unknown) in
      Bytes.blit st.state 0 state 0 id;
      st.state <- state;
      match st.dep_record with
      | Some r ->
          r.deps <- extend r.deps cap Int_set.empty;
          r.rdeps <- extend r.rdeps cap Int_set.empty
      | None -> ()
    end;
    st.labels.(li).slots <- chunk_set st.labels.(li).slots n id (-1);
    st.pairs.(id) <- (n lsl 31) lor li;
    st.count <- id + 1;
    id
  end

(* Both numbers stay below 2³¹ in any session that fits in memory. *)
let entry_of st id = st.labels.(st.pairs.(id) land 0x7fff_ffff)
let label_of st id = (entry_of st id).label
let node_id_of st id = st.pairs.(id) lsr 31
let node_of st id = node_term st (node_id_of st id)

(* Ids sorted and deduplicated in (node term, label) order.  Requeues
   and frontier walks visit pairs in this order, not in numbering
   order, so the evaluation sequence, the fixpoint counters and the
   frontier list do not depend on which pair a session met first. *)
let in_pair_order st ids =
  let compare a b =
    let c = Rdf.Term.compare (node_of st a) (node_of st b) in
    if c <> 0 then c else Label.compare (label_of st a) (label_of st b)
  in
  List.sort_uniq compare ids

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

type outcome = { ok : bool; explain : Explain.t option }

let reason o = Option.map Explain.to_string o.explain

let prof_cells p entry =
  match entry.cells with
  | Some c -> c
  | None ->
      let s = Label.to_string entry.label in
      let c =
        { c_checks = Telemetry.labelled p.p_checks s;
          c_seconds = Telemetry.labelled p.p_seconds s;
          c_work =
            Array.map (fun (_, fam) -> Telemetry.labelled fam s) p.p_work }
      in
      entry.cells <- Some c;
      c

(* Wrap one matcher run with self-cost attribution: counter deltas and
   wall time of the window, minus whatever nested evaluations (lower
   strata settled inline through [check_ref]) charged to their own
   shapes meanwhile.  Every unit of work is charged exactly once, so
   summing a family reproduces the global counter — the ≥95 %
   attribution-coverage invariant is structural, not statistical. *)
let profiled_run p n entry run () =
  let cells = prof_cells p entry in
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
  let entry = entry_of st id in
  let nid = node_id_of st id in
  let n = node_term st nid and l = entry.label in
  match entry.shape with
  | None -> (false, [])
  | Some { Schema.focus = Some vo; _ }
    when not (Value_set.obj_mem vo n) ->
      (* The focus node itself fails the shape's node constraint. *)
      (false, [])
  | Some _ ->
      let used = ref [] in
      let tracing = Telemetry.tracing st.tele in
      let check l' dt =
        let li' = ref_index st entry l' in
        let q = pair st (far_node st dt) li' in
        used := q :: !used;
        let settled = is_settled st q in
        let answer =
          if settled then state st q = settled_true
          else if st.labels.(li').stratum < entry.stratum then begin
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
                 ( "on_node",
                   Telemetry.String (Rdf.Term.to_string (Neigh.far dt)) );
                 ("on_shape", Telemetry.String (Label.to_string l'));
                 ("answer", Telemetry.Bool answer);
                 ("settled", Telemetry.Bool settled) ]);
        answer
      in
      (* The neighbourhood is read inside [run], so profiled runs
         charge its extraction to the shape. *)
      let m = Lazy.force entry.matcher in
      let run () =
        m.run ~check n (neighbourhood st ~include_inverse:m.inverse nid n)
      in
      let run =
        match st.profile with
        | Some p -> profiled_run p n entry run
        | None -> run
      in
      if tracing then
        Telemetry.emit st.tele
          (Telemetry.span_begin "check"
             [ ("node", Telemetry.String (Rdf.Term.to_string n));
               ("shape", Telemetry.String (Label.to_string l));
               ("engine", Telemetry.String m.name) ]);
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
                     (Label.to_string (label_of st p)))
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
              Telemetry.emit st.tele
                (Telemetry.instant "fixpoint_flip"
                   [ ("node", Telemetry.String (Rdf.Term.to_string (node_of st p)));
                     ("shape", Telemetry.String (Label.to_string (label_of st p)));
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

let verdict st n l = verdict_id st (pair st (node_id st n) (label_index st l))

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
    ((node_of st id, label_of st id), was)
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
      (* An edited node's settled pairs, in label order. *)
      List.iter
        (fun n ->
          let ids = List.init (Array.length st.labels) (find_pair st (find_node st n)) in
          List.iter push (in_pair_order st (List.filter (fun id -> id >= 0) ids)))
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

(* The typing τ of §8's judgement Γ ⊢ n ≃ l ⇒ τ: the root fact plus
   the facts its match relies on, transitively — how the typed
   derivative combines sub-typings with ⊎.  Each pair of the closure
   is matched once under the settled verdicts to list what it
   consults; nothing is kept, so a typing is paid for only when asked
   for (DESIGN.md §8). *)
let typing st n l =
  let rec closure visited p =
    if Int_set.mem p visited || not (verdict_id st p) then visited
    else
      let _, used =
        evaluate st ~value:(verdict_id st) ~demand:(fun _ -> ()) p
      in
      List.fold_left closure (Int_set.add p visited) used
  in
  Int_set.fold
    (fun id acc -> Typing.add (node_of st id) (label_of st id) acc)
    (closure Int_set.empty (pair st (node_id st n) (label_index st l)))
    Typing.empty

(* References answered by settled verdicts, solving a pair on first
   demand: what traces and explanations consult.  The far node is
   numbered as [evaluate]'s check numbers it. *)
let settled_check st l' dt =
  verdict_id st (pair st (far_node st dt) (label_index st l'))

let trace st n l =
  Option.map
    (fun { Schema.expr = e; _ } ->
      let dts =
        neighbourhood st ~include_inverse:(Rse.has_inverse e) (find_node st n) n
      in
      Deriv.matches_trace_dts ~check:(settled_check st) n dts e)
    (Schema.find_shape st.schema l)

let failure_explain st n l =
  match Schema.find_shape st.schema l with
  | None -> Some (Explain.No_shape { node = n; label = l })
  | Some { Schema.focus = Some vo; _ } when not (Value_set.obj_mem vo n) ->
      Some (Explain.Node_constraint { node = n; constraint_ = vo })
  | Some _ ->
      Option.bind (trace st n l)
        (Explain.of_trace ~check:(settled_check st) ~node:n ~label:l)

let plain_check st n l =
  if verdict st n l then { ok = true; explain = None }
  else { ok = false; explain = failure_explain st n l }

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

let check_bool_at st n nid li =
  match st.slowlog with
  | None -> verdict_id st (pair st nid li)
  | Some slog ->
      let l = st.labels.(li).label in
      slow_capture st slog n l
        (fun () -> verdict_id st (pair st nid li))
        ~conformant:Fun.id
        ~explain_of:(fun ok -> if ok then None else failure_explain st n l)

let check_bool st n l = check_bool_at st n (node_id st n) (label_index st l)

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
  let sub_session telemetry =
    make_session ~engine ~telemetry ~domains:1 ~record_deps:false ~profile
      ~slow_ms:None st.store schema
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

(* A frozen store's nodes come numbered: the roots need no lookup.  Both
   stores list nodes in term order, so the typing builds ascending. *)
let validate_graph st =
  let labels = List.length (Schema.labels st.schema) in
  (* [check_bool_at], not bare [verdict]: the slowlog sees these too. *)
  let rec labels_of n nid li acc =
    if li = labels then acc
    else
      labels_of n nid (li + 1)
        (if check_bool_at st n nid li then Label.Set.add st.labels.(li).label acc
         else acc)
  in
  let visit acc n nid = Typing.push n (labels_of n nid 0 Label.Set.empty) acc in
  let typed =
    match st.store with
    | Frozen c ->
        List.fold_left
          (fun acc nid -> visit acc (Rdf.Columnar.term c nid) nid)
          Typing.ascending (Rdf.Columnar.node_ids c)
    | Structural g ->
        List.fold_left
          (fun acc n -> visit acc n (node_id st n))
          Typing.ascending (Rdf.Graph.nodes g)
  in
  sample_resources st;
  Typing.of_ascending typed

let validate ?engine schema graph n l =
  check (session ?engine schema graph) n l
