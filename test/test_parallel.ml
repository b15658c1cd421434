(* Domain-parallel bulk validation (Pool, Validate.check_all):
   sharding, the fork/join pool, telemetry merging, and the headline
   property that [Validate.check_all] at domains 1/2/4 is
   observationally identical — verdicts, explanations, typings and
   merged counter totals. *)

open Util
open Shex

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)
(* ------------------------------------------------------------------ *)

let ints k = List.init k Fun.id

let test_shard_concat () =
  List.iter
    (fun (n, len) ->
      let xs = ints len in
      check_bool
        (Printf.sprintf "concat (shard %d [0..%d)) = input" n len)
        true
        (List.concat (Pool.shard n xs) = xs))
    [ (1, 0); (1, 7); (2, 7); (3, 7); (4, 4); (4, 3); (7, 2); (5, 0) ]

let test_shard_balance () =
  List.iter
    (fun (n, len) ->
      let runs = Pool.shard n (ints len) in
      check_bool "at most n runs" true (List.length runs <= max 1 n);
      let lens = List.map List.length runs in
      let lo = List.fold_left min max_int lens
      and hi = List.fold_left max 0 lens in
      check_bool
        (Printf.sprintf "shard %d over %d: run lengths differ <= 1" n len)
        true
        (len = 0 || hi - lo <= 1);
      check_bool "no empty run for non-empty input" true
        (len = 0 || lo >= 1))
    [ (1, 6); (2, 6); (2, 7); (3, 10); (4, 4); (4, 9); (6, 3) ]

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_order () =
  let results =
    Pool.run
      (List.map (fun i () -> i * i) (ints 5))
  in
  check_bool "results in task order" true (results = [ 0; 1; 4; 9; 16 ])

let test_pool_exception () =
  (* A raising task must not orphan its siblings: every domain is
     joined (the flags below are all set) and the exception re-raised. *)
  let flags = Array.init 4 (fun _ -> Atomic.make false) in
  let tasks =
    List.map
      (fun i () ->
        Atomic.set flags.(i) true;
        if i = 2 then failwith "task 2 exploded";
        i)
      (ints 4)
  in
  (match Pool.run tasks with
  | _ -> Alcotest.fail "expected Pool.run to re-raise"
  | exception Failure msg -> check_string "exception message" "task 2 exploded" msg);
  Array.iter
    (fun flag -> check_bool "every task ran to its own end" true (Atomic.get flag))
    flags

let test_pool_domain_limit () =
  (* More tasks than the runtime has domains (128 live domains on
     OCaml 5.1): every spawned task waits for task 0, which runs on
     the calling domain after all spawns, so they are all alive at
     once and the spawns past the cap fail.  Those tasks must run on
     the calling domain, in order.  The wait is bounded so a pool
     that gives up mid-spawn does not leave domains blocked. *)
  let started = Atomic.make false in
  let task i () =
    if i = 0 then Atomic.set started true
    else begin
      let deadline = Unix.gettimeofday () +. 5. in
      while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done
    end;
    i
  in
  check_bool "results in task order" true
    (Pool.run (List.init 200 task) = ints 200)

(* ------------------------------------------------------------------ *)
(* Telemetry: merge, histogram clamp, span safety                     *)
(* ------------------------------------------------------------------ *)

let test_telemetry_merge () =
  let a = Telemetry.create () and b = Telemetry.create () in
  Telemetry.Counter.add (Telemetry.counter a "steps") 3;
  Telemetry.Counter.add (Telemetry.counter b "steps") 4;
  Telemetry.Counter.set (Telemetry.gauge b "states") 7;
  Telemetry.Histogram.observe (Telemetry.histogram a "sizes") 2;
  Telemetry.Histogram.observe (Telemetry.histogram b "sizes") 9;
  Telemetry.Histogram.observe (Telemetry.histogram b "sizes") 1;
  Telemetry.Span.time (Telemetry.span b "solve") (fun () -> ());
  Telemetry.merge ~into:a b;
  let snap = Telemetry.snapshot a in
  check_bool "counter values add" true
    (Telemetry.find_counter snap "steps" = Some 7);
  check_bool "gauge missing in [into] is created" true
    (Telemetry.find_counter snap "states" = Some 7);
  let h = Telemetry.histogram a "sizes" in
  check_int "histogram counts add" 3 (Telemetry.Histogram.count h);
  check_int "histogram sums add" 12 (Telemetry.Histogram.sum h);
  check_int "histogram max is max of maxima" 9 (Telemetry.Histogram.max_value h);
  check_int "span run counts add" 1 (Telemetry.Span.count (Telemetry.span a "solve"));
  (* [src] is read-only: merging must not disturb it. *)
  check_bool "src counter unchanged" true
    (Telemetry.find_counter (Telemetry.snapshot b) "steps" = Some 4)

let test_telemetry_merge_disabled () =
  let src = Telemetry.create () in
  Telemetry.Counter.incr (Telemetry.counter src "steps");
  Telemetry.merge ~into:Telemetry.disabled src;
  check_bool "merge into disabled is a no-op" true
    (empty_snapshot (Telemetry.snapshot Telemetry.disabled));
  let into = Telemetry.create () in
  Telemetry.merge ~into Telemetry.disabled;
  check_bool "merge of disabled is a no-op" true
    (empty_snapshot (Telemetry.snapshot into))

let test_histogram_clamp () =
  let tele = Telemetry.create () in
  let h = Telemetry.histogram tele "durations" in
  Telemetry.Histogram.observe h (-5);
  Telemetry.Histogram.observe h 0;
  check_int "negative observations clamp to 0 (still counted)" 2
    (Telemetry.Histogram.count h);
  check_int "clamped observations add 0 to the sum" 0
    (Telemetry.Histogram.sum h);
  check_int "max stays 0" 0 (Telemetry.Histogram.max_value h)

let trace_schema () =
  Schema.make_exn [ (Label.of_string "S", arc_num "a" [ 1 ]) ]

let test_span_balance () =
  (* A tracing run must emit exactly one span_end per span_begin. *)
  let tele = Telemetry.create () in
  let begins = ref 0 and ends = ref 0 in
  Telemetry.set_sink tele
    (Some
       (fun ev ->
         match ev.Telemetry.phase with
         | Telemetry.Span_begin -> incr begins
         | Telemetry.Span_end -> incr ends
         | Telemetry.Instant -> ()));
  let st = Validate.session ~telemetry:tele (trace_schema ()) example8_graph in
  ignore (Validate.check st (node "n") (Label.of_string "S"));
  check_bool "some spans were traced" true (!begins > 0);
  check_int "span_begin/span_end balanced" !begins !ends

let test_span_closed_on_raise () =
  (* Even when the matcher raises mid-evaluation (here: the sink itself
     raises on the first derivative step), the check span is closed
     with a "raised" field before the exception propagates — an
     unbalanced begin would corrupt the sink's span tree. *)
  let tele = Telemetry.create () in
  let tripped = ref false in
  let events = ref [] in
  Telemetry.set_sink tele
    (Some
       (fun ev ->
         events := ev :: !events;
         if ev.Telemetry.name = "deriv_step" && not !tripped then begin
           tripped := true;
           failwith "sink exploded"
         end));
  let st = Validate.session ~telemetry:tele (trace_schema ()) example8_graph in
  (match Validate.check st (node "n") (Label.of_string "S") with
  | _ -> Alcotest.fail "expected the sink's exception to propagate"
  | exception Failure msg -> check_string "exception propagates" "sink exploded" msg);
  let check_events phase =
    List.length
      (List.filter
         (fun ev -> ev.Telemetry.name = "check" && ev.Telemetry.phase = phase)
         !events)
  in
  check_int "check span closed despite the raise"
    (check_events Telemetry.Span_begin)
    (check_events Telemetry.Span_end);
  let raised_field =
    List.exists
      (fun ev ->
        ev.Telemetry.name = "check"
        && ev.Telemetry.phase = Telemetry.Span_end
        && List.mem_assoc "raised" ev.Telemetry.fields)
      !events
  in
  check_bool "closing span_end carries the raised field" true raised_field

(* ------------------------------------------------------------------ *)
(* Compiled caches stay session-scoped                                *)
(* ------------------------------------------------------------------ *)

let test_compiled_session_scoped () =
  (* Two sessions whose schemas reuse the same label must not share
     compiled tables: each answers from its own schema, and each
     session's cache counters reflect only its own shapes. *)
  let s = Label.of_string "S" in
  let schema_a = Schema.make_exn [ (s, arc_num "a" [ 1 ]) ] in
  let schema_b = Schema.make_exn [ (s, arc_num "b" [ 2 ]) ] in
  let g = graph_of [ t3 "n" "a" (num 1); t3 "m" "b" (num 2) ] in
  let tele_a = Telemetry.create () and tele_b = Telemetry.create () in
  let st_a =
    Validate.session ~engine:Validate.Compiled ~telemetry:tele_a schema_a g
  in
  let st_b =
    Validate.session ~engine:Validate.Compiled ~telemetry:tele_b schema_b g
  in
  check_bool "session A: n matches a->1" true (Validate.check_bool st_a (node "n") s);
  check_bool "session B: n fails b->2" false (Validate.check_bool st_b (node "n") s);
  check_bool "session B: m matches b->2" true (Validate.check_bool st_b (node "m") s);
  check_bool "session A: m fails a->1" false (Validate.check_bool st_a (node "m") s);
  let gauge tele name = Telemetry.Counter.value (Telemetry.gauge tele name) in
  check_bool "A materialised its own states" true
    (gauge tele_a "compiled_states" > 0);
  check_bool "B materialised its own states" true
    (gauge tele_b "compiled_states" > 0);
  check_int "A interned exactly its own shape's atom" 1
    (gauge tele_a "compiled_atoms");
  check_int "B interned exactly its own shape's atom" 1
    (gauge tele_b "compiled_atoms")

(* ------------------------------------------------------------------ *)
(* Session caches survive repeated checks and bulk runs               *)
(* ------------------------------------------------------------------ *)

let test_session_cache_lifetime () =
  (* The memo and compiled tables are session-scoped, not call-scoped:
     a second [check] of the same pair answers from the memo (no new
     fixpoint evaluations, no new DFA states), and a [check_all] over
     [--domains] shards — each a private sub-session — leaves the
     shared session's memo intact. *)
  let s = Label.of_string "S" in
  let schema = Schema.make_exn [ (s, arc_num "a" [ 1 ]) ] in
  let g = graph_of [ t3 "n" "a" (num 1); t3 "m" "a" (num 2) ] in
  let tele = Telemetry.create () in
  let iterations = Telemetry.counter tele "fixpoint_iterations" in
  let states = Telemetry.gauge tele "compiled_states" in
  let st =
    Validate.session ~engine:Validate.Compiled ~telemetry:tele ~domains:2
      schema g
  in
  check_bool "n conforms" true (Validate.check_bool st (node "n") s);
  check_bool "m fails" false (Validate.check_bool st (node "m") s);
  let warm_iters = Telemetry.Counter.value iterations in
  let warm_memo = Validate.memo_size st in
  let warm_states = Telemetry.Counter.value states in
  check_bool "first checks did evaluate" true (warm_iters > 0);
  check_bool "first checks built DFA states" true (warm_states > 0);
  check_int "both verdicts memoised" 2 warm_memo;
  (* Re-checking answers from the memo: no further evaluations, no
     further compiled states. *)
  check_bool "n still conforms" true (Validate.check_bool st (node "n") s);
  check_bool "m still fails" false (Validate.check_bool st (node "m") s);
  check_int "repeat checks hit the memo" warm_iters
    (Telemetry.Counter.value iterations);
  check_int "no new DFA states" warm_states (Telemetry.Counter.value states);
  (* A sharded bulk run builds private sub-sessions; the shared memo
     is neither clobbered nor grown behind the session's back. *)
  let outcomes = Validate.check_all st [ (node "n", s); (node "m", s) ] in
  check_bool "bulk verdicts agree" true
    (List.map (fun (o : Validate.outcome) -> o.Validate.ok) outcomes
    = [ true; false ]);
  check_int "bulk run leaves the memo intact" warm_memo
    (Validate.memo_size st);
  (* The shard sub-sessions merged their own iteration counts into the
     shared registry; what matters is that the shared session itself
     still answers from its memo afterwards — zero further
     evaluations. *)
  let after_bulk = Telemetry.Counter.value iterations in
  check_bool "n conforms after bulk" true (Validate.check_bool st (node "n") s);
  check_bool "m fails after bulk" false (Validate.check_bool st (node "m") s);
  check_int "shared session still answers from its memo" after_bulk
    (Telemetry.Counter.value iterations)

(* ------------------------------------------------------------------ *)
(* Atomic JSON writes                                                 *)
(* ------------------------------------------------------------------ *)

let test_write_file_atomic () =
  let dir = Filename.temp_file "shex_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "out.json" in
  Json.write_file_atomic path "{\"v\": 1}\n";
  check_string "content lands" "{\"v\": 1}\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Json.write_file_atomic path "{\"v\": 2}\n";
  check_string "overwrite replaces content" "{\"v\": 2}\n"
    (In_channel.with_open_bin path In_channel.input_all);
  check_bool "no temp files left behind" true
    (Sys.readdir dir = [| "out.json" |]);
  Sys.remove path;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* The headline property: parallel ≡ sequential                       *)
(* ------------------------------------------------------------------ *)

(* Random reference-free instances over several focus nodes.  With no
   shape references, each distinct (node, label) pair is evaluated
   exactly once whether checks run in one session or in per-shard
   sub-sessions, so even the merged counter totals must be equal — the
   strongest observational-identity statement that holds shard-count
   independently. *)

let focus_names = [ "n0"; "n1"; "n2"; "n3"; "n4"; "n5" ]

let gen_triple_at name =
  QCheck.Gen.(
    oneofl Test_props.preds >>= fun p ->
    oneofl Test_props.values >|= fun v -> t3 name p (num v))

let gen_multi_graph =
  QCheck.Gen.(
    let neighbourhood name = list_size (int_bound 4) (gen_triple_at name) in
    flatten_l (List.map neighbourhood focus_names) >|= fun tss ->
    Rdf.Graph.of_list (List.concat tss))

let labels = List.map Label.of_string [ "S"; "T" ]

let gen_instance =
  QCheck.Gen.(
    Test_props.gen_rse >>= fun e1 ->
    Test_props.gen_rse >>= fun e2 ->
    gen_multi_graph >|= fun g ->
    let schema = Schema.make_exn (List.combine labels [ e1; e2 ]) in
    let associations =
      List.concat_map
        (fun name -> List.map (fun l -> (node name, l)) labels)
        focus_names
    in
    (schema, g, associations))

let arb_instance =
  QCheck.make
    ~print:(fun (schema, g, _) ->
      Format.asprintf "%a@.%a" Schema.pp schema Rdf.Graph.pp g)
    gen_instance

let observe ~domains schema g associations =
  let telemetry = Telemetry.create () in
  let st = Validate.session ~telemetry ~domains schema g in
  let outcomes = Validate.check_all st associations in
  let metrics = Json.to_string (Telemetry.to_json (Validate.metrics st)) in
  (* Typings are asked for after the snapshot: sharded runs leave the
     session's own memo cold, so computing them costs different work
     at each [domains]. *)
  let typings =
    List.map (fun (n, l) -> Validate.typing st n l) associations
  in
  ( List.map (fun (o : Validate.outcome) -> o.Validate.ok) outcomes,
    List.map Validate.reason outcomes,
    typings,
    metrics )

let prop_parallel_equals_sequential =
  QCheck.Test.make ~count:60
    ~name:"check_all: domains 2/4 ≡ domains 1 (verdicts, blame, telemetry)"
    arb_instance
    (fun (schema, g, associations) ->
      let ok0, reasons0, typings0, metrics0 =
        observe ~domains:1 schema g associations
      in
      List.for_all
        (fun domains ->
          let ok, reasons, typings, metrics =
            observe ~domains schema g associations
          in
          ok = ok0 && reasons = reasons0
          && List.for_all2 Typing.equal typings typings0
          && String.equal metrics metrics0)
        [ 2; 4 ])

let test_tracing_stays_sequential () =
  (* With a sink installed check_all must take the sequential path:
     the event stream stays single-threaded, and the verdicts still
     agree with the untraced run. *)
  let schema = trace_schema () in
  let tele = Telemetry.create () in
  let seen = ref 0 in
  Telemetry.set_sink tele (Some (fun _ -> incr seen));
  let st =
    Validate.session ~telemetry:tele ~domains:4 schema
      (graph_of [ t3 "n" "a" (num 1) ])
  in
  let associations =
    [ (node "n", Label.of_string "S"); (num 1, Label.of_string "S") ]
  in
  let outcomes = Validate.check_all st associations in
  check_bool "traced run produced events" true (!seen > 0);
  check_bool "verdicts unchanged" true
    (List.map (fun (o : Validate.outcome) -> o.Validate.ok) outcomes
    = [ true; false ])

let tests =
  [
    Alcotest.test_case "shard: concat = input" `Quick test_shard_concat;
    Alcotest.test_case "shard: balanced runs" `Quick test_shard_balance;
    Alcotest.test_case "pool: task order" `Quick test_pool_order;
    Alcotest.test_case "pool: join + re-raise on failure" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: tasks past the domain limit" `Quick
      test_pool_domain_limit;
    Alcotest.test_case "telemetry: lossless merge" `Quick test_telemetry_merge;
    Alcotest.test_case "telemetry: merge with disabled is a no-op" `Quick
      test_telemetry_merge_disabled;
    Alcotest.test_case "telemetry: histogram clamps negatives" `Quick
      test_histogram_clamp;
    Alcotest.test_case "tracing: spans balance" `Quick test_span_balance;
    Alcotest.test_case "tracing: span closed when matcher raises" `Quick
      test_span_closed_on_raise;
    Alcotest.test_case "compiled caches are session-scoped" `Quick
      test_compiled_session_scoped;
    Alcotest.test_case "session caches survive checks and bulk runs" `Quick
      test_session_cache_lifetime;
    Alcotest.test_case "json: atomic file writes" `Quick test_write_file_atomic;
    Alcotest.test_case "tracing forces the sequential path" `Quick
      test_tracing_stays_sequential;
    QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
  ]

let suites = [ ("parallel", tests) ]
