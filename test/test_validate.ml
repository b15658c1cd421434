(* Tests for schemas and the §8 type inference algorithm, reproducing
   Examples 1–2 and 13–14 and exercising recursion. *)

open Util
open Shex

let label = Label.of_string
let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

(* The Person schema of Examples 1 and 14:
   person ↦ foaf:age→xsd:int ‖ (foaf:name→xsd:string)+ ‖ (foaf:knows→@person)* *)
let person = label "Person"

let person_expr =
  Rse.and_all
    [ Rse.arc_v (Value_set.Pred (foaf "age")) Value_set.xsd_integer;
      Rse.plus (Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string);
      Rse.star (Rse.arc_ref (Value_set.Pred (foaf "knows")) person) ]

let person_schema = Schema.make_exn [ (person, person_expr) ]

(* Example 2's graph. *)
let example2_graph =
  graph_of
    [ triple (node "john") (foaf "age") (num 23);
      triple (node "john") (foaf "name") (Rdf.Term.str "John");
      triple (node "john") (foaf "knows") (node "bob");
      triple (node "bob") (foaf "age") (num 34);
      triple (node "bob") (foaf "name") (Rdf.Term.str "Bob");
      triple (node "bob") (foaf "name") (Rdf.Term.str "Robert");
      triple (node "mary") (foaf "age") (num 50);
      triple (node "mary") (foaf "age") (num 65) ]

(* ------------------------------------------------------------------ *)
(* Schema construction                                                *)
(* ------------------------------------------------------------------ *)

let test_schema_build () =
  check_int "one label" 1 (List.length (Schema.labels person_schema));
  check_bool "find" true (Schema.find person_schema person <> None);
  check_bool "find missing" true
    (Schema.find person_schema (label "Nope") = None)

let test_schema_duplicate () =
  check_bool "duplicate rejected" true
    (Result.is_error
       (Schema.make [ (person, Rse.epsilon); (person, Rse.empty) ]))

let test_schema_undefined_ref () =
  check_bool "dangling ref rejected" true
    (Result.is_error
       (Schema.make
          [ ( person,
              Rse.arc_ref (Value_set.Pred (foaf "knows")) (label "Ghost") )
          ]))

let test_schema_recursion_detection () =
  check_bool "Person is recursive" true
    (is_recursive person_schema person);
  let flat =
    Schema.make_exn [ (label "T", arc_num "a" [ 1 ]) ]
  in
  check_bool "flat is not" false (is_recursive flat (label "T"))

let test_schema_dependencies () =
  let a = label "A" and b = label "B" and c = label "C" in
  let s =
    Schema.make_exn
      [ (a, Rse.arc_ref (Value_set.Pred (ex "p")) b);
        (b, Rse.arc_ref (Value_set.Pred (ex "p")) c);
        (c, Rse.epsilon) ]
  in
  check_int "A reaches 3" 3 (Label.Set.cardinal (Schema.dependencies s a));
  check_int "C reaches 1" 1 (Label.Set.cardinal (Schema.dependencies s c))

(* ------------------------------------------------------------------ *)
(* Example 2: john and bob are Persons, mary is not                   *)
(* ------------------------------------------------------------------ *)

let test_example2 () =
  let session = Validate.session person_schema example2_graph in
  check_bool "john" true (Validate.check_bool session (node "john") person);
  check_bool "bob" true (Validate.check_bool session (node "bob") person);
  check_bool "mary" false (Validate.check_bool session (node "mary") person)

let test_example2_backtracking_engine () =
  let session =
    Validate.session ~engine:Validate.Backtracking person_schema
      example2_graph
  in
  check_bool "john" true (Validate.check_bool session (node "john") person);
  check_bool "mary" false (Validate.check_bool session (node "mary") person)

let test_example2_auto_engine () =
  (* The Person shape is single-occurrence, so Auto runs the counting
     matcher — same verdicts, including through the recursion. *)
  let session =
    Validate.session ~engine:Validate.Auto person_schema example2_graph
  in
  check_bool "john" true (Validate.check_bool session (node "john") person);
  check_bool "bob" true (Validate.check_bool session (node "bob") person);
  check_bool "mary" false (Validate.check_bool session (node "mary") person)

let test_example2_typing () =
  let session = Validate.session person_schema example2_graph in
  let outcome = Validate.check session (node "john") person in
  check_bool "ok" true outcome.Validate.ok;
  (* John's typing also certifies bob (through foaf:knows). *)
  let typing = Validate.typing session (node "john") person in
  check_bool "john typed" true (Typing.mem (node "john") person typing);
  check_bool "bob typed" true (Typing.mem (node "bob") person typing);
  check_bool "mary not typed" false (Typing.mem (node "mary") person typing);
  check_bool "a failing check types nothing" true
    (Typing.is_empty (Validate.typing session (node "mary") person))

let test_validate_graph () =
  let session = Validate.session person_schema example2_graph in
  let typing = Validate.validate_graph session in
  check_bool "john" true (Typing.mem (node "john") person typing);
  check_bool "bob" true (Typing.mem (node "bob") person typing);
  check_bool "mary" false (Typing.mem (node "mary") person typing)

let test_failure_reason () =
  let session = Validate.session person_schema example2_graph in
  let outcome = Validate.check session (node "mary") person in
  check_bool "failed" false outcome.Validate.ok;
  check_bool "has reason" true (outcome.Validate.explain <> None);
  (match outcome.Validate.explain with
  | Some (Explain.Blame_triple { triple; _ }) ->
      check_bool "blames an age triple" true
        (Rdf.Iri.to_string (Rdf.Triple.predicate triple.Neigh.triple)
        = "http://xmlns.com/foaf/0.1/age")
  | _ -> Alcotest.fail "expected a Blame_triple explanation")

(* ------------------------------------------------------------------ *)
(* Recursion                                                          *)
(* ------------------------------------------------------------------ *)

(* A cycle: john knows bob, bob knows john — both must validate
   coinductively. *)
let test_recursive_cycle () =
  let g =
    graph_of
      [ triple (node "john") (foaf "age") (num 23);
        triple (node "john") (foaf "name") (Rdf.Term.str "John");
        triple (node "john") (foaf "knows") (node "bob");
        triple (node "bob") (foaf "age") (num 34);
        triple (node "bob") (foaf "name") (Rdf.Term.str "Bob");
        triple (node "bob") (foaf "knows") (node "john") ]
  in
  let session = Validate.session person_schema g in
  check_bool "john in cycle" true
    (Validate.check_bool session (node "john") person);
  check_bool "bob in cycle" true
    (Validate.check_bool session (node "bob") person)

(* Self-loop: alice knows herself. *)
let test_self_loop () =
  let g =
    graph_of
      [ triple (node "alice") (foaf "age") (num 30);
        triple (node "alice") (foaf "name") (Rdf.Term.str "Alice");
        triple (node "alice") (foaf "knows") (node "alice") ]
  in
  let session = Validate.session person_schema g in
  check_bool "self-knowing person" true
    (Validate.check_bool session (node "alice") person)

(* Recursion must not leak: if the referenced node is invalid, the
   referring node fails too. *)
let test_invalid_neighbour_propagates () =
  let g =
    graph_of
      [ triple (node "john") (foaf "age") (num 23);
        triple (node "john") (foaf "name") (Rdf.Term.str "John");
        triple (node "john") (foaf "knows") (node "mary");
        (* mary has no name → not a Person *)
        triple (node "mary") (foaf "age") (num 50) ]
  in
  let session = Validate.session person_schema g in
  check_bool "mary invalid" false
    (Validate.check_bool session (node "mary") person);
  check_bool "john fails through mary" false
    (Validate.check_bool session (node "john") person)

(* Example 13: p ↦ a→1 ‖ (b→{1,2})+ ‖ (c→@p)* *)
let test_example13 () =
  let p = label "p" in
  let schema =
    Schema.make_exn
      [ ( p,
          Rse.and_all
            [ arc_num "a" [ 1 ];
              Rse.plus (arc_num "b" [ 1; 2 ]);
              Rse.star (Rse.arc_ref (Value_set.Pred (ex "c")) p) ] ) ]
  in
  let g =
    graph_of
      [ t3 "x" "a" (num 1); t3 "x" "b" (num 1); t3 "x" "c" (node "y");
        t3 "y" "a" (num 1); t3 "y" "b" (num 2) ]
  in
  let session = Validate.session schema g in
  check_bool "x has shape p" true (Validate.check_bool session (node "x") p);
  check_bool "y has shape p" true (Validate.check_bool session (node "y") p);
  (* Break y: its b-value out of range. *)
  let g_bad =
    graph_of
      [ t3 "x" "a" (num 1); t3 "x" "b" (num 1); t3 "x" "c" (node "y");
        t3 "y" "a" (num 1); t3 "y" "b" (num 7) ]
  in
  let session = Validate.session schema g_bad in
  check_bool "bad y" false (Validate.check_bool session (node "y") p);
  check_bool "x fails through y" false
    (Validate.check_bool session (node "x") p)

(* Mutual recursion between two labels. *)
let test_mutual_recursion () =
  let parent = label "Parent" and child = label "Child" in
  let schema =
    Schema.make_exn
      [ ( parent,
          Rse.plus (Rse.arc_ref (Value_set.Pred (ex "hasChild")) child) );
        ( child,
          Rse.arc_ref (Value_set.Pred (ex "hasParent")) parent ) ]
  in
  let g =
    graph_of
      [ t3 "p0" "hasChild" (node "c0"); t3 "c0" "hasParent" (node "p0") ]
  in
  let session = Validate.session schema g in
  check_bool "parent" true (Validate.check_bool session (node "p0") parent);
  check_bool "child" true (Validate.check_bool session (node "c0") child)

(* Memoisation: a hub node referenced many times is only checked once;
   verdicts stay correct. *)
let test_memoisation_consistency () =
  let g =
    List.fold_left
      (fun g k ->
        let who = "fan" ^ string_of_int k in
        g
        |> Rdf.Graph.add (triple (node who) (foaf "age") (num 20))
        |> Rdf.Graph.add (triple (node who) (foaf "name") (Rdf.Term.str who))
        |> Rdf.Graph.add (triple (node who) (foaf "knows") (node "hub")))
      (graph_of
         [ triple (node "hub") (foaf "age") (num 99);
           triple (node "hub") (foaf "name") (Rdf.Term.str "Hub") ])
      (List.init 20 Fun.id)
  in
  let session = Validate.session person_schema g in
  let typing = Validate.validate_graph session in
  check_int "all 21 persons" 21 (Typing.cardinal typing)

let test_missing_label () =
  let session = Validate.session person_schema example2_graph in
  let outcome = Validate.check session (node "john") (label "Ghost") in
  check_bool "missing label fails" false outcome.Validate.ok;
  check_bool "reason" true (Validate.reason outcome <> None);
  (match outcome.Validate.explain with
  | Some (Explain.No_shape _) -> ()
  | _ -> Alcotest.fail "expected a No_shape explanation")

(* ------------------------------------------------------------------ *)
(* Typing closures                                                    *)
(* ------------------------------------------------------------------ *)

(* A k-clique of valid persons: every root's typing closure is all k
   pairs.  Once the verdicts are settled, a report builds no typing,
   so it adds no more than the verdict pass's own k·(k+1) derivative
   steps.  A typing asked for afterwards walks its closure once: each
   of the k pairs matched once, k·(k+1) steps. *)
let test_clique_typing_matches_once () =
  let k = 6 in
  let who i = node ("p" ^ string_of_int i) in
  let triples =
    List.concat_map
      (fun i ->
        triple (who i) (foaf "age") (num (20 + i))
        :: triple (who i) (foaf "name") (Rdf.Term.str ("P" ^ string_of_int i))
        :: List.filter_map
             (fun j ->
               if i = j then None
               else Some (triple (who i) (foaf "knows") (who j)))
             (List.init k Fun.id))
      (List.init k Fun.id)
  in
  let tele = Telemetry.create () in
  let session =
    Validate.session ~telemetry:tele person_schema (graph_of triples)
  in
  let steps () =
    Option.get (Telemetry.find_counter (Telemetry.snapshot tele) "deriv_steps")
  in
  let pairs = List.init k (fun i -> (who i, person)) in
  List.iter
    (fun (n, l) -> check_bool "valid" true (Validate.check_bool session n l))
    pairs;
  let verdict_steps = steps () in
  check_int "verdict pass: k·(k+1) steps" (k * (k + 1)) verdict_steps;
  let report = Report.run session pairs in
  check_int "every root conforms" k
    (List.length (Report.conformant report));
  check_bool
    (Printf.sprintf "report added %d steps, verdicts took %d"
       (steps () - verdict_steps) verdict_steps)
    true
    (steps () - verdict_steps <= verdict_steps);
  (* Every per-root typing is the whole clique. *)
  List.iter
    (fun (n, l) ->
      let before = steps () in
      check_int "per-root closure" k
        (Typing.cardinal (Validate.typing session n l));
      check_int "each pair of the closure matched once" (k * (k + 1))
        (steps () - before))
    pairs

(* ------------------------------------------------------------------ *)
(* The fixpoint memo's contract                                       *)
(* ------------------------------------------------------------------ *)

(* Person plus a label one stratum up that negates into it: a Loner has
   no knows-arc to a conforming Person, so a Loner check settles Person
   solves nested inside its own.  Loner comes first, so whole-graph runs
   check it before Person on every node. *)
let loner = label "Loner"

let stratified_schema =
  Schema.make_exn
    [ ( loner,
        Rse.not_
          (Rse.and_
             (Rse.arc_ref (Value_set.Pred (foaf "knows")) person)
             (Rse.not_ Rse.empty)) );
      (person, person_expr) ]

exception Abort

(* A solve interrupted by an exception (here a telemetry sink raising
   on the k-th evaluation span) must leave no trace of its hypotheses:
   whatever the session answers afterwards is what a fresh session
   answers.  Every k of a whole-graph run is tried.  The run's first
   check, Loner@0x, settles ring a (whose solve flips every member) and
   then ring b in Person solves nested inside its own, so the abort
   lands inside each nested solve, between them, and in the outer
   solve. *)
let test_aborted_solve_rolls_back () =
  let g =
    graph_of
      (knows_ring ~nameless:[ 3 ] "a" 6
      @ knows_ring "b" 4
      @ [ triple (node "0x") (foaf "knows") (node "a0");
          triple (node "0x") (foaf "knows") (node "b0");
          triple (node "y") (foaf "knows") (node "a0") ])
  in
  let pairs =
    List.concat_map
      (fun n -> List.map (fun l -> (n, l)) (Schema.labels stratified_schema))
      (Rdf.Graph.nodes g)
  in
  let answers st =
    List.map
      (fun (n, l) ->
        ((Validate.check st n l).Validate.ok, Validate.typing st n l))
      pairs
  in
  let fresh = Validate.session stratified_schema g in
  let expected = answers fresh in
  let spans = ref 0 in
  let counting = Telemetry.create () in
  Telemetry.set_sink counting
    (Some
       (fun ev ->
         if ev.Telemetry.phase = Telemetry.Span_begin && ev.name = "check"
         then incr spans));
  ignore
    (Validate.validate_graph
       (Validate.session ~telemetry:counting stratified_schema g));
  check_bool "the run opens evaluation spans" true (!spans > 20);
  for k = 1 to !spans do
    let tele = Telemetry.create () in
    let st = Validate.session ~telemetry:tele stratified_schema g in
    let seen = ref 0 in
    Telemetry.set_sink tele
      (Some
         (fun ev ->
           if ev.Telemetry.phase = Telemetry.Span_begin && ev.name = "check"
           then begin
             incr seen;
             if !seen = k then raise Abort
           end));
    (match Validate.validate_graph st with
    | _ -> Alcotest.failf "span %d: the sink did not abort the run" k
    | exception Abort -> ());
    Telemetry.set_sink tele None;
    let what = Printf.sprintf "abort at span %d" k in
    Alcotest.(check (list (pair bool typing))) what expected (answers st);
    check_int (what ^ ": memo size")
      (Validate.memo_size fresh) (Validate.memo_size st)
  done

(* Each storage path does the same fixpoint work on {!Util.chorded_ring},
   in the same order, and reaches the same typing; the constants pin
   both.  The order is the sequence of evaluation spans. *)
let test_same_work_same_order () =
  let g = Lazy.force chorded_ring in
  let run name make =
    let tele = Telemetry.create () in
    let order = Buffer.create 65536 in
    Telemetry.set_sink tele
      (Some
         (fun ev ->
           if ev.Telemetry.phase = Telemetry.Span_begin && ev.name = "check"
           then
             List.iter
               (function
                 | _, Telemetry.String s ->
                     Buffer.add_string order s;
                     Buffer.add_char order ' '
                 | _ -> ())
               ev.fields));
    let typed = Validate.validate_graph (make tele) in
    let counter c =
      Option.get (Telemetry.find_counter (Telemetry.snapshot tele) c)
    in
    Alcotest.check typing (name ^ ": o0–o4 conform, the ring does not")
      (List.fold_left
         (fun t j -> Typing.add (node ("o" ^ string_of_int j)) person t)
         Typing.empty (List.init 5 Fun.id))
      typed;
    Alcotest.(check (list int))
      (name ^ ": fixpoint iterations, flips, demands")
      [ 3063; 2059; 2064 ]
      (List.map counter
         [ "fixpoint_iterations"; "fixpoint_flips"; "fixpoint_demands" ]);
    Alcotest.(check string) (name ^ ": evaluation order")
      "6165fc4a713ccd2095378bab64b785c8"
      (Digest.to_hex (Digest.string (Buffer.contents order)))
  in
  run "structural" (fun telemetry ->
      Validate.session ~telemetry person_schema g);
  run "columnar" (fun telemetry ->
      Validate.session_columnar ~telemetry person_schema
        (Rdf.Columnar.of_graph g))

(* Re-checking a settled pair is a node lookup, a label lookup and a
   few array reads: nothing is allocated, on either store.  Averaged
   over 100 000 hits, any allocation at all would read 2 words or
   more per hit. *)
let test_memo_hits_allocate_the_key_only () =
  let g = Lazy.force chorded_ring in
  let roots =
    Array.of_list
      (List.map
         (fun i -> (node ("p" ^ string_of_int i), person))
         [ 0; 1; 500; 700; 999 ]
      @ List.init 5 (fun j -> (node ("o" ^ string_of_int j), person)))
  in
  let run store st =
    Array.iter (fun (n, l) -> ignore (Validate.check_bool st n l)) roots;
    let calls = 100_000 in
    let before = Gc.minor_words () in
    for i = 0 to calls - 1 do
      let n, l = roots.(i mod Array.length roots) in
      ignore (Validate.check_bool st n l)
    done;
    let per_call = (Gc.minor_words () -. before) /. float calls in
    check_bool
      (Printf.sprintf "%s: %.3f words per memo hit (0)" store per_call)
      true (per_call < 0.001)
  in
  run "structural" (Validate.session person_schema g);
  run "columnar"
    (Validate.session_columnar person_schema (Rdf.Columnar.of_graph g))

(* A datatype test of a value set ([xsd:string], [xsd:integer] arcs,
   matched and not) compares the literal's datatype with an IRI built
   once and checks its lexical form: nothing is allocated. *)
let test_datatype_tests_allocate_nothing () =
  let literals =
    [| Rdf.Literal.string "Alice"; Rdf.Literal.integer 42;
       Rdf.Literal.typed Rdf.Xsd.Integer "+007";
       Rdf.Literal.typed Rdf.Xsd.Integer "4x2" |]
  and datatypes = [| Rdf.Xsd.String; Rdf.Xsd.Integer |] in
  let test i =
    Rdf.Literal.has_datatype
      literals.(i mod Array.length literals)
      datatypes.(i / Array.length literals mod Array.length datatypes)
  in
  let calls = 10_000 and held = ref 0 in
  ignore (test 0);
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    if test i then incr held
  done;
  let words = Gc.minor_words () -. before in
  check_int "string, 42 and +007 hold their own datatype" (3 * calls / 8) !held;
  check_bool
    (Printf.sprintf "%.0f words for %d datatype tests (0)" words calls)
    true (words = 0.)

(* A frozen session numbers a node its store lacks itself: the check is
   memoised like any other and answers what a structural session
   answers. *)
let test_node_outside_the_store () =
  let anyone = label "Anyone" in
  let schema =
    Schema.make_exn
      [ (person, person_expr);
        (anyone, Rse.star (Rse.arc_ref (Value_set.Pred (foaf "knows")) anyone)) ]
  in
  let stranger = node "stranger" in
  let st =
    Validate.session_columnar schema (Rdf.Columnar.of_graph example2_graph)
  in
  let reference = Validate.session schema example2_graph in
  List.iter
    (fun l ->
      let what = "stranger@" ^ Label.to_string l in
      check_bool what
        (Validate.check_bool reference stranger l)
        (Validate.check_bool st stranger l);
      let settled = Validate.memo_size st in
      check_bool (what ^ ", again")
        (Validate.check_bool reference stranger l)
        (Validate.check_bool st stranger l);
      check_int (what ^ ": memoised once") settled (Validate.memo_size st);
      Alcotest.check typing (what ^ ": typing")
        (Validate.typing reference stranger l)
        (Validate.typing st stranger l))
    [ person; anyone ];
  check_bool "the stranger has no name, so no Person" false
    (Validate.check_bool st stranger person);
  check_bool "Person's failure is explained" true
    (Option.is_some (Validate.check st stranger person).Validate.explain)

let render_frontier =
  List.map (fun ((n, l), was) ->
      Printf.sprintf "%s@%s=%b" (Rdf.Term.to_string n) (Label.to_string l) was)

(* A label outside the schema is memoised on first sight and dropped by
   an invalidation like any other: with recorded edges, an edited
   node's pairs in label order and then what consulted them; without,
   the whole memo in the order its pairs were first met. *)
let test_unknown_label_invalidation () =
  let ghost = label "Ghost" in
  let run store st expected =
    check_bool (store ^ ": john@Person") true
      (Validate.check_bool st (node "john") person);
    check_bool (store ^ ": john@Ghost") false
      (Validate.check_bool st (node "john") ghost);
    check_bool (store ^ ": mary@Ghost") false
      (Validate.check_bool st (node "mary") ghost);
    check_int (store ^ ": four pairs settled") 4 (Validate.memo_size st);
    Alcotest.(check (list string)) (store ^ ": frontier") expected
      (render_frontier (Validate.invalidate_nodes st [ node "bob"; node "john" ]));
    check_bool (store ^ ": john@Ghost again") false
      (Validate.check_bool st (node "john") ghost);
    check_bool (store ^ ": john@Person again") true
      (Validate.check_bool st (node "john") person)
  in
  let ex n = "<http://example.org/" ^ n ^ ">" in
  run "structural"
    (Validate.session ~record_deps:true person_schema example2_graph)
    [ ex "john" ^ "@Person=true"; ex "john" ^ "@Ghost=false";
      ex "bob" ^ "@Person=true" ];
  run "columnar"
    (Validate.session_columnar person_schema
       (Rdf.Columnar.of_graph example2_graph))
    [ ex "john" ^ "@Person=true"; ex "bob" ^ "@Person=true";
      ex "john" ^ "@Ghost=false"; ex "mary" ^ "@Ghost=false" ]

(* [set_graph] turns a frozen session structural but keeps its node
   numbering: store terms keep their ids, a new node gets its own, and
   after the invalidation every verdict is the edited graph's. *)
let test_frozen_set_graph () =
  let st =
    Validate.session_columnar person_schema
      (Rdf.Columnar.of_graph example2_graph)
  in
  ignore (Validate.validate_graph st);
  let mary = node "mary" and eve = node "eve" in
  let edited =
    List.fold_left
      (fun g t -> Rdf.Graph.add t g)
      (Rdf.Graph.remove (triple mary (foaf "age") (num 65)) example2_graph)
      [ triple mary (foaf "name") (Rdf.Term.str "Mary");
        triple mary (foaf "knows") eve;
        triple eve (foaf "age") (num 30);
        triple eve (foaf "name") (Rdf.Term.str "Eve") ]
  in
  let settled = Validate.memo_size st in
  Validate.set_graph st edited;
  check_int "no recorded edges: the whole memo goes" settled
    (List.length (Validate.invalidate_nodes st [ mary; num 65; eve ]));
  let reference = Validate.session person_schema edited in
  List.iter
    (fun n ->
      check_bool
        (Rdf.Term.to_string n ^ "@Person")
        (Validate.check_bool reference n person)
        (Validate.check_bool st n person))
    (Rdf.Graph.nodes edited);
  check_bool "mary now conforms" true (Validate.check_bool st mary person);
  Alcotest.check typing "the edited graph's typing"
    (Validate.validate_graph reference) (Validate.validate_graph st)

let shexc text =
  match Shexc.Shexc_parser.parse_schema ("PREFIX ex: <http://example.org/>\n" ^ text) with
  | Ok s -> s
  | Error msg -> failwith msg

(* References checked by the far node's store id: across an inverse arc
   (the far node is the subject), along a self-loop (the focus itself,
   in both directions) and onto a literal (a store term that is never a
   subject).  Under every engine, a frozen and a structural session
   answer every node × label alike: verdict, explanation, derivative
   trace and typing. *)
let test_far_id_references () =
  let schema =
    shexc
      "<T> { ex:ok [1] ; ex:q . * }\n\
       <I> { ^ex:q @<T> }\n\
       <L> { ex:self @<L> ; ^ex:self @<L> }\n\
       <E> { }\n\
       <R> { ex:val @<E> }"
  in
  let x = Rdf.Term.str "x" in
  let g =
    graph_of
      [ t3 "s1" "ok" (num 1); t3 "s1" "q" (node "n1"); t3 "s2" "q" (node "n2");
        t3 "a" "self" (node "a"); t3 "b" "self" (node "c");
        t3 "r1" "val" x; t3 "r2" "val" (node "s1"); t3 "r3" "val" (num 1) ]
  in
  let labels = Schema.labels schema in
  let answers st =
    List.concat_map
      (fun n ->
        List.map
          (fun l ->
            let o = Validate.check st n l in
            Printf.sprintf "%s@%s %b %s" (Rdf.Term.to_string n)
              (Label.to_string l) o.Validate.ok
              (match o.Validate.explain with
              | None -> "-"
              | Some e -> Json.to_string ~minify:true (Explain.to_json e)))
          labels)
      (Rdf.Graph.nodes g)
  in
  let traces st =
    List.concat_map
      (fun n ->
        List.map
          (fun l ->
            Format.asprintf "%s@%s %a" (Rdf.Term.to_string n)
              (Label.to_string l)
              (Format.pp_print_option Deriv.pp_trace)
              (Validate.trace st n l))
          labels)
      (Rdf.Graph.nodes g)
  in
  let expected =
    List.fold_left
      (fun t (n, l) -> Typing.add n (label l) t)
      Typing.empty
      [ (node "s1", "T"); (node "n1", "I"); (node "a", "L");
        (node "r1", "R"); (node "r3", "R"); (x, "E"); (num 1, "E");
        (node "n1", "E"); (node "n2", "E"); (node "c", "E") ]
  in
  List.iter
    (fun (name, engine) ->
      let structural () = Validate.session ~engine schema g
      and frozen () =
        Validate.session_columnar ~engine schema (Rdf.Columnar.of_graph g)
      in
      Alcotest.(check (list string))
        (name ^ ": verdicts and explanations")
        (answers (structural ())) (answers (frozen ()));
      Alcotest.(check (list string))
        (name ^ ": traces")
        (traces (structural ())) (traces (frozen ()));
      Alcotest.check typing (name ^ ": structural typing") expected
        (Validate.validate_graph (structural ()));
      Alcotest.check typing (name ^ ": frozen typing") expected
        (Validate.validate_graph (frozen ())))
    [ ("derivatives", Validate.Derivatives);
      ("backtracking", Validate.Backtracking); ("auto", Validate.Auto);
      ("compiled", Validate.Compiled) ]

(* Once every verdict is settled, a report is a memo lookup and an
   entry per association: the key tuple, the check_all cell, the entry
   and its cell, 14 words.  Nothing in it grows with what the verdict
   relies on — each person's typing here is the whole 2 000-person
   ring. *)
let test_settled_report_allocation () =
  let k = 2000 in
  let st = Validate.session person_schema (graph_of (knows_ring "p" k)) in
  ignore (Validate.validate_graph st);
  let pairs = List.init k (fun i -> (node ("p" ^ string_of_int i), person)) in
  let before = Gc.minor_words () in
  let report = Report.run st pairs in
  let per_pair = (Gc.minor_words () -. before) /. float k in
  check_int "every person conforms" k (List.length (Report.conformant report));
  check_bool
    (Printf.sprintf "%.1f words per association (at most 16)" per_pair)
    true (per_pair <= 16.)

(* ------------------------------------------------------------------ *)
(* Typing operations                                                  *)
(* ------------------------------------------------------------------ *)

(* [validate_graph] builds its typing in one ascending pass over the
   store's nodes: the same typing, printed the same, as adding every
   conforming (node, label) pair one at a time — with nodes of two
   labels, of one and of none. *)
let test_validate_graph_typing_built () =
  let schema =
    shexc "<Any> { ex:p . * }\n<One> { ex:p [1] }\n<Knows> { ex:k @<Any> + }"
  in
  let n i = node ("n" ^ string_of_int i) in
  let g =
    graph_of
      (List.init 50 (fun i ->
           match i mod 4 with
           | 0 -> triple (n i) (ex "p") (num 1)
           | 1 -> triple (n i) (ex "p") (num 2)
           | 2 -> triple (n i) (ex "k") (n (i - 1))
           | _ -> triple (n i) (ex "q") (num 1)))
  in
  let labels = Schema.labels schema in
  List.iter
    (fun (store, st) ->
      let built = Validate.validate_graph st in
      let added =
        List.fold_left
          (fun t n ->
            List.fold_left
              (fun t l -> if Validate.check_bool st n l then Typing.add n l t else t)
              t labels)
          Typing.empty (Rdf.Graph.nodes g)
      in
      Alcotest.check typing (store ^ ": ≡ the Typing.add fold") added built;
      check_string (store ^ ": printed alike")
        (Format.asprintf "%a" Typing.pp added)
        (Format.asprintf "%a" Typing.pp built);
      let with_labels k =
        List.length
          (List.filter
             (fun n -> Label.Set.cardinal (Typing.labels_of n built) = k)
             (Rdf.Graph.nodes g))
      in
      check_int (store ^ ": nodes of two labels") 13 (with_labels 2);
      check_int (store ^ ": nodes of none") 12 (with_labels 0))
    [ ("structural", Validate.session schema g);
      ("frozen", Validate.session_columnar schema (Rdf.Columnar.of_graph g)) ]

let test_typing_ops () =
  let t1 = Typing.singleton (node "a") person in
  let t2 = Typing.add (node "a") (label "Other") Typing.empty in
  let t = Typing.combine t1 t2 in
  check_int "two labels on a" 2 (Typing.cardinal t);
  check_bool "mem" true (Typing.mem (node "a") person t);
  check_int "one node" 1 (List.length (Typing.nodes t));
  check_bool "empty" true (Typing.is_empty Typing.empty);
  check_int "to_list" 2 (List.length (Typing.to_list t));
  Alcotest.check typing "combine idempotent" t (Typing.combine t t)

let suites =
  [ ( "schema",
      [ Alcotest.test_case "build and lookup" `Quick test_schema_build;
        Alcotest.test_case "duplicate labels" `Quick test_schema_duplicate;
        Alcotest.test_case "undefined references" `Quick
          test_schema_undefined_ref;
        Alcotest.test_case "recursion detection" `Quick
          test_schema_recursion_detection;
        Alcotest.test_case "dependencies" `Quick test_schema_dependencies ]
    );
    ( "validate.example2",
      [ Alcotest.test_case "john/bob yes, mary no" `Quick test_example2;
        Alcotest.test_case "backtracking engine agrees" `Quick
          test_example2_backtracking_engine;
        Alcotest.test_case "auto engine agrees" `Quick
          test_example2_auto_engine;
        Alcotest.test_case "typing includes neighbours" `Quick
          test_example2_typing;
        Alcotest.test_case "validate_graph" `Quick test_validate_graph;
        Alcotest.test_case "failure reasons" `Quick test_failure_reason ] );
    ( "validate.recursion",
      [ Alcotest.test_case "two-node cycle" `Quick test_recursive_cycle;
        Alcotest.test_case "self-loop" `Quick test_self_loop;
        Alcotest.test_case "invalid neighbour propagates" `Quick
          test_invalid_neighbour_propagates;
        Alcotest.test_case "Example 13" `Quick test_example13;
        Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
        Alcotest.test_case "memoised hub" `Quick
          test_memoisation_consistency;
        Alcotest.test_case "missing label" `Quick test_missing_label ] );
    ( "validate.typing",
      [ Alcotest.test_case "typing operations" `Quick test_typing_ops;
        Alcotest.test_case "clique closures match each pair once" `Quick
          test_clique_typing_matches_once;
        Alcotest.test_case "validate_graph builds the Typing.add typing"
          `Quick test_validate_graph_typing_built ] );
    ( "validate.memo",
      [ Alcotest.test_case "an aborted solve rolls back" `Quick
          test_aborted_solve_rolls_back;
        Alcotest.test_case "same work, same order on every store" `Quick
          test_same_work_same_order;
        Alcotest.test_case "memo hits allocate the key only" `Quick
          test_memo_hits_allocate_the_key_only;
        Alcotest.test_case "datatype tests allocate nothing" `Quick
          test_datatype_tests_allocate_nothing;
        Alcotest.test_case "a node the frozen store lacks" `Quick
          test_node_outside_the_store;
        Alcotest.test_case "a label outside the schema is invalidated" `Quick
          test_unknown_label_invalidation;
        Alcotest.test_case "set_graph on a frozen session" `Quick
          test_frozen_set_graph;
        Alcotest.test_case "references by far id agree on every store" `Quick
          test_far_id_references;
        Alcotest.test_case "a settled report allocates O(1) per pair" `Quick
          test_settled_report_allocation ] ) ]
