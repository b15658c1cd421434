(* Static-analysis tests: emptiness/satisfiability, containment,
   dead-rule detection, the pre-validation optimizer, and the
   equality/ordering seams the analysis leans on (ISSUE 10). *)

open Util
open Shex

let lbl = Label.of_string
let plbl name = lbl ("http://example.org/" ^ name)
let unsat_obj = Value_set.Obj_not Value_set.Obj_any

(* ------------------------------------------------------------------ *)
(* equal ⇔ compare = 0 (the ordering seam ACI normalisation and the   *)
(* analysis visited-set both lean on)                                  *)
(* ------------------------------------------------------------------ *)

let gen_case_expr =
  (* Expressions drawn from the oracle's own schema generator — the
     same distribution the analysis is fuzzed with. *)
  QCheck.Gen.(
    int_bound 100_000 >>= fun seed ->
    bool >>= fun extended ->
    let mode = if extended then Workload.Rand_gen.Extended else Workload.Rand_gen.Surface in
    let case = Workload.Rand_gen.case ~mode seed in
    oneofl (List.map snd (Schema.rules case.Workload.Rand_gen.schema)))

let arb_case_expr = QCheck.make ~print:Rse.to_string gen_case_expr

let prop_equal_iff_compare_zero =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"equal a b ⇔ compare a b = 0"
       (QCheck.pair arb_case_expr arb_case_expr)
       (fun (a, b) ->
         Bool.equal (Rse.equal a b) (Rse.compare a b = 0)
         && Rse.compare a a = 0
         && Rse.compare b b = 0))

let prop_compare_antisymmetric =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"compare is a total order"
       (QCheck.pair arb_case_expr arb_case_expr)
       (fun (a, b) ->
         Rse.compare a b = -Rse.compare b a
         && (Rse.compare a b <> 0 || Rse.equal a b)))

let prop_arc_equal_iff_compare_zero =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"arc_equal a b ⇔ arc_compare a b = 0"
       (QCheck.pair arb_case_expr arb_case_expr)
       (fun (a, b) ->
         List.for_all
           (fun x ->
             List.for_all
               (fun y ->
                 Bool.equal (Rse.arc_equal x y) (Rse.arc_compare x y = 0))
               (Rse.arcs a @ Rse.arcs b))
           (Rse.arcs a @ Rse.arcs b)))

(* ------------------------------------------------------------------ *)
(* Emptiness                                                           *)
(* ------------------------------------------------------------------ *)

let test_satisfiable_witness () =
  let s = Schema.make_exn [ (plbl "S", example5) ] in
  match Analysis.shape_satisfiable s (plbl "S") with
  | Analysis.Satisfiable w ->
      (* the witness must replay: focus conforms in the witness graph *)
      let sess = Validate.session s w.Analysis.graph in
      check_bool "witness validates" true
        (Validate.check_bool sess w.Analysis.focus (plbl "S"))
  | v -> Alcotest.failf "expected satisfiable, got %a" Analysis.pp_emptiness v

let test_empty_shape () =
  (* an arc whose object set is ¬⊤ can never be matched *)
  let s =
    Schema.make_exn [ (plbl "E", Rse.arc_v (Value_set.Pred (ex "a")) unsat_obj) ]
  in
  match Analysis.shape_satisfiable s (plbl "E") with
  | Analysis.Empty -> ()
  | v -> Alcotest.failf "expected empty, got %a" Analysis.pp_emptiness v

let test_empty_by_contradiction () =
  (* ¬((⊤→⊤)⋆) is unsatisfiable: the negated universe matches no bag.
     (Note x ‖ ¬x is NOT a contradiction here — ‖ splits the bag, and
     ¬x absorbs the empty remainder.) *)
  let univ = Rse.star (Rse.arc_v Value_set.Pred_any Value_set.Obj_any) in
  let s = Schema.make_exn [ (plbl "C", Rse.not_ univ) ] in
  match Analysis.shape_satisfiable s (plbl "C") with
  | Analysis.Empty -> ()
  | v -> Alcotest.failf "expected empty, got %a" Analysis.pp_emptiness v

let test_recursive_satisfiable () =
  (* R ::= (next → @R)? — coinductively satisfiable via a cycle *)
  let s =
    Schema.make_exn
      [ (plbl "R", Rse.opt (Rse.arc_ref (Value_set.Pred (ex "next")) (plbl "R"))) ]
  in
  match Analysis.shape_satisfiable s (plbl "R") with
  | Analysis.Satisfiable w ->
      let sess = Validate.session s w.Analysis.graph in
      check_bool "recursive witness validates" true
        (Validate.check_bool sess w.Analysis.focus (plbl "R"))
  | v -> Alcotest.failf "expected satisfiable, got %a" Analysis.pp_emptiness v

let test_recursive_dead () =
  (* D ::= next → @D ‖ x → ¬⊤: the conjunct is dead, so the whole
     recursive rule is *)
  let s =
    Schema.make_exn
      [
        ( plbl "D",
          Rse.and_
            (Rse.arc_ref (Value_set.Pred (ex "next")) (plbl "D"))
            (Rse.arc_v (Value_set.Pred (ex "x")) unsat_obj) );
      ]
  in
  match Analysis.shape_satisfiable s (plbl "D") with
  | Analysis.Empty -> ()
  | v -> Alcotest.failf "expected empty, got %a" Analysis.pp_emptiness v

let test_work_budget_stops_search () =
  (* (¬a ‖ ¬b)⋆ matches every bag, so the search for a rejecting state
     never succeeds, and its derivatives grow with every step.  Only
     the work budget stops it before the state cap. *)
  let neg p = Rse.not_ (Rse.arc_v (Value_set.Pred (ex p)) Value_set.Obj_any) in
  let s =
    Schema.make_exn [ (plbl "N", Rse.star (Rse.and_ (neg "a") (neg "b"))) ]
  in
  let tele = Telemetry.create () in
  (match Analysis.shape_satisfiable ~tele ~max_states:2000 s (plbl "N") with
  | Analysis.Satisfiable _ -> ()
  | v -> Alcotest.failf "expected satisfiable, got %a" Analysis.pp_emptiness v);
  let states =
    Telemetry.Counter.value
      (Telemetry.counter tele "analysis_states_explored")
  in
  if states >= 2000 then
    Alcotest.failf "the search visited %d states: no work budget stopped it"
      states

(* ν-consistency: when the analysis declares a shape empty, no
   generated graph may produce a conforming node. *)
let prop_empty_means_no_match =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"Empty shapes never validate"
       (QCheck.make QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let case = Workload.Rand_gen.case seed in
         let schema = case.Workload.Rand_gen.schema in
         let labels = Schema.labels schema in
         List.for_all
           (fun l ->
             match Analysis.shape_satisfiable schema l with
             | Analysis.Empty ->
                 let sess = Validate.session schema case.Workload.Rand_gen.graph in
                 List.for_all
                   (fun (n, _) -> not (Validate.check_bool sess n l))
                   case.Workload.Rand_gen.associations
             | Analysis.Satisfiable w ->
                 let sess = Validate.session schema w.Analysis.graph in
                 Validate.check_bool sess w.Analysis.focus l
             | Analysis.Unknown _ -> true)
           labels))

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let value_arc vs = Rse.arc_v (Value_set.Pred (ex "a")) (Value_set.Obj_in vs)

let test_containment_basic () =
  let small = Schema.make_exn [ (plbl "S", value_arc [ node "n0" ]) ] in
  let big =
    Schema.make_exn [ (plbl "S", value_arc [ node "n0"; node "n1" ]) ]
  in
  (match Analysis.contains small (plbl "S") big (plbl "S") with
  | Analysis.Contained -> ()
  | v -> Alcotest.failf "expected contained, got %a" Analysis.pp_containment v);
  match Analysis.contains big (plbl "S") small (plbl "S") with
  | Analysis.Refuted w ->
      let s1 = Validate.session big w.Analysis.graph
      and s2 = Validate.session small w.Analysis.graph in
      check_bool "ce satisfies S1" true
        (Validate.check_bool s1 w.Analysis.focus (plbl "S"));
      check_bool "ce fails S2" false
        (Validate.check_bool s2 w.Analysis.focus (plbl "S"))
  | v -> Alcotest.failf "expected refuted, got %a" Analysis.pp_containment v

let test_containment_star () =
  (* a→{1} ⊑ (a→{1})⋆ but not conversely (ε, and two-arc bags) *)
  let one = Schema.make_exn [ (plbl "S", arc_num "a" [ 1 ]) ] in
  let star = Schema.make_exn [ (plbl "S", Rse.star (arc_num "a" [ 1 ])) ] in
  (match Analysis.contains one (plbl "S") star (plbl "S") with
  | Analysis.Contained -> ()
  | v -> Alcotest.failf "expected contained, got %a" Analysis.pp_containment v);
  match Analysis.contains star (plbl "S") one (plbl "S") with
  | Analysis.Refuted _ -> ()
  | v -> Alcotest.failf "expected refuted, got %a" Analysis.pp_containment v

let prop_containment_reflexive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"containment is reflexive"
       (QCheck.make QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let case = Workload.Rand_gen.case seed in
         let schema = case.Workload.Rand_gen.schema in
         List.for_all
           (fun l ->
             match Analysis.contains schema l schema l with
             | Analysis.Contained -> true
             | Analysis.Inconclusive _ -> true (* never a false refutation *)
             | Analysis.Refuted _ -> false)
           (Schema.labels schema)))

let test_compat_pair () =
  (* v2 widens one value set and leaves the other rules alone *)
  let v1 =
    Schema.make_exn
      [
        (plbl "Person", value_arc [ node "n0" ]);
        (plbl "Other", arc_num "b" [ 1 ]);
      ]
  in
  let v2 =
    Schema.make_exn
      [
        (plbl "Person", value_arc [ node "n0"; node "n1" ]);
        (plbl "Other", arc_num "b" [ 1 ]);
      ]
  in
  let report = Analysis.check_compat v1 v2 in
  List.iter
    (fun (it : Analysis.compat_item) ->
      match it.Analysis.verdict with
      | Analysis.Contained -> ()
      | v ->
          Alcotest.failf "compat %s: expected contained, got %a"
            (Label.to_string it.Analysis.label)
            Analysis.pp_containment v)
    report.Analysis.items;
  let backward = Analysis.check_compat v2 v1 in
  check_bool "widening backward is refuted" true
    (List.exists
       (fun (it : Analysis.compat_item) ->
         match it.Analysis.verdict with
         | Analysis.Refuted _ -> true
         | _ -> false)
       backward.Analysis.items)

let test_containment_coinductive () =
  (* Widening a shape that recursively references itself: proving
     Person₁ ⊑ Person₂ needs the coinductive assumption that the
     knows-objects are themselves contained (otherwise the product
     search mints an unrealizable "satisfies left, fails right"
     letter and the verdict degrades to inconclusive). *)
  let str = Value_set.Obj_datatype Rdf.Xsd.String in
  let knows = Rse.star (Rse.arc_ref (Value_set.Pred (ex "knows")) (plbl "P")) in
  let v1 =
    Schema.make_exn
      [ (plbl "P", Rse.and_ (Rse.arc_v (Value_set.Pred (ex "name")) str) knows) ]
  and v2 =
    Schema.make_exn
      [
        ( plbl "P",
          Rse.and_
            (Rse.and_ (Rse.arc_v (Value_set.Pred (ex "name")) str) knows)
            (Rse.opt (Rse.arc_v (Value_set.Pred (ex "home")) Value_set.Obj_any))
        );
      ]
  in
  (match Analysis.contains v1 (plbl "P") v2 (plbl "P") with
  | Analysis.Contained -> ()
  | v -> Alcotest.failf "expected contained, got %a" Analysis.pp_containment v);
  (* ... and the discharge must not leak into the refuted direction *)
  match Analysis.contains v2 (plbl "P") v1 (plbl "P") with
  | Analysis.Refuted w ->
      let s1 = Validate.session v2 w.Analysis.graph
      and s2 = Validate.session v1 w.Analysis.graph in
      check_bool "ce satisfies v2" true
        (Validate.check_bool s1 w.Analysis.focus (plbl "P"));
      check_bool "ce fails v1" false
        (Validate.check_bool s2 w.Analysis.focus (plbl "P"))
  | v -> Alcotest.failf "expected refuted, got %a" Analysis.pp_containment v

(* ------------------------------------------------------------------ *)
(* shrink_with: the generalised predicate hook (ISSUE 10 satellite)    *)
(* ------------------------------------------------------------------ *)

let test_shrink_with_keeps_witness_property () =
  (* A containment witness (satisfies S1, fails S2) padded with junk
     triples: shrinking under the witness predicate must drop the junk
     while the property survives — not just "some divergence". *)
  let str = Value_set.Obj_datatype Rdf.Xsd.String in
  let s1 = Schema.make_exn [ (plbl "P", Rse.arc_v (Value_set.Pred (ex "name")) str) ] in
  let s2 =
    Schema.make_exn
      [
        ( plbl "P",
          Rse.and_
            (Rse.arc_v (Value_set.Pred (ex "name")) str)
            (Rse.arc_v (Value_set.Pred (ex "email")) str) );
      ]
  in
  let witness = t3 "w" "name" (Rdf.Term.str "ada") in
  let graph =
    graph_of
      [
        witness;
        t3 "junk1" "name" (Rdf.Term.str "junk");
        t3 "junk1" "email" (Rdf.Term.str "junk");
        t3 "junk2" "other" (num 1);
      ]
  in
  let assocs = [ (node "w", plbl "P") ] in
  let keep s g a =
    List.for_all
      (fun (n, l) ->
        let sess1 = Validate.session s g and sess2 = Validate.session s2 g in
        Validate.check_bool sess1 n l && not (Validate.check_bool sess2 n l))
      a
    && a <> []
  in
  check_bool "keep holds on the input" true (keep s1 graph assocs);
  let s', g', a' = Oracle.shrink_with ~keep s1 graph assocs in
  check_bool "keep holds on the output" true (keep s' g' a');
  check_int "junk triples dropped" 1 (List.length (Rdf.Graph.to_list g'));
  check_int "association kept" 1 (List.length a')

(* ------------------------------------------------------------------ *)
(* Hygiene                                                             *)
(* ------------------------------------------------------------------ *)

let test_dead_rules () =
  let s =
    Result.get_ok
      (Schema.make_shapes
         [
           ( plbl "Root",
             {
               Schema.focus = Some (Value_set.Obj_stem "http://example.org/");
               expr = Rse.arc_ref (Value_set.Pred (ex "a")) (plbl "Used");
             } );
           (plbl "Used", { Schema.focus = None; expr = Rse.epsilon });
           ( plbl "Dead",
             {
               Schema.focus = None;
               expr = Rse.arc_v (Value_set.Pred (ex "x")) unsat_obj;
             } );
         ])
  in
  let h = Analysis.hygiene s in
  check_bool "Dead is unreachable" true
    (List.exists (Label.equal (plbl "Dead")) h.Analysis.unreachable);
  check_bool "Used is reachable" false
    (List.exists (Label.equal (plbl "Used")) h.Analysis.unreachable);
  check_bool "Dead is unsatisfiable" true
    (List.exists (Label.equal (plbl "Dead")) h.Analysis.unsatisfiable);
  check_bool "Root is satisfiable" false
    (List.exists (Label.equal (plbl "Root")) h.Analysis.unsatisfiable)

let test_hygiene_one_fixpoint () =
  (* --analyze and the daemon's analyze make this one hygiene call for
     every label's verdict: it must search the derivative space once,
     as much as one shape_satisfiable, not once per label again. *)
  let s =
    Schema.make_exn
      [
        ( plbl "A",
          Rse.and_ (arc_num "a" [ 1; 2 ])
            (Rse.opt (Rse.arc_ref (Value_set.Pred (ex "b")) (plbl "B"))) );
        (plbl "B", Rse.star (Rse.arc_ref (Value_set.Pred (ex "c")) (plbl "C")));
        (plbl "C", Rse.plus (arc_num "d" [ 3 ]));
      ]
  in
  let states f =
    let tele = Telemetry.create () in
    f tele;
    Telemetry.Counter.value (Telemetry.counter tele "analysis_states_explored")
  in
  let one =
    states (fun tele -> ignore (Analysis.shape_satisfiable ~tele s (plbl "A")))
  and all = states (fun tele -> ignore (Analysis.hygiene ~tele s)) in
  check_bool "the fixpoint explores states" true (one > 0);
  check_int "hygiene explores what one shape_satisfiable explores" one all;
  let text = Format.asprintf "%a" Analysis.pp_emptiness in
  List.iter
    (fun (l, v) ->
      check_string
        (Label.to_string l ^ " as shape_satisfiable answers")
        (text (Analysis.shape_satisfiable s l))
        (text v))
    (Analysis.hygiene s).Analysis.shapes

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let engines = [ Validate.Derivatives; Backtracking; Auto; Compiled ]

let verdicts ?(interned = false) ~engine schema (case : Workload.Rand_gen.case)
    =
  let graph = case.Workload.Rand_gen.graph in
  let sess =
    if interned then
      Validate.session_columnar ~engine schema (Rdf.Columnar.of_graph graph)
    else Validate.session ~engine schema graph
  in
  List.map
    (fun (n, l) -> Validate.check_bool sess n l)
    case.Workload.Rand_gen.associations

let test_optimize_merges_disjuncts () =
  let o = Rse.or_ (value_arc [ node "n0" ]) (value_arc [ node "n1" ]) in
  let s = Schema.make_exn [ (plbl "O", o) ] in
  let s', changed = Analysis.optimize_stats s in
  check_bool "rewrote the shape" true (changed > 0);
  match Schema.find_exn s' (plbl "O") with
  | Rse.Arc { obj = Rse.Values (Value_set.Obj_in [ _; _ ]); _ } -> ()
  | e -> Alcotest.failf "expected one merged arc, got %a" Rse.pp e

let test_optimize_prunes_empty_disjunct () =
  let dead = Rse.arc_v (Value_set.Pred (ex "x")) unsat_obj in
  let live = arc_num "a" [ 1 ] in
  let s = Schema.make_exn [ (plbl "O", Rse.or_ dead live) ] in
  let s', _ = Analysis.optimize_stats s in
  Alcotest.check rse "dead disjunct dropped" live
    (Schema.find_exn s' (plbl "O"))

let test_optimize_star_epsilon () =
  let s = Schema.make_exn [ (plbl "O", Rse.star (Rse.opt (arc_num "a" [ 1 ]))) ] in
  let s', _ = Analysis.optimize_stats s in
  Alcotest.check rse "(ε|e)⋆ = e⋆" (Rse.star (arc_num "a" [ 1 ]))
    (Schema.find_exn s' (plbl "O"))

let prop_optimize_preserves_verdicts =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"optimize preserves verdicts on every engine"
       (QCheck.make QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let case = Workload.Rand_gen.case seed in
         let schema = case.Workload.Rand_gen.schema in
         let schema' = Analysis.optimize schema in
         List.for_all
           (fun engine ->
             verdicts ~engine schema case = verdicts ~engine schema' case)
           engines
         && verdicts ~interned:true ~engine:Validate.Derivatives schema case
            = verdicts ~interned:true ~engine:Validate.Derivatives schema' case))

let prop_optimize_idempotent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"optimize is idempotent"
       (QCheck.make QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let case = Workload.Rand_gen.case seed in
         let s1 = Analysis.optimize case.Workload.Rand_gen.schema in
         let s2 = Analysis.optimize s1 in
         List.for_all2
           (fun (l1, e1) (l2, e2) -> Label.equal l1 l2 && Rse.equal e1 e2)
           (Schema.rules s1) (Schema.rules s2)))

(* Satellite 2: the optimizer emits schemas the printer has never
   seen; printing then reparsing must land back on the same rules. *)
let prop_optimize_roundtrips_through_shexc =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"parse (print (optimize s)) ≡ optimize s"
       (QCheck.make QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let rng = Workload.Prng.create seed in
         let schema = Workload.Rand_gen.schema rng in
         let schema' = Analysis.optimize schema in
         let text = Shexc.Shexc_printer.schema_to_string schema' in
         match Shexc.Shexc_parser.parse_schema text with
         | Error e -> QCheck.Test.fail_reportf "reparse failed: %s@.%s" e text
         | Ok back ->
             List.for_all2
               (fun (l1, (a : Schema.shape)) (l2, (b : Schema.shape)) ->
                 Label.equal l1 l2
                 && Rse.equal a.Schema.expr b.Schema.expr
                 && Option.equal Value_set.obj_equal a.Schema.focus
                      b.Schema.focus)
               (Schema.shapes schema') (Schema.shapes back)))

let tests =
  [
    prop_equal_iff_compare_zero;
    prop_compare_antisymmetric;
    prop_arc_equal_iff_compare_zero;
    Alcotest.test_case "satisfiable shape yields verified witness" `Quick
      test_satisfiable_witness;
    Alcotest.test_case "unmatchable arc is empty" `Quick test_empty_shape;
    Alcotest.test_case "negated universe is empty" `Quick test_empty_by_contradiction;
    Alcotest.test_case "recursive shape satisfiable via cycle" `Quick
      test_recursive_satisfiable;
    Alcotest.test_case "recursion over a dead conjunct is empty" `Quick
      test_recursive_dead;
    Alcotest.test_case "a growing search stops on its work budget" `Quick
      test_work_budget_stops_search;
    prop_empty_means_no_match;
    Alcotest.test_case "value-set widening is containment" `Quick
      test_containment_basic;
    Alcotest.test_case "single arc ⊑ its star" `Quick test_containment_star;
    prop_containment_reflexive;
    Alcotest.test_case "check_compat on a v1/v2 pair" `Quick test_compat_pair;
    Alcotest.test_case "containment through recursive refs (coinductive)"
      `Quick test_containment_coinductive;
    Alcotest.test_case "shrink_with preserves the witness property" `Quick
      test_shrink_with_keeps_witness_property;
    Alcotest.test_case "dead and unreachable rules detected" `Quick
      test_dead_rules;
    Alcotest.test_case "hygiene runs one capability fixpoint" `Quick
      test_hygiene_one_fixpoint;
    Alcotest.test_case "optimizer merges value-set disjuncts" `Quick
      test_optimize_merges_disjuncts;
    Alcotest.test_case "optimizer prunes provably-empty disjuncts" `Quick
      test_optimize_prunes_empty_disjunct;
    Alcotest.test_case "optimizer rewrites (ε|e)⋆" `Quick
      test_optimize_star_epsilon;
    prop_optimize_preserves_verdicts;
    prop_optimize_idempotent;
    prop_optimize_roundtrips_through_shexc;
  ]

let suites = [ ("analysis", tests) ]
