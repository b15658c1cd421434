(* Tests for the SORBE subset: detection, conversion, and the counting
   matcher's agreement with the derivative matcher. *)

open Util
open Shex

let a1 = arc_num "a" [ 1 ]
let b12 = arc_num "b" [ 1; 2 ]
let c_any = Rse.arc_v (Value_set.Pred (ex "c")) Value_set.Obj_any

let interval mn mx = { Sorbe.min = mn; max = mx }

let analyze e =
  match Sorbe.of_rse e with
  | Some s -> s
  | None -> Alcotest.fail (Format.asprintf "not SORBE: %a" Rse.pp e)

let intervals e = List.map (fun c -> c.Sorbe.card) (analyze e)

let test_detection_basic () =
  Alcotest.(check int) "single arc" 1 (List.length (analyze a1));
  check_bool "{1,1}" true (intervals a1 = [ interval 1 (Some 1) ]);
  check_bool "star {0,∞}" true
    (intervals (Rse.star a1) = [ interval 0 None ]);
  check_bool "plus {1,∞}" true
    (intervals (Rse.plus a1) = [ interval 1 None ]);
  check_bool "opt {0,1}" true
    (intervals (Rse.opt a1) = [ interval 0 (Some 1) ]);
  check_bool "epsilon" true (analyze Rse.epsilon = [])

let test_detection_composed () =
  let e = Rse.and_all [ a1; Rse.star b12; Rse.opt c_any ] in
  Alcotest.(check int) "three constraints" 3 (List.length (analyze e))

let test_detection_repeat_merges () =
  (* A counted arc is one node; its bounds are the interval. *)
  check_bool "{2,3}" true
    (intervals (Rse.repeat 2 (Some 3) b12) = [ interval 2 (Some 3) ]);
  check_bool "{3,}" true
    (intervals (Rse.repeat 3 None b12) = [ interval 3 None ])

let test_detection_rejects () =
  check_bool "alternative of distinct arcs" true
    (Sorbe.of_rse (Rse.or_ a1 b12) = None);
  check_bool "shared predicate, different values" true
    (Sorbe.of_rse (Rse.and_ (arc_num "a" [ 1 ]) (arc_num "a" [ 2 ])) = None);
  check_bool "one arc twice (intervals are not summed)" true
    (Sorbe.of_rse (Rse.and_ a1 a1) = None);
  check_bool "counted group" true
    (Sorbe.of_rse (Rse.repeat 2 (Some 3) (Rse.and_ a1 b12)) = None);
  check_bool "negation" true (Sorbe.of_rse (Rse.not_ a1) = None);
  check_bool "empty" true (Sorbe.of_rse Rse.empty = None);
  check_bool "nested star" true
    (Sorbe.of_rse (Rse.star (Rse.and_ a1 b12)) = None)

let test_example5_is_sorbe () =
  (* Example 5 (a→1 ‖ (b→{1,2})⋆) is single-occurrence. *)
  Alcotest.(check int) "two constraints" 2 (List.length (analyze example5))

let test_example10_is_not_sorbe () =
  (* The balance checker is genuinely not SORBE. *)
  check_bool "not sorbe" true (Sorbe.of_rse example10 = None)

let test_counting_matcher () =
  List.iter
    (fun (g, expected) ->
      check_bool "verdict" expected
        (sorbe_matches (node "n") g (analyze example5)))
    [ (example8_graph, true);
      (example12_graph, false);
      (graph_of [ t3 "n" "a" (num 1) ], true);
      (graph_of [ t3 "n" "b" (num 1) ], false);
      (Rdf.Graph.empty, false) ]

let test_counting_agrees_with_deriv () =
  let shapes =
    [ example5;
      Rse.and_all [ a1; Rse.plus b12 ];
      Rse.and_all [ Rse.opt a1; Rse.repeat 1 (Some 2) b12 ];
      Rse.star b12 ]
  in
  let graphs =
    [ Rdf.Graph.empty;
      example8_graph;
      example12_graph;
      graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 2) ];
      graph_of [ t3 "n" "b" (num 1); t3 "n" "b" (num 2) ];
      graph_of [ t3 "n" "a" (num 1); t3 "n" "c" (num 1) ] ]
  in
  List.iter
    (fun e ->
      let s = analyze e in
      List.iter
        (fun g ->
          check_bool
            (Format.asprintf "%a" Rse.pp e)
            (deriv_matches (node "n") g e)
            (sorbe_matches (node "n") g s))
        graphs)
    shapes

let test_counting_obj_mismatch () =
  (* A triple owned by a constraint but failing the value test fails
     the whole match (closed semantics). *)
  let s = analyze (Rse.star b12) in
  check_bool "b out of range" false
    (sorbe_matches (node "n") (graph_of [ t3 "n" "b" (num 7) ]) s)

let test_overlapping_stem_refused () =
  (* The applicability edge the oracle's Extended mode probes:
     interval merging is only sound for arc-equal or
     predicate-disjoint constraint pairs, and a predicate stem that
     covers a singleton predicate is neither.  The analysis must
     refuse such shapes (so Auto falls back to derivatives) while
     still accepting genuinely disjoint stems. *)
  let stem prefix =
    Rse.arc_v (Value_set.Pred_stem prefix) Value_set.Obj_any
  in
  check_bool "overlapping stem refused" true
    (Sorbe.of_rse (Rse.and_ a1 (Rse.star (stem "http://example.org/")))
    = None);
  check_bool "stem overlapping itself refused" true
    (Sorbe.of_rse
       (Rse.and_ (stem "http://example.org/") (Rse.star (stem "http://example.org/a")))
    = None);
  check_bool "disjoint stem accepted" true
    (Sorbe.of_rse (Rse.and_ a1 (Rse.star (stem "http://other.org/")))
    <> None)

let test_overlapping_stem_auto_agrees () =
  (* On a shape SORBE refuses, the Auto dispatch must agree with the
     reference derivative engine on both verdicts. *)
  let stem_any =
    Rse.arc_v (Value_set.Pred_stem "http://example.org/") Value_set.Obj_any
  in
  let label = Label.of_string "S" in
  let schema =
    Schema.make_exn [ (label, Rse.and_ a1 (Rse.star stem_any)) ]
  in
  (* Accept: a→1 feeds the counted arc, p→m the stem star (a→1 also
     matches the stem, so the decomposition is genuinely ambiguous).
     Reject: a→2 only matches the stem, leaving a→{1} unmatched. *)
  let good = graph_of [ t3 "n" "a" (num 1); t3 "n" "p" (node "m") ] in
  let bad = graph_of [ t3 "n" "a" (num 2) ] in
  List.iter
    (fun (g, expect) ->
      List.iter
        (fun engine ->
          let session = Validate.session ~engine schema g in
          check_bool "engines agree" expect
            (Validate.check_bool session (node "n") label))
        [ Validate.Derivatives; Validate.Auto; Validate.Backtracking ])
    [ (good, true); (bad, false) ]

let test_counting_with_refs () =
  let person = Label.of_string "P" in
  let s =
    analyze (Rse.star (Rse.arc_ref (Value_set.Pred (ex "knows")) person))
  in
  let g = graph_of [ t3 "n" "knows" (node "m") ] in
  check_bool "ref accepted by callback" true
    (sorbe_matches ~check_ref:(fun _ _ -> true) (node "n") g s);
  check_bool "ref refused by callback" false
    (sorbe_matches ~check_ref:(fun _ _ -> false) (node "n") g s)

let suites =
  [ ( "sorbe",
      [ Alcotest.test_case "basic detection" `Quick test_detection_basic;
        Alcotest.test_case "composed detection" `Quick
          test_detection_composed;
        Alcotest.test_case "repeat merges intervals" `Quick
          test_detection_repeat_merges;
        Alcotest.test_case "rejections" `Quick test_detection_rejects;
        Alcotest.test_case "Example 5 is SORBE" `Quick
          test_example5_is_sorbe;
        Alcotest.test_case "Example 10 is not SORBE" `Quick
          test_example10_is_not_sorbe;
        Alcotest.test_case "counting matcher" `Quick test_counting_matcher;
        Alcotest.test_case "agrees with derivatives" `Quick
          test_counting_agrees_with_deriv;
        Alcotest.test_case "object mismatch fails" `Quick
          test_counting_obj_mismatch;
        Alcotest.test_case "shape references" `Quick test_counting_with_refs;
        Alcotest.test_case "overlapping predicate stems refused" `Quick
          test_overlapping_stem_refused;
        Alcotest.test_case "auto falls back on overlapping stems" `Quick
          test_overlapping_stem_auto_agrees
      ] ) ]
