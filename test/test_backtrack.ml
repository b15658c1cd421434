(* Tests for the backtracking baseline (Fig. 1 rules) and its
   agreement with the derivative matcher. *)

open Util
open Shex

(* Example 8: the backtracking matcher accepts via decomposition. *)
let test_example8 () =
  check_bool "matches" true
    (backtrack_matches (node "n") example8_graph example5)

let test_example12_rejected () =
  check_bool "fails" false
    (backtrack_matches (node "n") example12_graph example5)

let test_empty_graph () =
  check_bool "ε" true
    (backtrack_matches (node "n") Rdf.Graph.empty Rse.epsilon);
  check_bool "∅" false
    (backtrack_matches (node "n") Rdf.Graph.empty Rse.empty);
  check_bool "star" true
    (backtrack_matches (node "n") Rdf.Graph.empty
       (Rse.star (arc_num "a" [ 1 ])))

let test_arc_exactly_one () =
  let e = arc_num "a" [ 1 ] in
  check_bool "one triple" true
    (backtrack_matches (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e);
  check_bool "two triples" false
    (backtrack_matches (node "n")
       (graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 1) ])
       e)

let test_star_terminates () =
  (* Star2 requires a non-empty g1, so matching terminates. *)
  let e = Rse.star (arc_num "b" [ 1; 2; 3 ]) in
  let g = graph_of (List.init 3 (fun j -> t3 "n" "b" (num (j + 1)))) in
  check_bool "b* on 3 arcs" true (backtrack_matches (node "n") g e)

let test_work_counter_grows () =
  (* The explored-rule counter, exactly: E1's backtrack_ops column.  On
     Example 5's shape a valid neighbourhood of n triples takes 2n + 2
     rule applications; a failing one (no a-arc) explores all 2^n
     decompositions of the top-level ‖ (Example 3), one more each. *)
  let shape = Workload.Micro_gen.example5_shape () in
  let branches g =
    let tele = Telemetry.create () in
    let ok =
      backtrack_matches ~instr:(Backtrack.instruments tele)
        Workload.Micro_gen.focus g shape
    in
    (ok, Telemetry.Counter.value (Telemetry.counter tele "backtrack_branches"))
  in
  List.iter
    (fun n ->
      let ok, work = branches (Workload.Micro_gen.example5_neighbourhood n) in
      check_bool "valid matches" true ok;
      check_int (Printf.sprintf "valid n=%d" n) ((2 * n) + 2) work;
      let ok, work =
        branches (Workload.Micro_gen.example5_neighbourhood_invalid n)
      in
      check_bool "invalid fails" false ok;
      check_int (Printf.sprintf "invalid n=%d" n) ((1 lsl n) + 1) work)
    [ 2; 4; 6; 8; 10 ]

let test_agreement_on_examples () =
  List.iter
    (fun (e, g) ->
      check_bool "backtrack = deriv" true
        (Bool.equal
           (backtrack_matches (node "n") g e)
           (deriv_matches (node "n") g e)))
    [ (example5, example8_graph);
      (example5, example12_graph);
      (example10, example8_graph);
      (example10, graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 2) ]);
      (Rse.plus (arc_num "b" [ 1; 2 ]), example8_graph);
      (Rse.opt (arc_num "a" [ 1 ]), Rdf.Graph.empty) ]

let test_negation () =
  let e = Rse.not_ (arc_num "a" [ 1 ]) in
  check_bool "¬ empty ok" true
    (backtrack_matches (node "n") Rdf.Graph.empty e);
  check_bool "¬ exact rejected" false
    (backtrack_matches (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e)

let test_explicit_neighbourhood () =
  let dts = List.map Neigh.out (Rdf.Graph.to_list example8_graph) in
  check_bool "list API" true (Backtrack.matches_dts (node "n") dts example5)

let suites =
  [ ( "backtrack",
      [ Alcotest.test_case "Example 8 accepted" `Quick test_example8;
        Alcotest.test_case "Example 12 rejected" `Quick
          test_example12_rejected;
        Alcotest.test_case "empty graph" `Quick test_empty_graph;
        Alcotest.test_case "arc needs exactly one triple" `Quick
          test_arc_exactly_one;
        Alcotest.test_case "star terminates" `Quick test_star_terminates;
        Alcotest.test_case "work counter grows steeply" `Quick
          test_work_counter_grows;
        Alcotest.test_case "agrees with derivatives" `Quick
          test_agreement_on_examples;
        Alcotest.test_case "negation" `Quick test_negation;
        Alcotest.test_case "explicit neighbourhood API" `Quick
          test_explicit_neighbourhood ] ) ]
