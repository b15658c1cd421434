(* Tests for the derivative matcher (§6–7), reproducing the paper's
   worked Examples 9, 11 and 12, plus edge cases and extensions. *)

open Util
open Shex

let dt s p o = Neigh.out (t3 s p o)

(* Example 9: ∂⟨n,a,1⟩(a→1 ‖ (b→{1,2})⋆) = (b→{1,2})⋆ *)
let test_example9 () =
  let d = Deriv.deriv (dt "n" "a" (num 1)) example5 in
  Alcotest.check rse "derivative" (Rse.star (arc_num "b" [ 1; 2 ])) d

(* Example 11: e ≃ {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩} succeeds *)
let test_example11 () =
  check_bool "matches" true
    (deriv_matches (node "n") example8_graph example5)

(* Example 12: e ≄ {⟨n,a,1⟩, ⟨n,a,2⟩, ⟨n,b,1⟩} — the second a-arc has
   no matching arc and the derivative collapses to ∅. *)
let test_example12 () =
  check_bool "fails" false
    (deriv_matches (node "n") example12_graph example5)

(* Example 10: the derivative of the balance-checker grows:
   ∂⟨n,a,1⟩(e) = b→{1,2} ‖ e. *)
let test_example10_growth () =
  let d = Deriv.deriv (dt "n" "a" (num 1)) example10 in
  check_bool "grows" true (Rse.size d > Rse.size example10);
  Alcotest.check rse "paper's derivative"
    (Rse.and_ (arc_num "b" [ 1; 2 ]) example10)
    d

(* Derivative algebra on the remaining constructors *)

let test_deriv_empty_epsilon () =
  let t = dt "n" "a" (num 1) in
  Alcotest.check rse "∂t(∅) = ∅" Rse.empty (Deriv.deriv t Rse.empty);
  Alcotest.check rse "∂t(ε) = ∅" Rse.empty (Deriv.deriv t Rse.epsilon)

let test_deriv_arc () =
  let a = arc_num "a" [ 1 ] in
  Alcotest.check rse "hit" Rse.epsilon (Deriv.deriv (dt "n" "a" (num 1)) a);
  Alcotest.check rse "wrong value" Rse.empty
    (Deriv.deriv (dt "n" "a" (num 2)) a);
  Alcotest.check rse "wrong predicate" Rse.empty
    (Deriv.deriv (dt "n" "b" (num 1)) a)

let test_deriv_or () =
  let e = Rse.or_ (arc_num "a" [ 1 ]) (arc_num "b" [ 1 ]) in
  Alcotest.check rse "left branch survives" Rse.epsilon
    (Deriv.deriv (dt "n" "a" (num 1)) e)

let test_deriv_star () =
  let e = Rse.star (arc_num "b" [ 1; 2 ]) in
  Alcotest.check rse "∂t(e*) = ∂t(e) ‖ e*" e
    (Deriv.deriv (dt "n" "b" (num 1)) e)

let test_deriv_graph_empty () =
  Alcotest.check rse "∂{}(e) = e" example5 (Deriv.deriv_graph [] example5)

(* Matching corner cases *)

let test_match_empty_graph () =
  check_bool "ε matches empty" true
    (deriv_matches (node "n") Rdf.Graph.empty Rse.epsilon);
  check_bool "∅ rejects empty" false
    (deriv_matches (node "n") Rdf.Graph.empty Rse.empty);
  check_bool "e* matches empty" true
    (deriv_matches (node "n") Rdf.Graph.empty (Rse.star (arc_num "a" [ 1 ])));
  check_bool "arc rejects empty" false
    (deriv_matches (node "n") Rdf.Graph.empty (arc_num "a" [ 1 ]))

let test_match_ignores_other_subjects () =
  (* Only Σgn (subject = n) is consumed. *)
  let g = Rdf.Graph.add (t3 "m" "z" (num 9)) example8_graph in
  check_bool "other subjects irrelevant" true
    (deriv_matches (node "n") g example5)

let test_match_plus () =
  let e = Rse.plus (arc_num "b" [ 1; 2 ]) in
  let g1 = graph_of [ t3 "n" "b" (num 1) ] in
  let g0 = Rdf.Graph.empty in
  check_bool "one b" true (deriv_matches (node "n") g1 e);
  check_bool "zero b" false (deriv_matches (node "n") g0 e);
  let g2 = graph_of [ t3 "n" "b" (num 1); t3 "n" "b" (num 2) ] in
  check_bool "two b" true (deriv_matches (node "n") g2 e)

let test_match_repeat () =
  let e = Rse.repeat 1 (Some 2) (arc_num "b" [ 1; 2; 3 ]) in
  let g k = graph_of (List.init k (fun j -> t3 "n" "b" (num (j + 1)))) in
  check_bool "0 fails" false (deriv_matches (node "n") (g 0) e);
  check_bool "1 ok" true (deriv_matches (node "n") (g 1) e);
  check_bool "2 ok" true (deriv_matches (node "n") (g 2) e);
  check_bool "3 fails" false (deriv_matches (node "n") (g 3) e)

let test_deriv_repeat_counts_down () =
  (* ∂t(e{m,n}) = ∂t(e) ‖ e{m∸1,n−1}: a matching triple lowers both
     bounds, and the counted node stays one node. *)
  let b = arc_num "b" [ 1; 2; 3 ] in
  let dt = Neigh.out (t3 "n" "b" (num 1)) in
  Alcotest.check rse "{2,3} → {1,2}" (Rse.repeat 1 (Some 2) b)
    (Deriv.deriv dt (Rse.repeat 2 (Some 3) b));
  Alcotest.check rse "{2,*} → {1,*}" (Rse.plus b)
    (Deriv.deriv dt (Rse.repeat 2 None b));
  Alcotest.check rse "{0,3} → {0,2}" (Rse.repeat 0 (Some 2) b)
    (Deriv.deriv dt (Rse.repeat 0 (Some 3) b));
  Alcotest.check rse "{1,*} → e*" (Rse.star b) (Deriv.deriv dt (Rse.plus b));
  Alcotest.check rse "mismatch → ∅" Rse.empty
    (Deriv.deriv (Neigh.out (t3 "n" "a" (num 1))) (Rse.repeat 2 (Some 3) b))

(* Bag (each-triple-consumed-once) semantics: a ‖ a needs two a-arcs,
   but a graph is a set, so a single arc cannot satisfy both. *)
let test_bag_semantics () =
  let e = Rse.and_ (arc_num "a" [ 1 ]) (arc_num "a" [ 1 ]) in
  let g = graph_of [ t3 "n" "a" (num 1) ] in
  check_bool "single triple can't satisfy a ‖ a" false
    (deriv_matches (node "n") g e)

(* Value set machinery through matching *)

let test_match_datatype () =
  let e =
    Rse.and_
      (Rse.arc_v (Value_set.Pred (ex "age")) Value_set.xsd_integer)
      (Rse.plus (Rse.arc_v (Value_set.Pred (ex "name")) Value_set.xsd_string))
  in
  let good =
    graph_of
      [ t3 "n" "age" (num 23); t3 "n" "name" (Rdf.Term.str "John") ]
  in
  let bad_type =
    graph_of
      [ t3 "n" "age" (Rdf.Term.str "old");
        t3 "n" "name" (Rdf.Term.str "John") ]
  in
  check_bool "well-typed" true (deriv_matches (node "n") good e);
  check_bool "age not integer" false (deriv_matches (node "n") bad_type e)

let test_match_node_kinds () =
  let e = Rse.arc_v (Value_set.Pred (ex "p")) (Value_set.Obj_kind Value_set.Iri_kind) in
  let g_iri = graph_of [ t3 "n" "p" (node "x") ] in
  let g_lit = graph_of [ t3 "n" "p" (num 1) ] in
  check_bool "iri ok" true (deriv_matches (node "n") g_iri e);
  check_bool "literal not iri" false (deriv_matches (node "n") g_lit e)

(* Extensions: inverse arcs and negation *)

let test_inverse_arcs () =
  (* shape: node must have one incoming "manages" arc *)
  let e =
    Rse.arc_v ~inverse:true (Value_set.Pred (ex "manages")) Value_set.Obj_any
  in
  let g = graph_of [ triple (node "boss") (ex "manages") (node "n") ] in
  check_bool "incoming arc found" true (deriv_matches (node "n") g e);
  check_bool "outgoing arc is not incoming" false
    (deriv_matches (node "boss") g e)

let test_inverse_mixed () =
  let e =
    Rse.and_
      (arc_num "a" [ 1 ])
      (Rse.arc_v ~inverse:true (Value_set.Pred (ex "r")) Value_set.Obj_any)
  in
  let g =
    graph_of
      [ t3 "n" "a" (num 1); triple (node "m") (ex "r") (node "n") ]
  in
  check_bool "outgoing + incoming" true (deriv_matches (node "n") g e)

let test_negation () =
  (* ¬(a→1): any neighbourhood except exactly {⟨n,a,1⟩} *)
  let e = Rse.not_ (arc_num "a" [ 1 ]) in
  check_bool "empty neighbourhood ok" true
    (deriv_matches (node "n") Rdf.Graph.empty e);
  check_bool "the single a-arc rejected" false
    (deriv_matches (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e);
  check_bool "two arcs ok" true
    (deriv_matches (node "n")
       (graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 1) ])
       e)

let test_negation_combined () =
  (* a→1 ‖ ¬∅ — ¬∅ matches anything, so this asks for a→1 plus any rest.
     With bag semantics the rest is the remaining triples. *)
  let e = Rse.and_ (arc_num "a" [ 1 ]) (Rse.not_ Rse.empty) in
  check_bool "a plus anything" true
    (deriv_matches (node "n") example8_graph e);
  check_bool "missing a" false
    (deriv_matches (node "n") (graph_of [ t3 "n" "b" (num 1) ]) e)

(* Traces *)

let test_trace_success () =
  let tr = deriv_trace (node "n") example8_graph example5 in
  check_bool "result" true tr.Deriv.result;
  check_int "3 steps" 3 (List.length tr.Deriv.steps)

(* The rendered explanations of failed traces are Explain's
   (test_explain.ml); these check the trace records where it broke. *)
let test_trace_failure_collapse () =
  let tr = deriv_trace (node "n") example12_graph example5 in
  check_bool "result" false tr.Deriv.result;
  check_bool "a step collapses to ∅" true
    (List.exists (fun s -> Rse.equal s.Deriv.after Rse.empty) tr.Deriv.steps)

let test_trace_failure_residual () =
  (* Missing required arc: all triples consumed, residual not nullable. *)
  let e = Rse.and_ (arc_num "a" [ 1 ]) (arc_num "b" [ 1 ]) in
  let tr =
    deriv_trace (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e
  in
  check_bool "result" false tr.Deriv.result;
  match List.rev tr.Deriv.steps with
  | [] -> Alcotest.fail "expected one step"
  | last :: _ ->
      check_bool "no collapse" false (Rse.equal last.Deriv.after Rse.empty);
      check_bool "residual not nullable" false (Rse.nullable last.Deriv.after)

let test_trace_pp () =
  let tr = deriv_trace (node "n") example8_graph example5 in
  let s = Format.asprintf "%a" Deriv.pp_trace tr in
  check_bool "non-empty rendering" true (String.length s > 40)

(* Ablation: raw constructors must not change verdicts, only sizes. *)

let test_raw_ctors_same_verdict () =
  List.iter
    (fun (g, expected) ->
      check_bool "raw verdict" expected
        (Rse.nullable
           (Deriv.deriv_graph ~ctors:Rse.raw_ctors
              (neigh (node "n") g example5)
              example5)))
    [ (example8_graph, true); (example12_graph, false) ]

let test_raw_ctors_blowup () =
  let raw =
    Deriv.deriv_graph ~ctors:Rse.raw_ctors
      (List.map Neigh.out (Rdf.Graph.to_list example8_graph))
      example5
  in
  let smart =
    Deriv.deriv_graph
      (List.map Neigh.out (Rdf.Graph.to_list example8_graph))
      example5
  in
  check_bool "raw bigger" true (Rse.size raw > Rse.size smart)

let suites =
  [ ( "deriv.paper-examples",
      [ Alcotest.test_case "Example 9 derivative" `Quick test_example9;
        Alcotest.test_case "Example 11 match" `Quick test_example11;
        Alcotest.test_case "Example 12 mismatch" `Quick test_example12;
        Alcotest.test_case "Example 10 growth" `Quick test_example10_growth ]
    );
    ( "deriv.rules",
      [ Alcotest.test_case "∅ and ε" `Quick test_deriv_empty_epsilon;
        Alcotest.test_case "arc" `Quick test_deriv_arc;
        Alcotest.test_case "or" `Quick test_deriv_or;
        Alcotest.test_case "star" `Quick test_deriv_star;
        Alcotest.test_case "graph extension base case" `Quick
          test_deriv_graph_empty ] );
    ( "deriv.matching",
      [ Alcotest.test_case "empty graph" `Quick test_match_empty_graph;
        Alcotest.test_case "other subjects ignored" `Quick
          test_match_ignores_other_subjects;
        Alcotest.test_case "plus cardinality" `Quick test_match_plus;
        Alcotest.test_case "repeat cardinality" `Quick test_match_repeat;
        Alcotest.test_case "repeat derivative counts down" `Quick
          test_deriv_repeat_counts_down;
        Alcotest.test_case "bag semantics" `Quick test_bag_semantics;
        Alcotest.test_case "datatype values" `Quick test_match_datatype;
        Alcotest.test_case "node kinds" `Quick test_match_node_kinds ] );
    ( "deriv.extensions",
      [ Alcotest.test_case "inverse arcs" `Quick test_inverse_arcs;
        Alcotest.test_case "mixed directions" `Quick test_inverse_mixed;
        Alcotest.test_case "negation" `Quick test_negation;
        Alcotest.test_case "negation combined" `Quick test_negation_combined
      ] );
    ( "deriv.trace",
      [ Alcotest.test_case "success trace" `Quick test_trace_success;
        Alcotest.test_case "collapse explanation" `Quick
          test_trace_failure_collapse;
        Alcotest.test_case "residual explanation" `Quick
          test_trace_failure_residual;
        Alcotest.test_case "trace rendering" `Quick test_trace_pp ] );
    ( "deriv.ablation",
      [ Alcotest.test_case "raw ctors same verdict" `Quick
          test_raw_ctors_same_verdict;
        Alcotest.test_case "raw ctors blow up" `Quick test_raw_ctors_blowup
      ] ) ]
