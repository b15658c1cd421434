(* Tests for the SPARQL substrate: evaluator semantics, the shape →
   query translation of §3, and the paper's Example 4 query. *)

open Util
module A = Sparql.Ast
module E = Sparql.Eval

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

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

(* A pattern's solutions, as a SELECT projecting every variable the
   tests bind. *)
let solutions g p =
  E.select g (A.select [ "s"; "p"; "o"; "a"; "n"; "k"; "x" ] p)
let count g p = List.length (solutions g p)

(* ------------------------------------------------------------------ *)
(* Evaluator                                                          *)
(* ------------------------------------------------------------------ *)

let test_bgp_single () =
  let p = A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "o") ] in
  check_int "4 age triples" 4 (count example2_graph p)

let test_bgp_join_within () =
  (* ?s foaf:age ?a . ?s foaf:name ?n — join on ?s *)
  let p =
    A.bgp
      [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "a");
        A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "name"))) (A.v "n") ]
  in
  (* john: 1×1, bob: 1×2 → 3 solutions *)
  check_int "join cardinality" 3 (count example2_graph p)

let test_bgp_constant_subject () =
  let p =
    A.bgp [ A.triple (A.c (node "mary")) (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "o") ]
  in
  check_int "mary's ages" 2 (count example2_graph p)

let test_bgp_shared_variable () =
  (* ?x ex:p ?x — subject equals object *)
  let g = graph_of [ t3 "a" "p" (node "a"); t3 "a" "p" (node "b") ] in
  let p = A.bgp [ A.triple (A.v "x") (A.c (Rdf.Term.Iri (ex "p"))) (A.v "x") ] in
  check_int "self-loop only" 1 (count g p)

let test_filter_datatype () =
  let p =
    A.Filter
      ( A.E_and
          ( A.E_is_literal (A.E_var "o"),
            A.E_cmp
              ( A.Eq,
                A.E_datatype (A.E_var "o"),
                A.E_const (Rdf.Term.Iri (Rdf.Xsd.iri Rdf.Xsd.String)) ) ),
        A.bgp [ A.triple (A.v "s") (A.v "p") (A.v "o") ] )
  in
  check_int "string objects" 3 (count example2_graph p)

let test_filter_numeric_compare () =
  let p =
    A.Filter
      ( A.E_cmp (A.Ge, A.E_var "o", A.E_int 34),
        A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "o") ] )
  in
  check_int "ages of at least 34" 3 (count example2_graph p)

let test_filter_error_is_false () =
  (* Comparing an IRI with a number errors → row dropped, not crash. *)
  let p =
    A.Filter
      ( A.E_cmp (A.Ge, A.E_var "o", A.E_int 0),
        A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "knows"))) (A.v "o") ] )
  in
  check_int "error drops row" 0 (count example2_graph p)

let test_union () =
  let arm pred = A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf pred))) (A.v "o") ] in
  check_int "union" 5 (count example2_graph (A.Union (arm "age", arm "knows")))

let test_optional () =
  let p =
    A.Optional
      ( A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "a") ],
        A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "knows"))) (A.v "k") ] )
  in
  let sols = solutions example2_graph p in
  check_int "4 rows" 4 (List.length sols);
  let bound_k =
    List.length (List.filter (fun mu -> E.Solution.find "k" mu <> None) sols)
  in
  check_int "only john has knows" 1 bound_k

let test_optional_bound_idiom () =
  (* The paper's !bound trick: subjects with NO foaf:knows. *)
  let p =
    A.Filter
      ( A.E_not (A.E_bound "k"),
        A.Optional
          ( A.Sub_select
              (A.select ~distinct:true [ "s" ]
                 (A.bgp [ A.triple (A.v "s") (A.v "p") (A.v "o") ])),
            A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "knows"))) (A.v "k") ]
          ) )
  in
  check_int "bob and mary" 2 (count example2_graph p)

let test_exists () =
  (* EXISTS, written as the negation of NOT EXISTS. *)
  let p =
    A.Filter
      ( A.E_not
          (A.E_not_exists
             (A.bgp
                [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "knows"))) (A.v "k") ])),
        A.Sub_select
          (A.select ~distinct:true [ "s" ]
             (A.bgp [ A.triple (A.v "s") (A.v "p") (A.v "o") ])) )
  in
  check_int "only john" 1 (count example2_graph p)

let test_not_exists () =
  let p =
    A.Filter
      ( A.E_not_exists
          (A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "name"))) (A.v "n") ]),
        A.Sub_select
          (A.select ~distinct:true [ "s" ]
             (A.bgp [ A.triple (A.v "s") (A.v "p") (A.v "o") ])) )
  in
  check_int "only mary lacks a name" 1 (count example2_graph p)

let test_subselect_count_having () =
  (* SELECT ?s (COUNT( * ) AS ?c) { ?s foaf:name ?o } GROUP BY ?s HAVING ?c >= 2 *)
  let sel =
    A.select ~group_by:[ "s" ]
      ~aggs:[ (A.Count_star, "c") ]
      ~having:[ A.E_cmp (A.Ge, A.E_var "c", A.E_int 2) ]
      [ "s" ]
      (A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "name"))) (A.v "o") ])
  in
  let sols = E.select example2_graph sel in
  check_int "only bob" 1 (List.length sols);
  match sols with
  | [ mu ] ->
      check_bool "it is bob" true
        (E.Solution.find "s" mu = Some (node "bob"))
  | _ -> Alcotest.fail "expected one solution"

let test_subselect_joins_with_outer () =
  (* The counting subselect restricts an outer pattern through ?s. *)
  let p =
    A.Join
      ( A.bgp [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "a") ],
        A.Sub_select
          (A.select ~group_by:[ "s" ]
             ~aggs:[ (A.Count_star, "c") ]
             ~having:[ A.E_cmp (A.Eq, A.E_var "c", A.E_int 2) ]
             [ "s" ]
             (A.bgp
                [ A.triple (A.v "s") (A.c (Rdf.Term.Iri (foaf "age"))) (A.v "o") ]))
      )
  in
  (* mary has 2 age triples; outer gives her two rows *)
  check_int "mary twice" 2 (count example2_graph p)

let test_ask () =
  check_bool "ask true" true
    (E.ask example2_graph
       (A.bgp [ A.triple (A.c (node "john")) (A.v "p") (A.v "o") ]));
  check_bool "ask false" false
    (E.ask example2_graph
       (A.bgp [ A.triple (A.c (node "zoe")) (A.v "p") (A.v "o") ]))

(* ------------------------------------------------------------------ *)
(* §3 translation                                                     *)
(* ------------------------------------------------------------------ *)

(* Non-recursive Person shape: age xsd:integer, name xsd:string+,
   knows IRI* (reference replaced by a node-kind test, as recursion is
   untranslatable). *)
let person_shape =
  Shex.Rse.and_all
    [ Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "age")) Shex.Value_set.xsd_integer;
      Shex.Rse.plus
        (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "name")) Shex.Value_set.xsd_string);
      Shex.Rse.star
        (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "knows"))
           (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)) ]

let test_gen_agrees_with_derivatives () =
  match Sparql.Gen.matching_nodes example2_graph person_shape with
  | Error msg -> Alcotest.fail msg
  | Ok nodes ->
      Alcotest.(check (list term))
        "sparql nodes = derivative nodes"
        (List.filter
           (fun n -> deriv_matches n example2_graph person_shape)
           (Rdf.Graph.subjects example2_graph))
        nodes

(* Whether the generated query selects [who] in [g]. *)
let selected g shape who =
  match Sparql.Gen.matching_nodes g shape with
  | Error msg -> Alcotest.fail msg
  | Ok nodes -> List.exists (Rdf.Term.equal (node who)) nodes

let test_gen_per_node () =
  List.iter
    (fun (who, expected) ->
      check_bool who expected (selected example2_graph person_shape who))
    [ ("john", true); ("bob", true); ("mary", false) ]

let test_gen_rejects_recursion () =
  let e =
    Shex.Rse.arc_ref (Shex.Value_set.Pred (foaf "knows"))
      (Shex.Label.of_string "Person")
  in
  check_bool "refs rejected" true (Result.is_error (Sparql.Gen.of_shape e));
  check_bool "non-sorbe rejected" true
    (Result.is_error (Sparql.Gen.of_shape example10))

let test_gen_closedness () =
  (* A node with an extra predicate must be rejected even if all
     declared constraints pass (Example 4 misses this; we add it). *)
  let g =
    Rdf.Graph.add (triple (node "john") (ex "extra") (num 1)) example2_graph
  in
  check_bool "extra predicate rejected" false (selected g person_shape "john")

let test_gen_absent_optional_predicate () =
  (* bob matches with zero knows arcs (star) — absent branch works. *)
  check_bool "bob matches" true (selected example2_graph person_shape "bob")

let test_gen_bounded_optional () =
  (* knows{0,1}: john (1 knows) ok, two knows arcs fail. *)
  let shape =
    Shex.Rse.and_all
      [ Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "age")) Shex.Value_set.xsd_integer;
        Shex.Rse.repeat 0 (Some 1)
          (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "knows"))
             (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)) ]
  in
  let g =
    graph_of
      [ triple (node "x") (foaf "age") (num 1);
        triple (node "x") (foaf "knows") (node "a");
        triple (node "x") (foaf "knows") (node "b") ]
  in
  check_bool "two knows rejected" false (selected g shape "x")

(* The generated query, as --show-sparql prints it: [foaf:age]'s
   {1,1} bound puts both count conditions in one HAVING clause. *)
let test_gen_pp_renders () =
  match Sparql.Gen.of_shape person_shape with
  | Error msg -> Alcotest.fail msg
  | Ok sel ->
      check_string "generated Person query"
        {|SELECT DISTINCT ?X {
    { SELECT DISTINCT ?X {
        ?X ?ap2 ?ao1 .
      }
    }
    { SELECT ?X (COUNT(*) AS ?c4) {
        ?X <http://xmlns.com/foaf/0.1/age> ?o3 .
      }
      GROUP BY ?X
      HAVING (?c4 >= 1) (?c4 <= 1)
    }
    { SELECT ?X (COUNT(*) AS ?c10) {
        ?X <http://xmlns.com/foaf/0.1/name> ?o9 .
      }
      GROUP BY ?X
      HAVING (?c10 >= 1)
    }
    FILTER (((NOT EXISTS {
    ?X <http://xmlns.com/foaf/0.1/age> ?vo12 .
    FILTER (!(isLiteral(?vo12) && (datatype(?vo12) = <http://www.w3.org/2001/XMLSchema#integer>)))
  } && NOT EXISTS {
    ?X <http://xmlns.com/foaf/0.1/knows> ?vo13 .
    FILTER (!isIRI(?vo13))
  }) && NOT EXISTS {
    ?X <http://xmlns.com/foaf/0.1/name> ?vo14 .
    FILTER (!(isLiteral(?vo14) && (datatype(?vo14) = <http://www.w3.org/2001/XMLSchema#string>)))
  }) && NOT EXISTS {
    ?X ?p15 ?oc16 .
    FILTER (((?p15 != <http://xmlns.com/foaf/0.1/age>) && (?p15 != <http://xmlns.com/foaf/0.1/knows>)) && (?p15 != <http://xmlns.com/foaf/0.1/name>))
  })
  }|}
        (Sparql.Pp.query_to_string (A.Select_q sel))

(* ------------------------------------------------------------------ *)
(* The paper's Example 4                                              *)
(* ------------------------------------------------------------------ *)

let test_example4_ask () =
  let q = Sparql.Gen.example4_query () in
  (match E.run example2_graph q with
  | `Boolean b -> check_bool "some Person exists" true b
  | `Solutions _ -> Alcotest.fail "expected boolean");
  (* A graph with only mary has no Person. *)
  let mary_only =
    graph_of
      [ triple (node "mary") (foaf "age") (num 50);
        triple (node "mary") (foaf "age") (num 65) ]
  in
  match E.run mary_only q with
  | `Boolean b -> check_bool "no Person" false b
  | `Solutions _ -> Alcotest.fail "expected boolean"

let test_example4_renders () =
  check_string "Example 4 query"
    {|ASK {
  { SELECT ?Person (COUNT(*) AS ?age_all) {
      ?Person <http://xmlns.com/foaf/0.1/age> ?o .
    }
    GROUP BY ?Person
    HAVING (?age_all = 1)
  }
  { SELECT ?Person (COUNT(*) AS ?age_ok) {
      ?Person <http://xmlns.com/foaf/0.1/age> ?o .
      FILTER (isLiteral(?o) && (datatype(?o) = <http://www.w3.org/2001/XMLSchema#integer>))
    }
    GROUP BY ?Person
    HAVING (?age_ok = 1)
  }
  { SELECT ?Person (COUNT(*) AS ?Person_c0) {
      ?Person <http://xmlns.com/foaf/0.1/name> ?o .
    }
    GROUP BY ?Person
    HAVING (?Person_c0 >= 1)
  }
  { SELECT ?Person (COUNT(*) AS ?Person_c1) {
      ?Person <http://xmlns.com/foaf/0.1/name> ?o .
      FILTER (isLiteral(?o) && (datatype(?o) = <http://www.w3.org/2001/XMLSchema#string>))
    }
    GROUP BY ?Person
    HAVING (?Person_c1 >= 1)
  }
  FILTER (?Person_c0 = ?Person_c1)
  {
    { SELECT ?Person (COUNT(*) AS ?Person_c2) {
        ?Person <http://xmlns.com/foaf/0.1/knows> ?o .
      }
      GROUP BY ?Person
    }
    { SELECT ?Person (COUNT(*) AS ?Person_c3) {
        ?Person <http://xmlns.com/foaf/0.1/knows> ?o .
        FILTER (isIRI(?o) || isBlank(?o))
      }
      GROUP BY ?Person
      HAVING (?Person_c3 >= 1)
    }
    FILTER (?Person_c2 = ?Person_c3)
  } UNION {
    { SELECT DISTINCT ?Person {
        ?Person ?ap ?ao .
        OPTIONAL {
          ?Person <http://xmlns.com/foaf/0.1/knows> ?o .
        }
        FILTER (!bound(?o))
      }
    }
  }
}|}
    (Sparql.Pp.query_to_string (Sparql.Gen.example4_query ()))

let suites =
  [ ( "sparql.eval",
      [ Alcotest.test_case "single pattern" `Quick test_bgp_single;
        Alcotest.test_case "bgp join" `Quick test_bgp_join_within;
        Alcotest.test_case "constant subject" `Quick
          test_bgp_constant_subject;
        Alcotest.test_case "shared variable" `Quick test_bgp_shared_variable;
        Alcotest.test_case "filter on datatype" `Quick test_filter_datatype;
        Alcotest.test_case "numeric comparison" `Quick
          test_filter_numeric_compare;
        Alcotest.test_case "errors are false" `Quick
          test_filter_error_is_false;
        Alcotest.test_case "union" `Quick test_union;
        Alcotest.test_case "optional" `Quick test_optional;
        Alcotest.test_case "optional/!bound idiom" `Quick
          test_optional_bound_idiom;
        Alcotest.test_case "exists" `Quick test_exists;
        Alcotest.test_case "not exists" `Quick test_not_exists;
        Alcotest.test_case "count + having" `Quick
          test_subselect_count_having;
        Alcotest.test_case "subselect joins outer" `Quick
          test_subselect_joins_with_outer;
        Alcotest.test_case "ask" `Quick test_ask ] );
    ( "sparql.gen",
      [ Alcotest.test_case "agrees with derivatives" `Quick
          test_gen_agrees_with_derivatives;
        Alcotest.test_case "per-node verdicts" `Quick test_gen_per_node;
        Alcotest.test_case "recursion rejected" `Quick
          test_gen_rejects_recursion;
        Alcotest.test_case "closedness enforced" `Quick test_gen_closedness;
        Alcotest.test_case "absent optional predicate" `Quick
          test_gen_absent_optional_predicate;
        Alcotest.test_case "bounded optional" `Quick
          test_gen_bounded_optional;
        Alcotest.test_case "query renders" `Quick test_gen_pp_renders ] );
    ( "sparql.example4",
      [ Alcotest.test_case "ASK verdicts" `Quick test_example4_ask;
        Alcotest.test_case "rendering" `Quick test_example4_renders ] ) ]
