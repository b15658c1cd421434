(* Unit tests for the RDF substrate: IRIs, XSD datatypes, literals,
   terms, namespaces and graphs. *)

open Util

(* ------------------------------------------------------------------ *)
(* Iri                                                                *)
(* ------------------------------------------------------------------ *)

let test_iri_valid () =
  check_bool "http iri ok"
    true
    (Result.is_ok (Rdf.Iri.of_string "http://example.org/a"));
  check_bool "relative iri ok" true (Result.is_ok (Rdf.Iri.of_string "a/b"));
  check_bool "urn ok" true (Result.is_ok (Rdf.Iri.of_string "urn:isbn:123"))

let test_iri_invalid () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true
        (Result.is_error (Rdf.Iri.of_string s)))
    [ "http://example.org/a b"; "a<b"; "a>b"; "a\"b"; "a{b"; "a}b"; "a|b";
      "a\\b"; "a`b"; "a\x01b" ]

let test_iri_scheme () =
  let s x = Rdf.Iri.scheme (Rdf.Iri.of_string_exn x) in
  Alcotest.(check (option string)) "http" (Some "http") (s "http://e.org");
  Alcotest.(check (option string)) "urn" (Some "urn") (s "urn:x");
  Alcotest.(check (option string)) "relative" None (s "a/b");
  Alcotest.(check (option string)) "no scheme digits-first" None (s "1:x")

(* A reference is resolved against the base only when it is relative,
   that is, when it has no [scheme:] (RFC 3986 §4.3). *)
let test_iri_absolute () =
  let read text =
    Result.map Rdf.Iri.to_string
      (Rdf.Iri.of_reference ~base:(Rdf.Iri.of_string_exn "http://b.org/") text)
  in
  Alcotest.(check (result string string))
    "absolute" (Ok "http://e.org/x") (read "http://e.org/x");
  Alcotest.(check (result string string))
    "relative" (Ok "http://b.org/x") (read "x")

let resolve base r =
  Rdf.Iri.to_string
    (Rdf.Iri.resolve ~base:(Rdf.Iri.of_string_exn base)
       (Rdf.Iri.of_string_exn r))

let test_iri_resolve_rfc3986 () =
  (* Selected normal examples from RFC 3986 §5.4.1 with
     base = http://a/b/c/d;p?q *)
  let base = "http://a/b/c/d;p?q" in
  let cases =
    [ ("g", "http://a/b/c/g");
      ("./g", "http://a/b/c/g");
      ("g/", "http://a/b/c/g/");
      ("/g", "http://a/g");
      ("//g", "http://g");
      ("?y", "http://a/b/c/d;p?y");
      ("g?y", "http://a/b/c/g?y");
      ("#s", "http://a/b/c/d;p?q#s");
      ("g#s", "http://a/b/c/g#s");
      (";x", "http://a/b/c/;x");
      ("", "http://a/b/c/d;p?q");
      (".", "http://a/b/c/");
      ("..", "http://a/b/");
      ("../g", "http://a/b/g");
      ("../..", "http://a/");
      ("../../g", "http://a/g");
      ("http://x/y", "http://x/y") ]
  in
  List.iter
    (fun (r, expected) -> check_string r expected (resolve base r))
    cases

let test_iri_resolve_dot_segments () =
  check_string "excess dotdot" "http://a/g" (resolve "http://a/b/c/d" "../../../g");
  check_string "trailing dot" "http://a/b/" (resolve "http://a/b/c" ".")

let iri_tests =
  [ Alcotest.test_case "valid IRIs accepted" `Quick test_iri_valid;
    Alcotest.test_case "invalid IRIs rejected" `Quick test_iri_invalid;
    Alcotest.test_case "scheme extraction" `Quick test_iri_scheme;
    Alcotest.test_case "absoluteness" `Quick test_iri_absolute;
    Alcotest.test_case "RFC 3986 resolution examples" `Quick
      test_iri_resolve_rfc3986;
    Alcotest.test_case "dot segment edge cases" `Quick
      test_iri_resolve_dot_segments ]

(* ------------------------------------------------------------------ *)
(* Xsd                                                                *)
(* ------------------------------------------------------------------ *)

let valid dt s = Rdf.Xsd.valid_lexical dt s

let test_xsd_integer () =
  List.iter
    (fun s -> check_bool s true (valid Rdf.Xsd.Integer s))
    [ "0"; "23"; "-7"; "+005"; "12345678901234" ];
  List.iter
    (fun s -> check_bool s false (valid Rdf.Xsd.Integer s))
    [ ""; "1.5"; "abc"; "+"; "-"; "1e3"; " 1"; "1 " ]

let test_xsd_decimal () =
  List.iter
    (fun s -> check_bool s true (valid Rdf.Xsd.Decimal s))
    [ "1.5"; "-0.5"; ".5"; "5."; "42"; "+3.14" ];
  List.iter
    (fun s -> check_bool s false (valid Rdf.Xsd.Decimal s))
    [ "1e3"; "INF"; "NaN"; "1.2.3"; "." ]

let test_xsd_double () =
  List.iter
    (fun s -> check_bool s true (valid Rdf.Xsd.Double s))
    [ "1.5"; "1e3"; "-1.2E-5"; "INF"; "-INF"; "NaN"; "42" ];
  List.iter
    (fun s -> check_bool s false (valid Rdf.Xsd.Double s))
    [ "e3"; "1e"; "1e1.5"; "inf" ]

let test_xsd_boolean () =
  List.iter
    (fun s -> check_bool s true (valid Rdf.Xsd.Boolean s))
    [ "true"; "false"; "1"; "0" ];
  List.iter
    (fun s -> check_bool s false (valid Rdf.Xsd.Boolean s))
    [ "True"; "FALSE"; "2"; "yes" ]

let test_xsd_bounded_ints () =
  check_bool "byte 127" true (valid Rdf.Xsd.Byte "127");
  check_bool "byte 128" false (valid Rdf.Xsd.Byte "128");
  check_bool "byte -128" true (valid Rdf.Xsd.Byte "-128");
  check_bool "short 32767" true (valid Rdf.Xsd.Short "32767");
  check_bool "short 32768" false (valid Rdf.Xsd.Short "32768");
  check_bool "int 2^31-1" true (valid Rdf.Xsd.Int "2147483647");
  check_bool "int 2^31" false (valid Rdf.Xsd.Int "2147483648");
  check_bool "unsignedByte 255" true (valid Rdf.Xsd.Unsigned_byte "255");
  check_bool "unsignedByte -1" false (valid Rdf.Xsd.Unsigned_byte "-1");
  check_bool "nonNegative 0" true (valid Rdf.Xsd.Non_negative_integer "0");
  check_bool "nonNegative -1" false
    (valid Rdf.Xsd.Non_negative_integer "-1");
  check_bool "positive 0" false (valid Rdf.Xsd.Positive_integer "0");
  check_bool "negative -1" true (valid Rdf.Xsd.Negative_integer "-1");
  check_bool "nonPositive 0" true (valid Rdf.Xsd.Non_positive_integer "0")

let test_xsd_dates () =
  check_bool "date" true (valid Rdf.Xsd.Date "2015-03-27");
  check_bool "date tz" true (valid Rdf.Xsd.Date "2015-03-27Z");
  check_bool "date offset" true (valid Rdf.Xsd.Date "2015-03-27+01:00");
  check_bool "bad date" false (valid Rdf.Xsd.Date "2015-3-27");
  check_bool "dateTime" true
    (valid Rdf.Xsd.Date_time "2015-03-27T12:30:00");
  check_bool "dateTime frac tz" true
    (valid Rdf.Xsd.Date_time "2015-03-27T12:30:00.5Z");
  check_bool "bad dateTime" false (valid Rdf.Xsd.Date_time "2015-03-27");
  check_bool "time" true (valid Rdf.Xsd.Time "23:59:59");
  check_bool "bad time" false (valid Rdf.Xsd.Time "24:00")

(* Every primitive's IRI is its namespace and local name, and reads
   back through [of_iri]; [all] names each of the 23 once. *)
let test_xsd_iri_roundtrip () =
  check_int "23 distinct primitives" 23
    (List.length (List.sort_uniq compare Rdf.Xsd.all));
  List.iter
    (fun dt ->
      let ns =
        if dt = Rdf.Xsd.Lang_string then
          "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        else "http://www.w3.org/2001/XMLSchema#"
      in
      check_string (Rdf.Xsd.name dt) (ns ^ Rdf.Xsd.name dt)
        (Rdf.Iri.to_string (Rdf.Xsd.iri dt));
      Alcotest.(check (option bool))
        (Rdf.Xsd.name dt) (Some true)
        (Option.map (fun dt' -> dt = dt') (Rdf.Xsd.of_iri (Rdf.Xsd.iri dt))))
    Rdf.Xsd.all

let test_xsd_parse () =
  Alcotest.(check (option int)) "+005" (Some 5) (Rdf.Xsd.parse_integer "+005");
  Alcotest.(check (option int)) "-3" (Some (-3)) (Rdf.Xsd.parse_integer "-3");
  Alcotest.(check (option int)) "junk" None (Rdf.Xsd.parse_integer "x");
  check_bool "INF" true (Rdf.Xsd.parse_decimal "INF" = Some infinity);
  check_bool "1.5" true (Rdf.Xsd.parse_decimal "1.5" = Some 1.5)

let xsd_tests =
  [ Alcotest.test_case "integer lexical space" `Quick test_xsd_integer;
    Alcotest.test_case "decimal lexical space" `Quick test_xsd_decimal;
    Alcotest.test_case "double lexical space" `Quick test_xsd_double;
    Alcotest.test_case "boolean lexical space" `Quick test_xsd_boolean;
    Alcotest.test_case "bounded integer ranges" `Quick test_xsd_bounded_ints;
    Alcotest.test_case "date/time lexical spaces" `Quick test_xsd_dates;
    Alcotest.test_case "iri <-> primitive roundtrip" `Quick
      test_xsd_iri_roundtrip;
    Alcotest.test_case "value-space parsing" `Quick test_xsd_parse ]

(* ------------------------------------------------------------------ *)
(* Literal                                                            *)
(* ------------------------------------------------------------------ *)

let test_literal_plain () =
  let l = Rdf.Literal.string "John" in
  check_string "lexical" "John" (Rdf.Literal.lexical l);
  check_bool "datatype is xsd:string" true
    (Rdf.Iri.equal (Rdf.Literal.datatype l) (Rdf.Xsd.iri Rdf.Xsd.String));
  Alcotest.(check (option string)) "no lang" None (Rdf.Literal.lang l)

let test_literal_lang () =
  let l = Rdf.Literal.make ~lang:"EN" "hello" in
  Alcotest.(check (option string)) "lang lowercased" (Some "en")
    (Rdf.Literal.lang l);
  check_bool "datatype is rdf:langString" true
    (Rdf.Iri.equal (Rdf.Literal.datatype l)
       (Rdf.Xsd.iri Rdf.Xsd.Lang_string))

let test_literal_typed () =
  let l = Rdf.Literal.integer 23 in
  check_bool "has xsd:integer" true
    (Rdf.Literal.has_datatype l Rdf.Xsd.Integer);
  check_bool "not xsd:string" false
    (Rdf.Literal.has_datatype l Rdf.Xsd.String);
  Alcotest.(check (option int)) "as_int" (Some 23) (Rdf.Literal.as_int l)

let test_literal_malformed () =
  let bad = Rdf.Literal.typed Rdf.Xsd.Integer "twelve" in
  check_bool "has_datatype demands well-formedness" false
    (Rdf.Literal.has_datatype bad Rdf.Xsd.Integer);
  Alcotest.(check (option int)) "no int value" None (Rdf.Literal.as_int bad)

let test_literal_equality () =
  check_bool "same" true
    (Rdf.Literal.equal (Rdf.Literal.integer 1) (Rdf.Literal.integer 1));
  check_bool "lexical differs" false
    (Rdf.Literal.equal (Rdf.Literal.integer 1)
       (Rdf.Literal.typed Rdf.Xsd.Integer "01"));
  check_bool "datatype differs" false
    (Rdf.Literal.equal (Rdf.Literal.string "1") (Rdf.Literal.integer 1));
  check_bool "lang case-insensitive" true
    (Rdf.Literal.equal
       (Rdf.Literal.make ~lang:"EN" "x")
       (Rdf.Literal.make ~lang:"en" "x"))

let test_literal_pp () =
  let show l = Format.asprintf "%a" Rdf.Literal.pp l in
  check_string "plain" "\"hi\"" (show (Rdf.Literal.string "hi"));
  check_string "escaped" "\"a\\\"b\\nc\"" (show (Rdf.Literal.string "a\"b\nc"));
  check_string "lang" "\"hi\"@en" (show (Rdf.Literal.make ~lang:"en" "hi"));
  check_string "typed"
    "\"23\"^^<http://www.w3.org/2001/XMLSchema#integer>"
    (show (Rdf.Literal.integer 23))

let literal_tests =
  [ Alcotest.test_case "plain literal" `Quick test_literal_plain;
    Alcotest.test_case "language-tagged literal" `Quick test_literal_lang;
    Alcotest.test_case "typed literal value" `Quick test_literal_typed;
    Alcotest.test_case "malformed lexical form" `Quick test_literal_malformed;
    Alcotest.test_case "term equality" `Quick test_literal_equality;
    Alcotest.test_case "printing" `Quick test_literal_pp ]

(* ------------------------------------------------------------------ *)
(* Term                                                               *)
(* ------------------------------------------------------------------ *)

let test_term_kinds () =
  check_bool "iri" true (Rdf.Term.is_iri (node "a"));
  check_bool "literal" true (Rdf.Term.is_literal (num 1));
  check_bool "bnode" true (Rdf.Term.is_bnode (Rdf.Term.bnode "b0"));
  check_bool "subject_ok iri" true (Rdf.Term.subject_ok (node "a"));
  check_bool "subject_ok bnode" true
    (Rdf.Term.subject_ok (Rdf.Term.bnode "b0"));
  check_bool "subject_ok literal" false (Rdf.Term.subject_ok (num 1))

let test_term_order () =
  (* IRIs < bnodes < literals *)
  check_bool "iri < bnode" true
    (Rdf.Term.compare (node "z") (Rdf.Term.bnode "a") < 0);
  check_bool "bnode < literal" true
    (Rdf.Term.compare (Rdf.Term.bnode "z") (num 0) < 0);
  check_bool "reflexive" true (Rdf.Term.compare (num 1) (num 1) = 0)

let term_tests =
  [ Alcotest.test_case "kind predicates" `Quick test_term_kinds;
    Alcotest.test_case "total order" `Quick test_term_order ]

(* ------------------------------------------------------------------ *)
(* Namespace                                                          *)
(* ------------------------------------------------------------------ *)

let test_ns_expand () =
  let ns = Rdf.Namespace.default in
  (match Rdf.Namespace.expand ns "foaf:age" with
  | Ok iri ->
      check_string "foaf expand" "http://xmlns.com/foaf/0.1/age"
        (Rdf.Iri.to_string iri)
  | Error e -> Alcotest.fail e);
  check_bool "unbound prefix" true
    (Result.is_error (Rdf.Namespace.expand ns "nope:x"));
  check_bool "no colon" true
    (Result.is_error (Rdf.Namespace.expand ns "plain"))

let test_ns_shrink () =
  let ns = Rdf.Namespace.default in
  Alcotest.(check (option string))
    "foaf shrink" (Some "foaf:age")
    (Rdf.Namespace.shrink ns (i "http://xmlns.com/foaf/0.1/age"));
  Alcotest.(check (option string))
    "unknown ns" None
    (Rdf.Namespace.shrink ns (i "http://other.net/x"));
  (* Local parts with unsafe characters must not shrink. *)
  Alcotest.(check (option string))
    "slash in local" None
    (Rdf.Namespace.shrink ns (i "http://xmlns.com/foaf/0.1/a/b"))

let test_ns_longest_match () =
  let ns =
    Rdf.Namespace.empty
    |> Rdf.Namespace.add "a" "http://e.org/"
    |> Rdf.Namespace.add "ab" "http://e.org/sub/"
  in
  Alcotest.(check (option string))
    "longest wins" (Some "ab:x")
    (Rdf.Namespace.shrink ns (i "http://e.org/sub/x"))

let test_ns_rebind () =
  let ns =
    Rdf.Namespace.default |> Rdf.Namespace.add "foaf" "http://new.org/"
  in
  Alcotest.(check (option string))
    "rebound" (Some "http://new.org/")
    (Rdf.Namespace.find "foaf" ns)

let namespace_tests =
  [ Alcotest.test_case "expand prefixed names" `Quick test_ns_expand;
    Alcotest.test_case "shrink IRIs" `Quick test_ns_shrink;
    Alcotest.test_case "longest namespace wins" `Quick test_ns_longest_match;
    Alcotest.test_case "rebinding replaces" `Quick test_ns_rebind ]

(* ------------------------------------------------------------------ *)
(* Triple and Graph                                                   *)
(* ------------------------------------------------------------------ *)

let test_triple_subject_constraint () =
  Alcotest.check_raises "literal subject rejected"
    (Invalid_argument
       "Triple.make: literal in subject position: \"1\"^^<http://www.w3.org/2001/XMLSchema#integer>")
    (fun () -> ignore (triple (num 1) (ex "p") (num 2)));
  check_bool "make_opt none" true
    (Rdf.Triple.make_opt (num 1) (ex "p") (num 2) = None)

let test_graph_basics () =
  let g = example8_graph in
  check_int "cardinal" 3 (Rdf.Graph.cardinal g);
  check_bool "mem" true (Rdf.Graph.mem (t3 "n" "a" (num 1)) g);
  check_bool "not mem" false (Rdf.Graph.mem (t3 "n" "a" (num 2)) g);
  let g' = Rdf.Graph.add (t3 "n" "a" (num 1)) g in
  check_int "idempotent add" 3 (Rdf.Graph.cardinal g');
  let g'' = Rdf.Graph.remove (t3 "n" "a" (num 1)) g in
  check_int "remove" 2 (Rdf.Graph.cardinal g'');
  check_int "remove absent is noop" 2
    (Rdf.Graph.cardinal (Rdf.Graph.remove (t3 "n" "a" (num 1)) g''))

let test_graph_union () =
  let g1 = graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 1) ] in
  let g2 = graph_of [ t3 "n" "b" (num 1); t3 "n" "b" (num 2) ] in
  let u = Rdf.Graph.union g1 g2 in
  check_int "union dedups" 3 (Rdf.Graph.cardinal u);
  Alcotest.check graph "union commutes" u (Rdf.Graph.union g2 g1)

let test_graph_neighbourhood () =
  let g =
    graph_of
      [ t3 "n" "a" (num 1); t3 "n" "b" (num 2); t3 "m" "a" (num 1);
        t3 "m" "c" (node "n") ]
  in
  let sigma_n = Rdf.Graph.out_triples (node "n") g in
  check_int "sigma n" 2 (List.length sigma_n);
  let sigma_q = Rdf.Graph.out_triples (node "q") g in
  check_bool "absent node empty" true (sigma_q = []);
  let incoming = Rdf.Graph.in_triples (node "n") g in
  check_int "incoming" 1 (List.length incoming)

let test_graph_objects_of () =
  let g = example8_graph in
  Alcotest.(check (list term))
    "objects of b" [ num 1; num 2 ]
    (Rdf.Graph.objects_of (node "n") (ex "b") g);
  Alcotest.(check (list term))
    "objects of absent" []
    (Rdf.Graph.objects_of (node "n") (ex "z") g)

let test_graph_decompositions () =
  (* Example 3: a 3-triple graph has 2^3 = 8 decompositions. *)
  let g = example8_graph in
  let ds = Rdf.Graph.decompositions g in
  check_int "2^3 pairs" 8 (List.length ds);
  List.iter
    (fun (g1, g2) ->
      Alcotest.check graph "g1 ⊕ g2 = g" g (Rdf.Graph.union g1 g2);
      check_bool "disjoint" true
        (Rdf.Graph.for_all (fun tr -> not (Rdf.Graph.mem tr g2)) g1))
    ds;
  (* The empty graph decomposes into exactly ({},{}) *)
  check_int "empty" 1 (List.length (Rdf.Graph.decompositions Rdf.Graph.empty))

let test_graph_match_pattern () =
  let g = example8_graph in
  check_int "wildcard" 3 (List.length (Rdf.Graph.match_pattern g));
  check_int "by predicate" 2
    (List.length (Rdf.Graph.match_pattern ~p:(ex "b") g));
  check_int "by object" 2
    (List.length (Rdf.Graph.match_pattern ~o:(num 1) g));
  check_int "s+p+o" 1
    (List.length
       (Rdf.Graph.match_pattern ~s:(node "n") ~p:(ex "a") ~o:(num 1) g));
  check_int "no match" 0
    (List.length (Rdf.Graph.match_pattern ~p:(ex "z") g))

let test_graph_nodes () =
  let g = graph_of [ t3 "n" "a" (num 1); t3 "m" "b" (node "n") ] in
  check_int "nodes" 3 (List.length (Rdf.Graph.nodes g));
  check_int "subjects" 2 (List.length (Rdf.Graph.subjects g));
  check_int "predicates" 2 (List.length (Rdf.Graph.predicates g))

let test_graph_set_ops () =
  let g1 = graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 1) ] in
  let g2 = graph_of [ t3 "n" "b" (num 1) ] in
  check_bool "subset" true (Rdf.Graph.subset g2 g1);
  check_bool "not subset" false (Rdf.Graph.subset g1 g2);
  Alcotest.check graph "diff" (graph_of [ t3 "n" "a" (num 1) ])
    (Rdf.Graph.diff g1 g2)

(* [nodes] merges the two indexes' keys: allocation is a few list cells
   per distinct node (6 here, where no node is both a subject and an
   object; 9 where every node is), however many triples each node has.
   Adding both ends of every triple to a [Term.Set] instead allocated
   39 words per node on this graph — path copying for each new member —
   and walked all 20 000 triples. *)
let test_graph_nodes_allocation () =
  let g =
    Rdf.Graph.of_list
      (List.concat
         (List.init 20 (fun s ->
              List.concat
                (List.init 50 (fun p ->
                     List.init 20 (fun o ->
                         triple
                           (node ("s" ^ string_of_int s))
                           (ex ("p" ^ string_of_int p))
                           (node ("o" ^ string_of_int o))))))))
  in
  let before = Gc.minor_words () in
  let nodes = Rdf.Graph.nodes g in
  let words = Gc.minor_words () -. before in
  check_int "distinct nodes" 40 (List.length nodes);
  let per_node = words /. 40. in
  check_bool
    (Printf.sprintf "%.1f words per node (at most 12)" per_node)
    true (per_node <= 12.)

let graph_tests =
  [ Alcotest.test_case "literal subjects rejected" `Quick
      test_triple_subject_constraint;
    Alcotest.test_case "add/remove/mem" `Quick test_graph_basics;
    Alcotest.test_case "union (⊕)" `Quick test_graph_union;
    Alcotest.test_case "neighbourhood Σgn" `Quick test_graph_neighbourhood;
    Alcotest.test_case "objects_of" `Quick test_graph_objects_of;
    Alcotest.test_case "decompositions (Example 3)" `Quick
      test_graph_decompositions;
    Alcotest.test_case "pattern matching" `Quick test_graph_match_pattern;
    Alcotest.test_case "node/subject/predicate listing" `Quick
      test_graph_nodes;
    Alcotest.test_case "set operations" `Quick test_graph_set_ops;
    Alcotest.test_case "nodes allocates per node, not per triple" `Quick
      test_graph_nodes_allocation ]

let suites =
  [ ("rdf.iri", iri_tests);
    ("rdf.xsd", xsd_tests);
    ("rdf.literal", literal_tests);
    ("rdf.term", term_tests);
    ("rdf.namespace", namespace_tests);
    ("rdf.graph", graph_tests) ]
