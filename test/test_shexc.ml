(* Tests for the ShExC parser and printer. *)

open Util
open Shex

let parse src =
  match Shexc.Shexc_parser.parse_schema src with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let parse_err src =
  match Shexc.Shexc_parser.parse_schema src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let prelude =
  "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
   PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
   PREFIX ex: <http://example.org/>\n"

(* The paper's Example 1 schema, verbatim modulo prefixes. *)
let example1_src =
  prelude
  ^ "<Person> {\n\
    \  foaf:age xsd:integer\n\
    \  , foaf:name xsd:string+\n\
    \  , foaf:knows @<Person>*\n\
     }\n"

let person = Label.of_string "Person"
let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

let test_example1 () =
  let s = parse example1_src in
  check_int "one shape" 1 (List.length (Schema.labels s));
  let e = Schema.find_exn s person in
  (* arc leaves: age, name (+ is one counted node), knows *)
  check_int "three arc leaves" 3 (List.length (Rse.arcs e));
  check_bool "recursive" true (is_recursive s person)

let test_example1_validates_example2 () =
  (* End to end: ShExC schema + Turtle data = Example 2's verdicts. *)
  let schema = parse example1_src in
  let data =
    "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
     @prefix : <http://example.org/> .\n\
     :john foaf:age 23; foaf:name \"John\"; foaf:knows :bob .\n\
     :bob foaf:age 34; foaf:name \"Bob\", \"Robert\" .\n\
     :mary foaf:age 50, 65 .\n"
  in
  let graph =
    match Turtle.Parse.parse_graph data with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  let session = Validate.session schema graph in
  check_bool "john" true (Validate.check_bool session (node "john") person);
  check_bool "bob" true (Validate.check_bool session (node "bob") person);
  check_bool "mary" false (Validate.check_bool session (node "mary") person)

let test_cardinalities () =
  let s =
    parse
      (prelude
      ^ "<T> { ex:a . , ex:b .* , ex:c .+ , ex:d .? , ex:e .{2} , ex:f \
         .{1,3} , ex:g .{2,} }")
  in
  let e = Schema.find_exn s (Label.of_string "T") in
  (* Every cardinality is one node over one arc leaf. *)
  check_int "one leaf per constraint" 7 (List.length (Rse.arcs e))

let test_counted_size () =
  (* A counted bound is stored, not expanded: the size of e{m,n} does
     not depend on m and n. *)
  let size card =
    let s = parse (prelude ^ "<T> { ex:p . " ^ card ^ " }") in
    Rse.size (Schema.find_exn s (Label.of_string "T"))
  in
  check_int "{1,1000000} is as big as {1,2}" (size "{1,2}") (size "{1,1000000}");
  check_int "{1000000,} is as big as {2,}" (size "{2,}") (size "{1000000,}")

let test_value_set () =
  let s = parse (prelude ^ "<T> { ex:p [ 1 2 \"three\" ex:four ] }") in
  let e = Schema.find_exn s (Label.of_string "T") in
  match Rse.arcs e with
  | [ { obj = Rse.Values (Value_set.Obj_in terms); _ } ] ->
      check_int "four values" 4 (List.length terms)
  | _ -> Alcotest.fail "expected a value set arc"

let test_value_set_with_stem () =
  let s = parse (prelude ^ "<T> { ex:p [ ex:a <http://example.org/sub/>~ ] }") in
  let e = Schema.find_exn s (Label.of_string "T") in
  match Rse.arcs e with
  | [ { obj = Rse.Values (Value_set.Obj_or parts); _ } ] ->
      check_int "two parts" 2 (List.length parts);
      check_bool "stem matches" true
        (Value_set.obj_mem (Value_set.Obj_or parts)
           (iri "http://example.org/sub/thing"))
  | _ -> Alcotest.fail "expected an or value class"

let test_node_kinds () =
  let s =
    parse (prelude ^ "<T> { ex:i IRI , ex:b BNODE , ex:l LITERAL , ex:n NONLITERAL }")
  in
  let e = Schema.find_exn s (Label.of_string "T") in
  check_int "four arcs" 4 (List.length (Rse.arcs e))

let test_wildcard_and_datatype_iri () =
  let s =
    parse (prelude ^ "<T> { ex:any . , ex:custom <http://example.org/dt> }")
  in
  let e = Schema.find_exn s (Label.of_string "T") in
  match Rse.arcs e with
  | [ { obj = Rse.Values Value_set.Obj_any; _ };
      { obj = Rse.Values (Value_set.Obj_datatype_iri _); _ } ] ->
      ()
  | _ -> Alcotest.fail "expected wildcard then datatype-iri arcs"

let test_alternatives_and_groups () =
  let s =
    parse (prelude ^ "<T> { ( ex:a . , ex:b . ) | ex:c .{1} }")
  in
  let e = Schema.find_exn s (Label.of_string "T") in
  (* ACI normalisation orders disjuncts canonically, so accept either
     orientation of the Or. *)
  match e with
  | Rse.Or (Rse.And _, Rse.Arc _) | Rse.Or (Rse.Arc _, Rse.And _) -> ()
  | _ -> Alcotest.fail (Format.asprintf "unexpected structure %a" Rse.pp e)

let test_group_cardinality () =
  (* (a , b)* is the Example 10 balance checker. *)
  let s = parse (prelude ^ "<T> { ( ex:a [ 1 2 ] , ex:b [ 1 2 ] )* }") in
  let e = Schema.find_exn s (Label.of_string "T") in
  match e with
  | Rse.Star (Rse.And _) -> ()
  | _ -> Alcotest.fail "expected star of group"

let test_inverse_and_negation () =
  let s = parse (prelude ^ "<T> { ^ex:manages . , ! ex:banned . }") in
  let e = Schema.find_exn s (Label.of_string "T") in
  check_bool "has inverse" true (Rse.has_inverse e);
  check_bool "has not" true (Rse.has_not e)

let test_a_keyword () =
  let s = parse (prelude ^ "<T> { a [ ex:Person ] }") in
  let e = Schema.find_exn s (Label.of_string "T") in
  match Rse.arcs e with
  | [ { pred = Value_set.Pred p; _ } ] ->
      check_bool "rdf:type" true
        (Rdf.Iri.equal p Rdf.Namespace.Vocab.rdf_type)
  | _ -> Alcotest.fail "expected one arc"

let test_empty_shape () =
  let s = parse "<T> {}" in
  Alcotest.check rse "epsilon" Rse.epsilon
    (Schema.find_exn s (Label.of_string "T"))

let test_pname_labels () =
  let s =
    parse (prelude ^ "ex:Person { foaf:name xsd:string }")
  in
  check_bool "label expanded" true
    (Schema.mem s (Label.of_string "http://example.org/Person"))

let test_ref_by_pname () =
  let s =
    parse
      (prelude
      ^ "ex:A { ex:next @ex:B ? }\nex:B { ex:val xsd:integer }")
  in
  check_bool "both shapes" true
    (Schema.mem s (Label.of_string "http://example.org/A")
    && Schema.mem s (Label.of_string "http://example.org/B"));
  (* @<ex:C> is the IRI ex:C, like the label <ex:C>, even with ex:
     bound. *)
  let s = parse (prelude ^ "<ex:C> { ex:val . }\n<D> { ex:next @<ex:C> }") in
  check_bool "IRI reference" true (Schema.mem s (Label.of_string "ex:C"))

let test_semicolon_separator () =
  let s = parse (prelude ^ "<T> { ex:a . ; ex:b . ; }") in
  check_int "two arcs" 2
    (List.length (Rse.arcs (Schema.find_exn s (Label.of_string "T"))))

let test_langtag_values () =
  let s = parse (prelude ^ "<T> { ex:label [ \"hola\"@es \"hi\"@en ] }") in
  let e = Schema.find_exn s (Label.of_string "T") in
  match Rse.arcs e with
  | [ { obj = Rse.Values vo; _ } ] ->
      check_bool "es matches" true
        (Value_set.obj_mem vo
           (Rdf.Term.Literal (Rdf.Literal.make ~lang:"es" "hola")));
      check_bool "fr rejected" false
        (Value_set.obj_mem vo
           (Rdf.Term.Literal (Rdf.Literal.make ~lang:"fr" "hola")))
  | _ -> Alcotest.fail "expected value set"

let test_errors () =
  List.iter
    (fun (name, src) ->
      check_bool name true (String.length (parse_err src) > 0))
    [ ("unbound prefix", "<T> { nope:p . }");
      ("missing brace", prelude ^ "<T> { ex:p . ");
      ("bad cardinality", prelude ^ "<T> { ex:p .{3,1} }");
      ("dangling ref", prelude ^ "<T> { ex:p @<Ghost> }");
      ("duplicate label", prelude ^ "<T> {} <T> {}");
      ("negated ref", prelude ^ "<T> { ! ex:p @<T> }");
      ("empty value set", prelude ^ "<T> { ex:p [ ] }") ]

(* Printer round-trips *)

let roundtrip src =
  let s = parse src in
  let printed = Shexc.Shexc_printer.schema_to_string s in
  let s' = parse printed in
  (s, printed, s')

let schemas_equal s1 s2 =
  let rules1 = Schema.rules s1 and rules2 = Schema.rules s2 in
  List.length rules1 = List.length rules2
  && List.for_all2
       (fun (l1, e1) (l2, e2) -> Label.equal l1 l2 && Rse.equal e1 e2)
       rules1 rules2

let test_print_roundtrip_example1 () =
  let s, printed, s' = roundtrip example1_src in
  check_bool ("roundtrip:\n" ^ printed) true (schemas_equal s s')

let test_print_roundtrip_rich () =
  let src =
    prelude
    ^ "<T> {\n\
      \  ex:a xsd:integer , ex:b [ 1 2 ] * , ( ex:c IRI | ex:d LITERAL ) ,\n\
      \  ^ex:e . ? , ! ex:f [ \"x\" ]\n\
       }\n"
  in
  let s, printed, s' = roundtrip src in
  check_bool ("roundtrip:\n" ^ printed) true (schemas_equal s s')

let test_print_roundtrip_empty () =
  let s, printed, s' = roundtrip "<T> {}" in
  check_bool ("roundtrip:\n" ^ printed) true (schemas_equal s s')

let test_print_roundtrip_duplicate_conjuncts () =
  (* Oracle-found printer bug: merged-cardinality printing summed the
     intervals of duplicate conjuncts, so (p→int)⋆ ‖ (p→int)⋆ printed
     as a single `p xsd:integer *` and parsed back to a smaller
     conjunct bag.  The printer now prints each conjunct as it is. *)
  let a = Rse.arc_v (Value_set.Pred (ex "p")) Value_set.xsd_integer in
  let e = Rse.and_ (Rse.star a) (Rse.star a) in
  let s = Schema.make_exn [ (Label.of_string "T", e) ] in
  let printed = Shexc.Shexc_printer.schema_to_string s in
  let s' = parse printed in
  check_bool ("roundtrip:\n" ^ printed) true (schemas_equal s s')

let test_print_roundtrip_repeated_arc () =
  (* a ‖ a is two conjuncts, not a{2}: it prints as two and parses back
     to the same expression. *)
  let a = Rse.arc_v (Value_set.Pred (ex "p")) Value_set.xsd_integer in
  let e = Rse.and_ a a in
  let s = Schema.make_exn [ (Label.of_string "T", e) ] in
  let printed = Shexc.Shexc_printer.schema_to_string s in
  check_bool ("two conjuncts:\n" ^ printed) true
    (contains printed ":p xsd:integer , :p xsd:integer");
  check_bool ("roundtrip:\n" ^ printed) true
    (Rse.equal e (Schema.find_exn (parse printed) (Label.of_string "T")))

(* Full-schema round-trip over the oracle's Surface-mode generator,
   including focus constraints (which [schemas_equal] above ignores).
   Smart constructors keep both sides in the same normal form, so
   plain structural equality is the right check. *)
let shapes_equal s1 s2 =
  let sh1 = Schema.shapes s1 and sh2 = Schema.shapes s2 in
  List.length sh1 = List.length sh2
  && List.for_all2
       (fun (l1, (a : Schema.shape)) (l2, (b : Schema.shape)) ->
         Label.equal l1 l2
         && Option.equal Value_set.obj_equal a.focus b.focus
         && Rse.equal a.expr b.expr)
       sh1 sh2

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"parse (print s) ≡ s over generated schemas"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let s = Workload.Rand_gen.schema (Workload.Prng.create seed) in
      let printed = Shexc.Shexc_printer.schema_to_string s in
      match Shexc.Shexc_parser.parse_schema printed with
      | Error msg -> QCheck.Test.fail_reportf "parse back: %s\n%s" msg printed
      | Ok s' ->
          shapes_equal s s'
          || QCheck.Test.fail_reportf "not structurally equal:\n%s" printed)

let suites =
  [ ( "shexc.parse",
      [ Alcotest.test_case "Example 1 schema" `Quick test_example1;
        Alcotest.test_case "Example 1 validates Example 2" `Quick
          test_example1_validates_example2;
        Alcotest.test_case "cardinalities" `Quick test_cardinalities;
        Alcotest.test_case "counted bounds have constant size" `Quick
          test_counted_size;
        Alcotest.test_case "value sets" `Quick test_value_set;
        Alcotest.test_case "value set stems" `Quick test_value_set_with_stem;
        Alcotest.test_case "node kinds" `Quick test_node_kinds;
        Alcotest.test_case "wildcard and custom datatype" `Quick
          test_wildcard_and_datatype_iri;
        Alcotest.test_case "alternatives and groups" `Quick
          test_alternatives_and_groups;
        Alcotest.test_case "group cardinality" `Quick test_group_cardinality;
        Alcotest.test_case "inverse and negation" `Quick
          test_inverse_and_negation;
        Alcotest.test_case "a keyword" `Quick test_a_keyword;
        Alcotest.test_case "empty shape" `Quick test_empty_shape;
        Alcotest.test_case "pname labels" `Quick test_pname_labels;
        Alcotest.test_case "references by pname" `Quick test_ref_by_pname;
        Alcotest.test_case "semicolon separator" `Quick
          test_semicolon_separator;
        Alcotest.test_case "language-tagged values" `Quick
          test_langtag_values;
        Alcotest.test_case "errors" `Quick test_errors ] );
    ( "shexc.print",
      [ Alcotest.test_case "roundtrip Example 1" `Quick
          test_print_roundtrip_example1;
        Alcotest.test_case "roundtrip rich schema" `Quick
          test_print_roundtrip_rich;
        Alcotest.test_case "roundtrip empty shape" `Quick
          test_print_roundtrip_empty;
        Alcotest.test_case "roundtrip duplicate conjuncts" `Quick
          test_print_roundtrip_duplicate_conjuncts;
        Alcotest.test_case "roundtrip repeated arc" `Quick
          test_print_roundtrip_repeated_arc;
        QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ] ) ]
