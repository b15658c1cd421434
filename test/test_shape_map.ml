(* Tests for shape maps and validation reports. *)

open Util
open Shex

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)
let person = Label.of_string "Person"

let graph =
  graph_of
    [ triple (node "john") (foaf "age") (num 23);
      triple (node "john") (foaf "name") (Rdf.Term.str "John");
      triple (node "john") (foaf "knows") (node "bob");
      triple (node "bob") (foaf "age") (num 34);
      triple (node "bob") (foaf "name") (Rdf.Term.str "Bob");
      triple (node "mary") (foaf "age") (num 50);
      triple (node "mary") (foaf "age") (num 65);
      triple (node "john") Rdf.Namespace.Vocab.rdf_type (node "Human");
      triple (node "mary") Rdf.Namespace.Vocab.rdf_type (node "Human") ]

let schema =
  Schema.make_exn
    [ ( person,
        Rse.and_all
          [ Rse.arc_v (Value_set.Pred (foaf "age")) Value_set.xsd_integer;
            Rse.plus
              (Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string);
            Rse.star (Rse.arc_ref (Value_set.Pred (foaf "knows")) person);
            Rse.opt
              (Rse.arc_v (Value_set.Pred Rdf.Namespace.Vocab.rdf_type)
                 Value_set.Obj_any) ] ) ]

let parse src = Shape_map.parse_exn src

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_node_association () =
  let sm = parse "<http://example.org/john>@<Person>" in
  check_int "one association" 1 (List.length sm);
  match sm with
  | [ { Shape_map.selector = Shape_map.Node n; label } ] ->
      Alcotest.check term "node" (node "john") n;
      check_bool "label" true (Label.equal label person)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_pname_and_bnode () =
  let sm = parse "ex:john@ex:Person, _:b0@<S>" in
  check_int "two associations" 2 (List.length sm);
  match sm with
  | [ { Shape_map.selector = Shape_map.Node n1; label = l1 };
      { Shape_map.selector = Shape_map.Node n2; _ } ] ->
      Alcotest.check term "pname node" (node "john") n1;
      check_bool "pname label expanded" true
        (Label.to_string l1 = "http://example.org/Person");
      Alcotest.check term "bnode" (Rdf.Term.bnode "b0") n2
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_focus_subject () =
  match parse "{FOCUS a ex:Human}@<Person>" with
  | [ { Shape_map.selector = Shape_map.Focus_subject (Some p, Some o); _ } ]
    ->
      check_bool "pred is rdf:type" true
        (Rdf.Iri.equal p Rdf.Namespace.Vocab.rdf_type);
      Alcotest.check term "object" (iri "http://example.org/Human") o
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_focus_object_and_wildcards () =
  (match parse "{_ foaf:knows FOCUS}@<Person>" with
  | [ { Shape_map.selector = Shape_map.Focus_object (None, Some p); _ } ] ->
      check_bool "pred" true (Rdf.Iri.equal p (foaf "knows"))
  | _ -> Alcotest.fail "focus object");
  match parse "{FOCUS foaf:age _}@<Person>" with
  | [ { Shape_map.selector = Shape_map.Focus_subject (Some _, None); _ } ] ->
      ()
  | _ -> Alcotest.fail "wildcard object"

let test_parse_errors () =
  List.iter
    (fun src ->
      check_bool src true (Result.is_error (Shape_map.parse src)))
    [ "<x>"; "<x>@"; "@<S>"; "{FOCUS}@<S>"; "{<a> <p> <o>}@<S>";
      "nope:x@<S>"; "<x>@<S> trailing" ]

let test_pp_roundtrip () =
  let sm =
    parse "<http://example.org/john>@<Person>, {FOCUS a ex:Human}@<Person>"
  in
  let printed = Format.asprintf "%a" Shape_map.pp sm in
  let sm2 = parse printed in
  check_int "same size" (List.length sm) (List.length sm2)

(* ------------------------------------------------------------------ *)
(* Resolution                                                         *)
(* ------------------------------------------------------------------ *)

let test_resolve_node () =
  let pairs = Shape_map.resolve (parse "ex:john@<Person>") graph in
  check_int "one pair" 1 (List.length pairs)

let test_resolve_focus_subject () =
  (* Both john and mary have rdf:type ex:Human. *)
  let pairs =
    Shape_map.resolve (parse "{FOCUS a ex:Human}@<Person>") graph
  in
  check_int "two focus nodes" 2 (List.length pairs)

let test_resolve_focus_object () =
  (* Objects of foaf:knows: bob. *)
  let pairs =
    Shape_map.resolve (parse "{_ foaf:knows FOCUS}@<Person>") graph
  in
  check_int "one object" 1 (List.length pairs);
  match pairs with
  | [ (n, _) ] -> Alcotest.check term "bob" (node "bob") n
  | _ -> Alcotest.fail "unexpected"

let test_resolve_dedup () =
  let pairs =
    Shape_map.resolve
      (parse "ex:john@<Person>, {FOCUS foaf:age _}@<Person>")
      graph
  in
  (* john appears through both selectors but only once in the result;
     bob and mary via age. *)
  check_int "three pairs" 3 (List.length pairs)

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let test_report_run () =
  let session = Validate.session schema graph in
  let report =
    Report.run_shape_map session (parse "{FOCUS foaf:age _}@<Person>") graph
  in
  check_int "three entries" 3 (List.length report.Report.entries);
  check_int "two conformant" 2 (List.length (Report.conformant report));
  check_int "one nonconformant" 1
    (List.length (Report.nonconformant report));
  check_bool "not all conformant" false (Report.all_conformant report);
  (* mary's entry carries a reason *)
  match Report.nonconformant report with
  | [ e ] ->
      check_bool "mary" true (Rdf.Term.equal e.Report.node (node "mary"));
      check_bool "has reason" true (Report.reason e <> None)
  | _ -> Alcotest.fail "expected exactly mary"

let test_report_result_shape_map () =
  let session = Validate.session schema graph in
  let report =
    Report.run session [ (node "john", person); (node "mary", person) ]
  in
  let text = Report.to_result_shape_map report in
  let has_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "john conforms" true
    (has_sub "<http://example.org/john>@<Person>" text);
  check_bool "mary bang" true
    (has_sub "<http://example.org/mary>@!<Person>" text)

let test_report_json () =
  let session = Validate.session schema graph in
  let report =
    Report.run session [ (node "john", person); (node "mary", person) ]
  in
  let j = Report.to_json report in
  Alcotest.(check (option int)) "conformant" (Some 1)
    (Json.find_int "conformant" j);
  Alcotest.(check (option int)) "nonconformant" (Some 1)
    (Json.find_int "nonconformant" j);
  (* The JSON must itself parse back. *)
  check_bool "serialises" true
    (Result.is_ok (Json.of_string (Json.to_string j)));
  match Json.find_list "entries" j with
  | Some [ e1; _ ] ->
      Alcotest.(check (option string)) "status" (Some "conformant")
        (Json.find_string "status" e1)
  | _ -> Alcotest.fail "expected two entries"

let test_report_typing () =
  let session = Validate.session schema graph in
  let report = Report.run session [ (node "john", person) ] in
  check_bool "john conforms" true (Report.all_conformant report);
  (* John's typing certifies bob through foaf:knows. *)
  check_bool "bob in typing" true
    (Typing.mem (node "bob") person
       (Validate.typing session (node "john") person))

(* [Report.to_json] renders each distinct missing-arcs text once; this
   is the entry-by-entry rendering it must equal, built from
   [Explain.to_string] and [Explain.to_json] for every entry. *)
let reference_report_json (t : Report.t) =
  let entry_json (e : Report.entry) =
    Json.Object
      ([ ("node", Json.String (Rdf.Term.to_string e.node));
         ("shape", Json.String (Label.to_string e.label));
         ( "status",
           Json.String
             (match e.status with
             | Report.Conformant -> "conformant"
             | Report.Nonconformant -> "nonconformant") ) ]
      @
      match e.explain with
      | Some ex ->
          [ ("reason", Json.String (Explain.to_string ex));
            ("explain", Explain.to_json ex) ]
      | None -> [])
  in
  Json.Object
    [ ("entries", Json.Array (List.map entry_json t.entries));
      ("conformant", Json.int (List.length (Report.conformant t)));
      ("nonconformant", Json.int (List.length (Report.nonconformant t))) ]

(* Every missing-arcs entry again three times over the same residual
   object: for another node, under another label, and with other
   missing arcs.  A rendering keyed on less than (label, residual,
   missing), or that kept the first node, differs here. *)
let with_shared_residuals entries =
  let other = node "other" in
  List.concat_map
    (fun (e : Report.entry) ->
      match e.explain with
      | Some (Explain.Missing_arcs m) ->
          [ e;
            { e with
              node = other;
              explain = Some (Explain.Missing_arcs { m with node = other }) };
            { e with
              explain =
                Some
                  (Explain.Missing_arcs
                     { m with label = Label.of_string "Other" }) };
            { e with
              explain = Some (Explain.Missing_arcs { m with missing = [] }) } ]
      | Some _ | None -> [ e ])
    entries

let prop_report_json_matches_explain =
  QCheck.Test.make ~count:100
    ~name:"Report.to_json ≡ entry-by-entry Explain rendering"
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, extended) ->
      let mode =
        if extended then Workload.Rand_gen.Extended
        else Workload.Rand_gen.Surface
      in
      let case = Workload.Rand_gen.case ~mode seed in
      let session = Validate.session case.schema case.graph in
      let report = Report.run session case.associations in
      let shared =
        { Report.entries = with_shared_residuals report.entries }
      in
      Report.to_json report = reference_report_json report
      && Report.to_json shared = reference_report_json shared)

let suites =
  [ ( "shape_map.parse",
      [ Alcotest.test_case "node association" `Quick
          test_parse_node_association;
        Alcotest.test_case "pnames and bnodes" `Quick
          test_parse_pname_and_bnode;
        Alcotest.test_case "FOCUS subject" `Quick test_parse_focus_subject;
        Alcotest.test_case "FOCUS object + wildcards" `Quick
          test_parse_focus_object_and_wildcards;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip ] );
    ( "shape_map.resolve",
      [ Alcotest.test_case "concrete node" `Quick test_resolve_node;
        Alcotest.test_case "focus subject" `Quick
          test_resolve_focus_subject;
        Alcotest.test_case "focus object" `Quick test_resolve_focus_object;
        Alcotest.test_case "deduplication" `Quick test_resolve_dedup ] );
    ( "report",
      [ Alcotest.test_case "run over shape map" `Quick test_report_run;
        Alcotest.test_case "result shape map" `Quick
          test_report_result_shape_map;
        Alcotest.test_case "json rendering" `Quick test_report_json;
        Alcotest.test_case "typing propagation" `Quick test_report_typing;
        QCheck_alcotest.to_alcotest prop_report_json_matches_explain ]
    ) ]
