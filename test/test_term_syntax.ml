(* One term syntax: Turtle data, ShExC value sets and shape maps read
   RDF terms through the same scanners, so the same text must denote
   the same term on every path where the form is legal, and a
   malformed term must be the same positioned error. *)

open Util

let xsd = "http://www.w3.org/2001/XMLSchema#"

let namespaces =
  Rdf.Namespace.(empty |> add "ex" "http://e.org/" |> add "xsd" xsd)

let prologue = "PREFIX ex: <http://e.org/>\nPREFIX xsd: <" ^ xsd ^ ">\n"

let via_turtle form =
  Result.bind
    (Turtle.Parse.parse_graph (prologue ^ "ex:s ex:p " ^ form ^ " .\n"))
    (fun g ->
      match Rdf.Graph.to_list g with
      | [ tr ] -> Ok (Rdf.Triple.obj tr)
      | _ -> Error "not one triple")

let via_shexc form =
  Result.bind
    (Shexc.Shexc_parser.parse_schema
       (prologue ^ "<S> { ex:p [ " ^ form ^ " ] }\n"))
    (fun s ->
      match Shex.Schema.find_exn s (Shex.Label.of_string "S") with
      | Shex.Rse.Arc
          { obj = Shex.Rse.Values (Shex.Value_set.Obj_in [ t ]); _ } ->
          Ok t
      | _ -> Error "not one value")

let via_shape_map form =
  Result.bind
    (Shex.Shape_map.parse ~namespaces (form ^ "@<S>"))
    (function
      | [ { Shex.Shape_map.selector = Shex.Shape_map.Node t; _ } ] -> Ok t
      | _ -> Error "not one node")

let front_ends =
  [ ("shexc", via_shexc); ("shape map", via_shape_map) ]

let str s = Rdf.Term.Literal (Rdf.Literal.string s)
let typed dt s = Rdf.Term.Literal (Rdf.Literal.typed dt s)

(* (form, term, legal in shape maps) *)
let table =
  [ ({|"caf\u00e9"|}, str "caf\u{e9}", true);
    ("\"\"\"a \"b\"\nc\"\"\"", str "a \"b\"\nc", true);
    ({|'''it's'''|}, str "it's", true);
    ({|"\b\f\t"|}, str "\b\012\t", true);
    ({|"\U0001F600"|}, str "\u{1F600}", true);
    ({|<http://e.org/caf\u00e9>|}, iri "http://e.org/caf\u{e9}", true);
    ("ex:caf\u{e9}", iri "http://e.org/caf\u{e9}", true);
    ({|"x"@en-GB|}, Rdf.Term.Literal (Rdf.Literal.make ~lang:"en-GB" "x"),
     false);
    ({|"5"^^xsd:integer|}, typed Rdf.Xsd.Integer "5", false);
    ("-12", typed Rdf.Xsd.Integer "-12", true);
    ("1.5e3", typed Rdf.Xsd.Double "1.5e3", true);
    (".5", typed Rdf.Xsd.Decimal ".5", true) ]

let test_term_table () =
  List.iter
    (fun (form, want, in_shape_maps) ->
      List.iter
        (fun (path, read) ->
          if path <> "shape map" || in_shape_maps then
            match read form with
            | Ok t -> Alcotest.check term (path ^ ": " ^ form) want t
            | Error msg -> Alcotest.failf "%s: %s: %s" path form msg)
        (("turtle", via_turtle) :: front_ends))
    table

(* Each malformed string is a positioned lexical error on every
   front-end, never an exception. *)
let test_positioned_errors () =
  let cases =
    [ ({|"\q"|}, "invalid escape \\q");
      ({|"\uD800"|}, "U+D800 is not a Unicode scalar value");
      ({|"\u12"|}, "invalid hex digit '\"'");
      ({|"""open|}, "unterminated string") ]
  in
  (* (reader, text around the form, error prefix) *)
  let readers =
    [ ( (fun src -> Result.map ignore (Shexc.Shexc_parser.parse_schema src)),
        (prologue ^ "<S> { ex:p [ ", " ] }"),
        "lexical error at 3:" );
      ( (fun src -> Result.map ignore (Shex.Shape_map.parse src)),
        ("", "@<S>"),
        "shape map: lexical error at 1:" ) ]
  in
  List.iter
    (fun (form, msg) ->
      List.iter
        (fun (read, (before, after), at) ->
          let src = before ^ form ^ after in
          match read src with
          | Ok () -> Alcotest.failf "accepted %S" src
          | Error got ->
              if
                not
                  (String.starts_with ~prefix:at got
                  && String.ends_with ~suffix:(": " ^ msg) got)
              then
                Alcotest.failf "on %S: got %S, want %s…: %s" src got at msg)
        readers)
    cases

(* The exact positions: the escape's backslash for a bad scalar value,
   the offending byte otherwise. *)
let test_error_positions () =
  let check_err what want = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error got -> check_string what want got
  in
  check_err "shexc \\q" "lexical error at 1:14: invalid escape \\q"
    (Shexc.Shexc_parser.parse_schema {|<S> { <p> ["\q"] }|});
  check_err "shexc \\uD800"
    "lexical error at 1:14: U+D800 is not a Unicode scalar value"
    (Shexc.Shexc_parser.parse_schema {|<S> { <p> ["a\uD800"] }|});
  check_err "shape map \\u12"
    "shape map: lexical error at 1:6: invalid hex digit '\"'"
    (Shex.Shape_map.parse {|"\u12"@<S>|})

(* Forms Turtle's productions reject are rejected everywhere: '_foo' is
   no PN_PREFIX, 1-2-3 is no number and en_GB no LANGTAG.  The '@'
   forms ShExC shares with language tags still read. *)
let test_rejected_forms () =
  let rejects what = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  rejects "shexc _foo:"
    (Shexc.Shexc_parser.parse_schema
       "PREFIX _foo: <http://e.org/>\n<S> { _foo:p . }");
  rejects "shape map 1-2-3" (Shex.Shape_map.parse "1-2-3@<S>");
  (match Shexc.Shexc_parser.parse_schema {|<S> { <p> ["x"@en_GB] }|} with
  | Ok _ -> Alcotest.fail "shexc \"x\"@en_GB: accepted"
  | Error got ->
      check_string "shexc \"x\"@en_GB"
        "lexical error at 1:16: invalid language tag \"en_GB\"" got);
  List.iter
    (fun src ->
      match
        Shexc.Shexc_parser.parse_schema
          ("PREFIX ex: <http://e.org/>\nPREFIX ex-1: <http://e.org/1/>\n"
         ^ "ex:S { <p> . }\nex-1:S { <p> . }\n<T> { " ^ src ^ " }")
      with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%S: %s" src msg)
    [ "<p> @<T>"; "<p> @ex:S"; "<p> @ex-1:S"; {|<p> ["x"@en-US]|} ]

(* Every lexical form Rdf.Literal.escape writes reads back as itself
   through every reader: ASCII including every control byte, plus
   multi-byte UTF-8. *)
let gen_lexical =
  QCheck.Gen.(
    let ascii = map (fun c -> String.make 1 (Char.chr c)) (int_bound 0x7F) in
    let multibyte =
      oneofl [ "\u{e9}"; "\u{7ff}"; "\u{20ac}"; "\u{fffd}"; "\u{1F600}" ]
    in
    list_size (int_bound 12) (frequency [ (4, ascii); (1, multibyte) ])
    >|= String.concat "")

let prop_escape_round_trip =
  QCheck.Test.make ~count:300
    ~name:"Literal.escape reads back through every front-end"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_lexical)
    (fun s ->
      let form = "\"" ^ Rdf.Literal.escape s ^ "\"" in
      List.for_all
        (fun (_, read) ->
          match read form with
          | Ok t -> Rdf.Term.equal t (str s)
          | Error _ -> false)
        (("turtle", via_turtle) :: front_ends))

(* A blank node in a ShExJ value set prints as _:label, which the ShExC
   parser reads back, so print ∘ parse keeps the schema; a label that
   does not read back after "_:" is refused on import, by name. *)
let test_bnode_value_set_round_trip () =
  let shexj label =
    {|{"type":"Schema","shapes":[{"type":"Shape","id":"http://e.org/S",|}
    ^ {|"expression":{"type":"TripleConstraint","predicate":"http://e.org/p",|}
    ^ {|"valueExpr":{"type":"NodeConstraint","values":[{"bnode":"|} ^ label
    ^ {|"}]}}}]}|}
  in
  List.iter
    (fun (label, reads_back) ->
      match (Shexc.Shexj.import_string (shexj label), reads_back) with
      | Ok schema, true -> (
          let printed =
            Shexc.Shexc_printer.schema_to_string (Analysis.optimize schema)
          in
          match Shexc.Shexc_parser.parse_schema printed with
          | Ok back ->
              check_string (label ^ ": same ShExJ")
                (Shexc.Shexj.export_string schema)
                (Shexc.Shexj.export_string back)
          | Error msg -> Alcotest.failf "%s\n%s" msg printed)
      | Error msg, false ->
          check_bool (label ^ ": the error names it") true
            (contains msg (Printf.sprintf "%S" label))
      | Ok _, false -> Alcotest.failf "%S: imported" label
      | Error msg, true -> Alcotest.fail msg)
    [ ("b1", true); ("a b", false) ]

let suites =
  [ ( "term syntax",
      [ Alcotest.test_case "one term table" `Quick test_term_table;
        Alcotest.test_case "positioned errors" `Quick test_positioned_errors;
        Alcotest.test_case "error positions" `Quick test_error_positions;
        Alcotest.test_case "rejected forms" `Quick test_rejected_forms;
        Alcotest.test_case "blank-node value set round trip" `Quick
          test_bnode_value_set_round_trip;
        QCheck_alcotest.to_alcotest prop_escape_round_trip ] ) ]
