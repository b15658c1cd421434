(* Tests for the Turtle lexer/parser/writer and N-Triples. *)

open Util

let parse src =
  match Turtle.Parse.parse_graph src with
  | Ok g -> g
  | Error msg -> Alcotest.fail msg

let parse_err src =
  match Turtle.Parse.parse_graph src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let test_simple_triple () =
  let g = parse "<http://e.org/s> <http://e.org/p> <http://e.org/o> ." in
  check_int "one triple" 1 (Rdf.Graph.cardinal g);
  check_bool "the triple" true
    (Rdf.Graph.mem
       (Rdf.Triple.make (iri "http://e.org/s")
          (Rdf.Iri.of_string_exn "http://e.org/p")
          (iri "http://e.org/o"))
       g)

let test_prefixes () =
  let g =
    parse
      "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
       @prefix : <http://example.org/> .\n\
       :john foaf:age 23 ."
  in
  check_bool "expanded" true
    (Rdf.Graph.mem (triple (node "john") (foaf "age") (num 23)) g)

let test_sparql_style_directives () =
  let g =
    parse
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
       BASE <http://example.org/>\n\
       <john> foaf:age 23 ."
  in
  check_bool "base resolved + prefix" true
    (Rdf.Graph.mem (triple (node "john") (foaf "age") (num 23)) g)

let test_base_resolution () =
  let g = parse "@base <http://example.org/dir/> . <x> <p> <../y> ." in
  check_bool "relative subject" true
    (Rdf.Graph.mem
       (Rdf.Triple.make
          (iri "http://example.org/dir/x")
          (Rdf.Iri.of_string_exn "http://example.org/dir/p")
          (iri "http://example.org/y"))
       g)

(* The paper's Example 2 document, verbatim Turtle. *)
let example2_src =
  "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
   @prefix : <http://example.org/> .\n\
   :john foaf:age 23;\n\
  \      foaf:name \"John\";\n\
  \      foaf:knows :bob .\n\
   :bob foaf:age 34;\n\
  \     foaf:name \"Bob\", \"Robert\" .\n\
   :mary foaf:age 50, 65 .\n"

let test_example2_document () =
  let g = parse example2_src in
  check_int "8 triples" 8 (Rdf.Graph.cardinal g);
  check_bool "bob has two names" true
    (List.length (Rdf.Graph.objects_of (node "bob") (foaf "name") g) = 2);
  check_bool "mary has two ages" true
    (List.length (Rdf.Graph.objects_of (node "mary") (foaf "age") g) = 2)

let test_a_keyword () =
  let g = parse "@prefix : <http://e.org/> . :x a :T ." in
  check_bool "rdf:type" true
    (Rdf.Graph.mem
       (Rdf.Triple.make (iri "http://e.org/x") Rdf.Namespace.Vocab.rdf_type
          (iri "http://e.org/T"))
       g)

let test_literals () =
  let g =
    parse
      "@prefix : <http://e.org/> .\n\
       @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
       :x :s \"plain\" ;\n\
      \   :l \"hola\"@es ;\n\
      \   :t \"2015-03-27\"^^xsd:date ;\n\
      \   :i 42 ;\n\
      \   :n -3.14 ;\n\
      \   :d 1.0e6 ;\n\
      \   :b true ;\n\
      \   :f false ."
  in
  check_int "8 triples" 8 (Rdf.Graph.cardinal g);
  let obj p =
    match Rdf.Graph.objects_of (iri "http://e.org/x")
            (Rdf.Iri.of_string_exn ("http://e.org/" ^ p)) g
    with
    | [ Rdf.Term.Literal l ] -> l
    | _ -> Alcotest.fail ("missing literal for " ^ p)
  in
  check_bool "lang" true (Rdf.Literal.lang (obj "l") = Some "es");
  check_bool "date" true (Rdf.Literal.has_datatype (obj "t") Rdf.Xsd.Date);
  check_bool "integer" true (Rdf.Literal.has_datatype (obj "i") Rdf.Xsd.Integer);
  check_bool "decimal" true
    (Rdf.Literal.has_datatype (obj "n") Rdf.Xsd.Decimal);
  check_bool "double" true (Rdf.Literal.has_datatype (obj "d") Rdf.Xsd.Double);
  check_bool "boolean true" true (Rdf.Literal.as_bool (obj "b") = Some true);
  check_bool "boolean false" true (Rdf.Literal.as_bool (obj "f") = Some false)

let test_string_escapes () =
  let g =
    parse "@prefix : <http://e.org/> . :x :p \"a\\\"b\\nc\\td\\\\e\" ."
  in
  match Rdf.Graph.to_list g with
  | [ tr ] -> (
      match Rdf.Triple.obj tr with
      | Rdf.Term.Literal l ->
          check_string "decoded" "a\"b\nc\td\\e" (Rdf.Literal.lexical l)
      | _ -> Alcotest.fail "expected literal")
  | _ -> Alcotest.fail "expected one triple"

let test_unicode_escape () =
  let g = parse "@prefix : <http://e.org/> . :x :p \"caf\\u00e9\" ." in
  match Rdf.Graph.to_list g with
  | [ tr ] -> (
      match Rdf.Triple.obj tr with
      | Rdf.Term.Literal l ->
          check_string "utf8" "caf\xc3\xa9" (Rdf.Literal.lexical l)
      | _ -> Alcotest.fail "expected literal")
  | _ -> Alcotest.fail "expected one triple"

let test_long_strings () =
  let g =
    parse
      "@prefix : <http://e.org/> . :x :p \"\"\"line1\nline2 \"quoted\"\"\"\" ."
  in
  match Rdf.Graph.to_list g with
  | [ tr ] -> (
      match Rdf.Triple.obj tr with
      | Rdf.Term.Literal l ->
          check_string "long string" "line1\nline2 \"quoted\""
            (Rdf.Literal.lexical l)
      | _ -> Alcotest.fail "expected literal")
  | _ -> Alcotest.fail "expected one triple"

let test_blank_nodes () =
  let g =
    parse "@prefix : <http://e.org/> . _:b1 :p _:b2 . _:b1 :q :o ."
  in
  check_int "2 triples" 2 (Rdf.Graph.cardinal g);
  check_bool "same label same node" true
    (List.length (Rdf.Graph.subjects g) = 1)

let test_anon_bnode () =
  let g = parse "@prefix : <http://e.org/> . [] :p :o ." in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g);
  match Rdf.Graph.to_list g with
  | [ tr ] -> check_bool "bnode subject" true
                (Rdf.Term.is_bnode (Rdf.Triple.subject tr))
  | _ -> Alcotest.fail "expected one triple"

let test_bnode_property_list () =
  let g =
    parse
      "@prefix : <http://e.org/> .\n\
       :x :knows [ :name \"Anna\" ; :age 30 ] ."
  in
  check_int "3 triples" 3 (Rdf.Graph.cardinal g);
  (* The bnode is both an object of :knows and the subject of two arcs. *)
  match Rdf.Graph.objects_of (iri "http://e.org/x")
          (Rdf.Iri.of_string_exn "http://e.org/knows") g
  with
  | [ (Rdf.Term.Bnode _ as b) ] ->
      check_int "bnode neighbourhood" 2
        (List.length (Rdf.Graph.out_triples b g))
  | _ -> Alcotest.fail "expected a bnode object"

let test_bnode_property_list_as_subject () =
  let g =
    parse "@prefix : <http://e.org/> . [ :name \"Anna\" ] :knows :x ."
  in
  check_int "2 triples" 2 (Rdf.Graph.cardinal g)

let test_collections () =
  let g = parse "@prefix : <http://e.org/> . :x :list (1 2 3) ." in
  (* 1 arc to the head + 3 cells × (first, rest) = 7 triples *)
  check_int "7 triples" 7 (Rdf.Graph.cardinal g);
  (* The chain must terminate at rdf:nil. *)
  let nil = Rdf.Term.Iri Rdf.Namespace.Vocab.rdf_nil in
  check_bool "ends in nil" true
    (List.exists
       (fun tr -> Rdf.Term.equal (Rdf.Triple.obj tr) nil)
       (Rdf.Graph.to_list g))

let test_empty_collection () =
  let g = parse "@prefix : <http://e.org/> . :x :list () ." in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g);
  match Rdf.Graph.to_list g with
  | [ tr ] ->
      check_bool "object is nil" true
        (Rdf.Term.equal (Rdf.Triple.obj tr)
           (Rdf.Term.Iri Rdf.Namespace.Vocab.rdf_nil))
  | _ -> Alcotest.fail "expected one triple"

let test_comments_and_whitespace () =
  let g =
    parse
      "# leading comment\n@prefix : <http://e.org/> . # inline\n\n:x :p :o . # done"
  in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g)

let test_trailing_semicolon () =
  let g = parse "@prefix : <http://e.org/> . :x :p :o ; ." in
  check_int "1 triple" 1 (Rdf.Graph.cardinal g)

let test_parse_errors () =
  let cases =
    [ ("missing dot", "@prefix : <http://e.org/> . :x :p :o");
      ("unbound prefix", "nope:x <http://e.org/p> <http://e.org/o> .");
      ("literal subject", "@prefix : <http://e.org/> . 23 :p :o .");
      ("unterminated iri", "<http://e.org/x :p :o .");
      ("unterminated string", "@prefix : <http://e.org/> . :x :p \"abc .");
      ("bad escape", "@prefix : <http://e.org/> . :x :p \"a\\qb\" .");
      ("lonely caret", "@prefix : <http://e.org/> . :x :p \"v\"^<t> .") ]
  in
  List.iter
    (fun (name, src) ->
      check_bool name true (String.length (parse_err src) > 0))
    cases

let test_error_position () =
  let msg = parse_err "@prefix : <http://e.org/> .\n:x :p :o" in
  (* Error is on line 2. *)
  check_bool "mentions line 2" true
    (let has_sub sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has_sub "2:" msg)

(* ------------------------------------------------------------------ *)
(* Writer round-trips                                                 *)
(* ------------------------------------------------------------------ *)

let test_write_roundtrip () =
  let g = parse example2_src in
  let written = Turtle.Write.to_string g in
  let g' = parse written in
  Alcotest.check graph "roundtrip" g g'

let test_write_roundtrip_literals () =
  let src =
    "@prefix : <http://e.org/> .\n\
     :x :s \"he said \\\"hi\\\"\" ; :l \"hola\"@es ; :i 42 ; :b true ;\n\
    \   :d \"2015-03-27\"^^<http://www.w3.org/2001/XMLSchema#date> ."
  in
  let g = parse src in
  Alcotest.check graph "roundtrip" g (parse (Turtle.Write.to_string g))

let test_write_uses_a () =
  let g = parse "@prefix : <http://e.org/> . :x a :T ." in
  let s = Turtle.Write.to_string g in
  check_bool "uses a" true
    (let has_sub sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has_sub " a " s)

(* ------------------------------------------------------------------ *)
(* N-Triples                                                          *)
(* ------------------------------------------------------------------ *)

let test_ntriples_roundtrip () =
  let g = parse example2_src in
  let nt = Turtle.Ntriples.to_string g in
  match read_ntriples nt with
  | Ok g' -> Alcotest.check graph "roundtrip" g g'
  | Error msg -> Alcotest.fail msg

let test_ntriples_strict_rejects_turtle () =
  List.iter
    (fun src ->
      check_bool "rejected" true
        (Result.is_error (read_ntriples src)))
    [ "@prefix : <http://e.org/> . :x :p :o .";
      "<http://e.org/x> <http://e.org/p> 23 .";
      "<http://e.org/x> a <http://e.org/T> .";
      "<http://e.org/x> <http://e.org/p> <http://e.org/o> ; <http://e.org/q> <http://e.org/r> ." ]

let test_ntriples_strict_accepts () =
  let src =
    "<http://e.org/x> <http://e.org/p> \"v\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
     _:b <http://e.org/q> \"hola\"@es .\n"
  in
  match read_ntriples src with
  | Ok g -> check_int "2 triples" 2 (Rdf.Graph.cardinal g)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Lexer: \U escapes and the window edge                               *)
(* ------------------------------------------------------------------ *)

let lex src =
  match Turtle.Lexer.tokenize src with
  | toks -> Ok toks
  | exception Turtle.Lexer.Error (msg, line, col) -> Error (msg, line, col)

let lex_error src =
  match lex src with
  | Ok _ -> Alcotest.failf "expected a lexical error in %S" src
  | Error e -> e

let error_triple = Alcotest.(triple string int int)

(* \U takes eight hex digits, so it can name values UTF-8 cannot encode
   (past U+10FFFF, which once crashed [Char.chr]) and surrogates, which
   are no characters.  Both are positioned errors at the backslash. *)
let test_unicode_escape_range () =
  let not_scalar cp = Printf.sprintf "U+%s is not a Unicode scalar value" cp in
  Alcotest.check error_triple "string, past U+3FFFFFF"
    (not_scalar "FFFFFFFF", 1, 24)
    (lex_error "<http://a> <http://b> \"\\UFFFFFFFF\" .");
  Alcotest.check error_triple "IRI, past U+10FFFF"
    (not_scalar "11FFFF", 1, 10)
    (lex_error "<http://a\\U0011FFFF> <http://b> <http://c> .");
  Alcotest.check error_triple "surrogate, second line"
    (not_scalar "D800", 2, 3)
    (lex_error "<http://a> <http://b>\n \"\\uD800\" .");
  Alcotest.check error_triple "last surrogate, long string"
    (not_scalar "DFFF", 1, 5)
    (lex_error "'''x\\uDFFF'''");
  let decoded src =
    match lex src with
    | Ok ({ Turtle.Lexer.token = Turtle.Lexer.String_lit s; _ } :: _) -> s
    | _ -> Alcotest.failf "expected one string in %S" src
  in
  check_string "U+10FFFF is the last scalar value" "\xf4\x8f\xbf\xbf"
    (decoded "\"\\U0010FFFF\"");
  check_string "U+D7FF precedes the surrogates" "\xed\x9f\xbf"
    (decoded "\"\\uD7FF\"");
  check_string "U+E000 follows them" "\xee\x80\x80" (decoded "\"\\uE000\"");
  (* Library callers get an [Error], never an exception. *)
  check_bool "Parse.parse" true
    (Result.is_error (Turtle.Parse.parse "<http://a> <http://b> \"\\UFFFFFFFF\" ."));
  let path = Filename.temp_file "shex_test" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "<http://a\\U0011FFFF> <http://b> <http://c> .\n");
      match Turtle.Ntriples.fold_file path (fun n _ -> n + 1) 0 with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error msg ->
          check_string "fold_file" "lexical error at 1:10: U+11FFFF is not a \
                                    Unicode scalar value" msg)

(* The channel stream scans token bodies as runs inside its 64 KiB
   window and falls back to byte-at-a-time reading where a run meets
   the window's end; [tokenize] holds the whole document in one window
   and never falls back.  Padding each generated document so that a
   chosen byte lands at offset 65 536 makes some token straddle the
   first window edge, and the two must agree on every token, position
   and error. *)
module Edge_doc = struct
  open QCheck.Gen

  let concat pieces = map (String.concat "") pieces
  let utf8 = oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\xc3\x9f" ]

  let word =
    string_size ~gen:(oneofl [ 'a'; 'b'; 'Z'; 'q'; '0'; '9'; '_'; '-' ])
      (int_range 1 10)

  let letters = string_size ~gen:(char_range 'a' 'z') (int_range 1 8)

  let iri =
    concat
      (list_size (int_range 0 8)
         (oneof
            [ word; utf8; oneofl [ "/"; "#"; "?x="; "\\u00E9"; "\\U0001F600" ] ]))
    >|= fun body -> "<http://ex.org/" ^ body ^ ">"

  let string_piece quote other =
    oneof
      [ word; utf8;
        oneofl
          [ " "; other; "\\n"; "\\t"; "\\\\"; "\\u00e9"; "\\U0001F600";
            "\\" ^ quote; "\\" ^ quote ^ "\\" ^ quote ] ]

  let short_string =
    oneofl [ ("\"", "'"); ("'", "\"") ] >>= fun (quote, other) ->
    concat (list_size (int_range 0 10) (string_piece quote other))
    >|= fun body -> quote ^ body ^ quote

  (* Raw line breaks and runs of one or two quotes are content; a run
     of four or five before the closing three ends in content quotes. *)
  let long_string =
    oneofl [ ("\"", "'"); ("'", "\"") ] >>= fun (quote, other) ->
    let q3 = String.concat "" [ quote; quote; quote ] in
    concat
      (list_size (int_range 0 10)
         (oneof
            [ string_piece quote other;
              oneofl [ "\n"; "\r\n"; "\r"; quote ^ "x"; quote ^ quote ^ "y" ] ]))
    >>= fun body ->
    oneofl [ ""; quote; quote ^ quote ] >|= fun tail -> q3 ^ body ^ tail ^ q3

  let local =
    concat
      (list_size (int_range 1 6)
         (oneof
            [ word; utf8;
              oneofl [ "%41"; "%e9"; "\\-"; "\\~"; "\\."; "a.b"; "x:y" ] ]))

  let pname =
    oneof [ return ""; letters; map (fun w -> w ^ ".p") letters ] >>= fun prefix ->
    oneof [ return ""; local ] >|= fun l -> prefix ^ ":" ^ l

  let bnode = map2 (fun w l -> "_:" ^ w ^ l) word (oneof [ return ""; local ])

  let langtag =
    map2 (fun a b -> "@" ^ a ^ b) letters (oneofl [ ""; "-GB"; "-x1" ])

  let number =
    map3
      (fun sign int frac -> sign ^ string_of_int int ^ frac)
      (oneofl [ ""; "+"; "-" ])
      (int_bound 100_000)
      (oneofl [ ""; ".5"; ".25e3"; "E-7"; "e+2"; "." ])

  let punct =
    oneofl
      [ "a"; "true"; "false"; "@prefix"; "@base"; "PREFIX"; "BASE"; "."; ";";
        ","; "["; "]"; "("; ")"; "^^" ]

  let comment =
    concat (list_size (int_range 0 6) (oneof [ word; utf8; return " " ]))
    >|= fun body -> "#" ^ body

  let line_end = oneofl [ "\n"; "\r\n"; "\r" ]

  let separator =
    frequency
      [ (4, return " ");
        (1, return "\t");
        (3, line_end);
        (1, map2 (fun c e -> " " ^ c ^ e) comment line_end) ]

  let token =
    frequency
      [ (3, iri); (2, short_string); (1, long_string); (2, pname); (1, bnode);
        (1, langtag); (1, number); (2, punct) ]

  let body =
    concat
      (list_size (int_range 1 25) (map2 (fun t s -> t ^ s) token separator))

  type variant = Whole | Truncated of int | Corrupted of int * char

  (* A document, the body offset put at byte 65 536, and a variant. *)
  let case =
    body >>= fun body ->
    let n = String.length body in
    int_bound (n - 1) >>= fun edge ->
    frequency
      [ (2, return Whole);
        (1, int_bound (n - 1) >|= fun k -> Truncated k);
        ( 1,
          pair (int_bound (n - 1))
            (oneofl
               [ '"'; '\''; '\\'; '<'; '>'; '\n'; '\r'; ' '; '%'; '.'; ':';
                 '#'; '@'; 'e'; 'u'; '\xc3' ])
          >|= fun (k, c) -> Corrupted (k, c) ) ]
    >|= fun variant ->
    let body =
      match variant with
      | Whole -> body
      | Truncated k -> String.sub body 0 k
      | Corrupted (k, c) ->
          String.mapi (fun i b -> if i = k then c else b) body
    in
    (String.make (65_536 - edge) ' ' ^ body, edge)

  let print (doc, edge) =
    Printf.sprintf "edge at body byte %d of %S" edge
      (String.sub doc (65_536 - edge) (String.length doc - 65_536 + edge))
end

let lex_channel doc =
  let path = Filename.temp_file "shex_window" ".ttl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc doc);
      In_channel.with_open_bin path (fun ic ->
          let stream = Turtle.Lexer.stream_of_channel ic in
          let rec go acc =
            match Turtle.Lexer.next stream with
            | { Turtle.Lexer.token = Turtle.Lexer.Eof; _ } as t ->
                Ok (List.rev (t :: acc))
            | t -> go (t :: acc)
            | exception Turtle.Lexer.Error (msg, line, col) ->
                Error (msg, line, col)
          in
          go []))

(* The token positions, for a failure report. *)
let show_lexed = function
  | Ok toks ->
      String.concat " "
        (List.map
           (fun { Turtle.Lexer.line; col; _ } -> Printf.sprintf "%d:%d" line col)
           toks)
  | Error (msg, line, col) -> Printf.sprintf "error %S at %d:%d" msg line col

let prop_window_edge =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"channel stream ≡ tokenize across the 64 KiB window edge"
       (QCheck.make ~print:Edge_doc.print Edge_doc.case)
       (fun (doc, _) ->
         let streamed = lex_channel doc and whole = lex doc in
         streamed = whole
         || QCheck.Test.fail_reportf "channel: %s\ntokenize: %s"
              (show_lexed streamed) (show_lexed whole)))

let suites =
  [ ( "turtle.parse",
      [ Alcotest.test_case "simple triple" `Quick test_simple_triple;
        Alcotest.test_case "prefixes" `Quick test_prefixes;
        Alcotest.test_case "SPARQL-style directives" `Quick
          test_sparql_style_directives;
        Alcotest.test_case "base resolution" `Quick test_base_resolution;
        Alcotest.test_case "Example 2 document" `Quick
          test_example2_document;
        Alcotest.test_case "a keyword" `Quick test_a_keyword;
        Alcotest.test_case "literal forms" `Quick test_literals;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
        Alcotest.test_case "unicode escapes" `Quick test_unicode_escape;
        Alcotest.test_case "long strings" `Quick test_long_strings;
        Alcotest.test_case "blank nodes" `Quick test_blank_nodes;
        Alcotest.test_case "anonymous blank node" `Quick test_anon_bnode;
        Alcotest.test_case "bnode property list" `Quick
          test_bnode_property_list;
        Alcotest.test_case "bnode property list subject" `Quick
          test_bnode_property_list_as_subject;
        Alcotest.test_case "collections" `Quick test_collections;
        Alcotest.test_case "empty collection" `Quick test_empty_collection;
        Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
        Alcotest.test_case "trailing semicolon" `Quick
          test_trailing_semicolon;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "error positions" `Quick test_error_position ] );
    ( "turtle.lexer",
      [ Alcotest.test_case "\\U escapes past U+10FFFF and surrogates" `Quick
          test_unicode_escape_range;
        prop_window_edge ] );
    ( "turtle.write",
      [ Alcotest.test_case "roundtrip Example 2" `Quick test_write_roundtrip;
        Alcotest.test_case "roundtrip literals" `Quick
          test_write_roundtrip_literals;
        Alcotest.test_case "rdf:type as a" `Quick test_write_uses_a ] );
    ( "turtle.ntriples",
      [ Alcotest.test_case "canonical roundtrip" `Quick
          test_ntriples_roundtrip;
        Alcotest.test_case "strict rejects Turtle" `Quick
          test_ntriples_strict_rejects_turtle;
        Alcotest.test_case "strict accepts N-Triples" `Quick
          test_ntriples_strict_accepts ] ) ]
