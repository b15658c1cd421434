(* Tests for the JSON substrate: parse/print round-trips, escapes,
   accessors and error reporting. *)

open Util

let parse s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let test_scalars () =
  check_bool "null" true (parse "null" = Json.Null);
  check_bool "true" true (parse "true" = Json.Bool true);
  check_bool "false" true (parse "false" = Json.Bool false);
  check_bool "int" true (parse "42" = Json.Number 42.0);
  check_bool "negative" true (parse "-7" = Json.Number (-7.0));
  check_bool "float" true (parse "2.5" = Json.Number 2.5);
  check_bool "exponent" true (parse "1e3" = Json.Number 1000.0);
  check_bool "string" true (parse "\"hi\"" = Json.String "hi")

let test_structures () =
  check_bool "array" true
    (parse "[1, 2, 3]" = Json.Array [ Json.Number 1.0; Json.Number 2.0; Json.Number 3.0 ]);
  check_bool "empty array" true (parse "[]" = Json.Array []);
  check_bool "empty object" true (parse "{}" = Json.Object []);
  check_bool "object" true
    (parse "{\"a\": 1, \"b\": [true]}"
    = Json.Object
        [ ("a", Json.Number 1.0); ("b", Json.Array [ Json.Bool true ]) ]);
  check_bool "nested" true
    (parse "{\"x\": {\"y\": null}}"
    = Json.Object [ ("x", Json.Object [ ("y", Json.Null) ]) ])

let test_string_escapes () =
  check_bool "basic escapes" true
    (parse "\"a\\n\\t\\\"b\\\\c\"" = Json.String "a\n\t\"b\\c");
  check_bool "unicode" true (parse "\"\\u00e9\"" = Json.String "\xc3\xa9");
  check_bool "surrogate pair" true
    (parse "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80")

let test_errors () =
  List.iter
    (fun src ->
      check_bool src true (Result.is_error (Json.of_string src)))
    [ ""; "{"; "[1,"; "\"abc"; "tru"; "{\"a\" 1}"; "[1 2]"; "nul";
      "{\"a\":1} extra"; "\"\\q\"" ]

let test_roundtrip () =
  let v =
    Json.Object
      [ ("name", Json.String "shex \"quoted\"\nline");
        ("counts", Json.Array [ Json.int 1; Json.int 2 ]);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("pi", Json.Number 3.25) ]
  in
  check_bool "pretty roundtrip" true (parse (Json.to_string v) = v);
  check_bool "minified roundtrip" true
    (parse (Json.to_string ~minify:true v) = v)

(* The writer's exact bytes, pretty and minified, on one value covering
   every escape class, the number formats and empty/nested
   containers. *)
let golden_value =
  Json.Object
    [ ( "escapes",
        Json.String
          "quote\" backslash\\ nl\n cr\r tab\t bs\b ff\012 nul\000 us\031 \
           del\127 utf8 \xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80" );
      ("key \"q\"\n", Json.Null);
      ( "numbers",
        Json.Array
          [ Json.Number (-0.); Json.Number 999_999_999_999_999.;
            Json.Number (-999_999_999_999_999.); Json.Number 1e15;
            Json.Number 1_000_000_000_000_001.; Json.Number 2.5;
            Json.Number 0.1 ] );
      ("empty", Json.Array [ Json.Array []; Json.Object [] ]);
      ( "nested",
        Json.Object
          [ ( "a",
              Json.Array
                [ Json.Bool true;
                  Json.Object
                    [ ("b", Json.Array [ Json.Bool false; Json.Null ]) ] ] )
          ] ) ]

let golden_escapes =
  {|"quote\" backslash\\ nl\n cr\r tab\t bs\b ff\f nul\u0000 us\u001f del|}
  ^ "\127" ^ {| utf8 é€😀"|}

let test_writer_golden () =
  check_string "pretty"
    (String.concat "\n"
       [ "{";
         {|  "escapes": |} ^ golden_escapes ^ ",";
         {|  "key \"q\"\n": null,|};
         {|  "numbers": [|};
         "    -0,";
         "    999999999999999,";
         "    -999999999999999,";
         "    1000000000000000,";
         "    1000000000000001,";
         "    2.5,";
         "    0.10000000000000001";
         "  ],";
         {|  "empty": [|};
         "    [],";
         "    {}";
         "  ],";
         {|  "nested": {|};
         {|    "a": [|};
         "      true,";
         "      {";
         {|        "b": [|};
         "          false,";
         "          null";
         "        ]";
         "      }";
         "    ]";
         "  }";
         "}" ])
    (Json.to_string golden_value);
  check_string "minified"
    ({|{"escapes":|} ^ golden_escapes
   ^ {|,"key \"q\"\n":null,"numbers":[-0,999999999999999,-999999999999999,1000000000000000,1000000000000001,2.5,0.10000000000000001],"empty":[[],{}],"nested":{"a":[true,{"b":[false,null]}]}}|}
    )
    (Json.to_string ~minify:true golden_value)

let expect_error_at pos src =
  match Json.of_string src with
  | Ok _ -> Alcotest.failf "%s: expected an error" src
  | Error msg ->
      let prefix = "JSON error at " ^ pos ^ ":" in
      check_bool
        (Printf.sprintf "%s -> %s" src msg)
        true
        (String.starts_with ~prefix msg)

(* A \u escape must encode a Unicode scalar value: a high surrogate
   needs a low one right after it, and a low one alone is an error. *)
let test_surrogates () =
  expect_error_at "1:2" {|"\udc00"|};
  expect_error_at "1:4" {|"ab\udfff"|};
  expect_error_at "1:8" {|"\ud800\ud800"|};
  expect_error_at "1:8" {|"\ud800\u0041"|};
  check_bool "high surrogate then no escape" true
    (Result.is_error (Json.of_string {|"\ud800x"|}));
  check_bool "high surrogate at the end" true
    (Result.is_error (Json.of_string {|"\ud800"|}));
  check_bool "highest pair" true
    (parse {|"\udbff\udfff"|} = Json.String "\xf4\x8f\xbf\xbf");
  check_bool "lowest pair" true
    (parse {|"\ud800\udc00"|} = Json.String "\xf0\x90\x80\x80");
  check_bool "just below the surrogates" true
    (parse {|"\ud7ff"|} = Json.String "\xed\x9f\xbf");
  check_bool "just above the surrogates" true
    (parse {|"\ue000"|} = Json.String "\xee\x80\x80")

(* JSON has no literal for infinity or NaN: an overflowing literal is a
   positioned error, and a non-finite number is written as null. *)
let test_non_finite () =
  expect_error_at "1:1" "1e999";
  expect_error_at "1:2" "[-1e999]";
  expect_error_at "1:7" {|{"a": 1E+400}|};
  check_bool "underflow is zero" true (parse "1e-999" = Json.Number 0.);
  check_bool "largest finite" true
    (parse "1.7976931348623157e308" = Json.Number Float.max_float);
  check_string "non-finite written as null" "[null,null,null]"
    (Json.to_string ~minify:true
       (Json.Array
          [ Json.Number Float.infinity; Json.Number Float.neg_infinity;
            Json.Number Float.nan ]))

let test_accessors () =
  let v = parse "{\"a\": 1, \"b\": \"x\", \"c\": [1,2]}" in
  Alcotest.(check (option int)) "find_int" (Some 1) (Json.find_int "a" v);
  Alcotest.(check (option string)) "find_string" (Some "x")
    (Json.find_string "b" v);
  check_bool "find_list" true (Json.find_list "c" v <> None);
  check_bool "missing" true (Json.find "zz" v = None);
  check_bool "as_int non-integer" true (Json.as_int (Json.Number 1.5) = None)

let suites =
  [ ( "json",
      [ Alcotest.test_case "scalars" `Quick test_scalars;
        Alcotest.test_case "structures" `Quick test_structures;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "writer golden" `Quick test_writer_golden;
        Alcotest.test_case "surrogate escapes" `Quick test_surrogates;
        Alcotest.test_case "non-finite numbers" `Quick test_non_finite;
        Alcotest.test_case "accessors" `Quick test_accessors ] ) ]
