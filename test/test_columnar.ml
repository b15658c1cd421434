(* The raw-speed storage layer: term interner, columnar triple store,
   and the streaming N-Triples bulk loader — plus the property that the
   whole interned stack validates byte-identically to the structural
   representation. *)

open Util

let term_t = term

(* ------------------------------------------------------------------ *)
(* Interner                                                            *)
(* ------------------------------------------------------------------ *)

let test_interner_roundtrip () =
  let t = Rdf.Interner.create () in
  let terms = [ node "a"; num 1; node "b"; Rdf.Term.str "x" ] in
  let ids = List.map (Rdf.Interner.intern t) terms in
  List.iter2
    (fun term id ->
      Alcotest.check term_t "resolve ∘ intern = id" term
        (Rdf.Interner.resolve t id))
    terms ids;
  (* Dense: ids are 0..n-1 in first-intern order. *)
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2; 3 ] ids;
  check_int "cardinal" 4 (Rdf.Interner.cardinal t)

let test_interner_idempotent () =
  let t = Rdf.Interner.create () in
  let id1 = Rdf.Interner.intern t (node "a") in
  ignore (Rdf.Interner.intern t (num 2));
  let id2 = Rdf.Interner.intern t (node "a") in
  check_int "same term, same id" id1 id2;
  check_int "no duplicate entry" 2 (Rdf.Interner.cardinal t);
  Alcotest.(check (option int))
    "find" (Some id1)
    (Rdf.Interner.find t (node "a"));
  Alcotest.(check (option int)) "find misses" None
    (Rdf.Interner.find t (node "zzz"))

let test_interner_bnode_scoping () =
  let t = Rdf.Interner.create () in
  let b1 = Rdf.Interner.intern t (Rdf.Term.Bnode (Rdf.Bnode.of_string "x")) in
  let b2 = Rdf.Interner.intern t (Rdf.Term.Bnode (Rdf.Bnode.of_string "y")) in
  let b1' = Rdf.Interner.intern t (Rdf.Term.Bnode (Rdf.Bnode.of_string "x")) in
  (* An IRI never shares an id with a bnode, whatever the spelling. *)
  let i1 = Rdf.Interner.intern t (node "x") in
  check_int "same label, same id" b1 b1';
  check_bool "distinct labels distinct" true (b1 <> b2);
  check_bool "bnode ≠ iri of same text" true (b1 <> i1)

let test_interner_compact_sorted () =
  let t = Rdf.Interner.create () in
  (* Intern out of term order on purpose. *)
  List.iter
    (fun term -> ignore (Rdf.Interner.intern t term))
    [ num 3; node "c"; Rdf.Term.str "s"; node "a"; num 1 ];
  check_bool "unsorted before compact" false (Rdf.Interner.sorted t);
  let compacted, remap = Rdf.Interner.compact t in
  check_bool "sorted after compact" true (Rdf.Interner.sorted compacted);
  check_int "same cardinal" (Rdf.Interner.cardinal t)
    (Rdf.Interner.cardinal compacted);
  (* The remap sends every old id to the new id of the same term. *)
  Rdf.Interner.iteri
    (fun old_id term ->
      Alcotest.check term_t "remap preserves terms" term
        (Rdf.Interner.resolve compacted remap.(old_id)))
    t

let test_interner_bad_id () =
  let t = Rdf.Interner.create () in
  ignore (Rdf.Interner.intern t (node "a"));
  Alcotest.check_raises "resolve out of range"
    (Invalid_argument "Interner.resolve: unknown id 7") (fun () ->
      ignore (Rdf.Interner.resolve t 7))

(* ------------------------------------------------------------------ *)
(* Columnar store                                                      *)
(* ------------------------------------------------------------------ *)

(* A graph with fan-out, fan-in, shared terms, a self-referencing
   object, literals and bnodes — enough shape to exercise all three
   index directions. *)
let sample_graph =
  graph_of
    [ t3 "n" "a" (num 1);
      t3 "n" "b" (num 1);
      t3 "n" "b" (num 2);
      t3 "m" "a" (node "n");
      t3 "m" "c" (Rdf.Term.str "hello");
      Rdf.Triple.make
        (Rdf.Term.Bnode (Rdf.Bnode.of_string "b0"))
        (ex "a") (node "m");
      t3 "o" "c" (node "n") ]

let test_columnar_roundtrip () =
  let c = Rdf.Columnar.of_graph sample_graph in
  Alcotest.check graph "to_graph ∘ of_graph = id" sample_graph
    (Rdf.Columnar.to_graph c);
  check_int "cardinal" (Rdf.Graph.cardinal sample_graph)
    (Rdf.Columnar.cardinal c);
  check_bool "canonical interner is sorted" true
    (Rdf.Interner.sorted (Rdf.Columnar.interner c))

let triples = Alcotest.(list (testable Rdf.Triple.pp Rdf.Triple.equal))

let test_columnar_slices_agree () =
  let c = Rdf.Columnar.of_graph sample_graph in
  List.iter
    (fun n ->
      Alcotest.check triples "out slice ≡ structural neighbourhood"
        (Rdf.Graph.out_triples n sample_graph)
        (Rdf.Columnar.out_triples c n);
      Alcotest.check triples "in slice ≡ structural incoming"
        (Rdf.Graph.in_triples n sample_graph)
        (Rdf.Columnar.in_triples c n))
    (Rdf.Graph.nodes sample_graph);
  Alcotest.check (Alcotest.list term_t) "nodes agree"
    (Rdf.Graph.nodes sample_graph)
    (Rdf.Columnar.nodes c);
  check_bool "every reader ≡ structural graph, every id" true
    (columnar_agrees c sample_graph)

let test_columnar_dedup () =
  let b = Rdf.Columnar.builder () in
  let tr = t3 "n" "a" (num 1) in
  Rdf.Columnar.add_triple b tr;
  Rdf.Columnar.add_triple b tr;
  Rdf.Columnar.add b (node "n") (ex "a") (num 1);
  let c = Rdf.Columnar.freeze b in
  check_int "a graph is a set" 1 (Rdf.Columnar.cardinal c)

let test_columnar_empty () =
  let c = Rdf.Columnar.freeze (Rdf.Columnar.builder ()) in
  check_int "cardinal" 0 (Rdf.Columnar.cardinal c);
  Alcotest.(check (list term_t)) "no nodes" [] (Rdf.Columnar.nodes c);
  Alcotest.check triples "no out slice" []
    (Rdf.Columnar.out_triples c (node "n"));
  Alcotest.check triples "no in slice" []
    (Rdf.Columnar.in_triples c (node "n"));
  check_bool "every reader ≡ the empty graph" true
    (columnar_agrees c Rdf.Graph.empty)

let test_columnar_duplicates_only () =
  let b = Rdf.Columnar.builder () in
  let n = t3 "n" "a" (num 1) and m = t3 "m" "a" (num 1) in
  List.iter (Rdf.Columnar.add_triple b) [ n; m; n; m; m; n ];
  let c = Rdf.Columnar.freeze b in
  check_int "one triple per subject" 2 (Rdf.Columnar.cardinal c);
  check_bool "every reader ≡ structural graph" true
    (columnar_agrees c (graph_of [ n; m ]))

(* A hub subject's bucket is far past the insertion-sort runs. *)
let test_columnar_hub_subject () =
  let hub = node "hub" in
  let g =
    graph_of
      (List.init 1000 (fun k ->
           triple hub (ex (if k mod 3 = 0 then "a" else "b")) (num k)))
  in
  let b = Rdf.Columnar.builder () in
  let reversed = List.rev (Rdf.Graph.to_list g) in
  List.iter (Rdf.Columnar.add_triple b) (reversed @ reversed);
  let c = Rdf.Columnar.freeze b in
  check_int "duplicates collapse" 1000 (Rdf.Columnar.cardinal c);
  Alcotest.check triples "out slice ≡ structural neighbourhood"
    (Rdf.Graph.out_triples hub g)
    (Rdf.Columnar.out_triples c hub);
  check_bool "every reader ≡ structural graph" true (columnar_agrees c g)

let test_columnar_literal_subject () =
  let b = Rdf.Columnar.builder () in
  match Rdf.Columnar.add b (num 1) (ex "a") (num 2) with
  | () -> Alcotest.fail "literal subject accepted"
  | exception Invalid_argument _ -> ()

let test_neigh_of_columnar () =
  let c = Rdf.Columnar.of_graph sample_graph in
  List.iter
    (fun n ->
      List.iter
        (fun include_inverse ->
          check_bool "of_columnar ≡ of_node" true
            (List.equal Shex.Neigh.equal
               (Shex.Neigh.of_node ~include_inverse n sample_graph)
               (Shex.Neigh.of_columnar ~include_inverse n c)))
        [ false; true ])
    (Rdf.Graph.nodes sample_graph)

(* Σgn is read from the graph's indexes, not rebuilt: listing a
   1 000-arc node's neighbourhood costs a few words per listed triple
   (a list cell for the index's elements, a directed triple and its
   cell: 9, the outgoing run built straight onto the incoming one),
   not a re-indexed graph of it (149 words per triple). *)
let test_neigh_of_node_allocation () =
  let hub = node "hub" in
  let g =
    graph_of
      (List.init 1000 (fun k ->
           triple hub (ex ("p" ^ string_of_int (k mod 7))) (num k))
      @ List.concat
          (List.init 200 (fun i ->
               let s = node ("n" ^ string_of_int i) in
               List.init 10 (fun k ->
                   triple s (ex "q")
                     (if k = 0 && i < 100 then hub else num ((i * 10) + k))))))
  in
  List.iter
    (fun (include_inverse, expected) ->
      let before = Gc.minor_words () in
      let dts = Shex.Neigh.of_node ~include_inverse hub g in
      let words = Gc.minor_words () -. before in
      check_int "listed triples" expected (List.length dts);
      let per_triple = words /. float expected in
      check_bool
        (Printf.sprintf "%.1f words per triple (at most 10)" per_triple)
        true (per_triple <= 10.))
    [ (false, 1000); (true, 1100) ]

(* ------------------------------------------------------------------ *)
(* Interned validation ≡ structural validation                         *)
(* ------------------------------------------------------------------ *)

let person_schema =
  match
    Shexc.Shexc_parser.parse_schema
      "PREFIX ex: <http://example.org/>\n\
       <S> { ex:a [1], ex:b [1 2]* }"
  with
  | Ok s -> s
  | Error msg -> failwith msg

let test_interned_session_agrees () =
  let structural = Shex.Validate.session person_schema sample_graph in
  let interned =
    Shex.Validate.session_columnar person_schema
      (Rdf.Columnar.of_graph sample_graph)
  in
  check_bool "structural session has no store" true
    (Shex.Validate.columnar_store structural = None);
  check_bool "interned session has its store" true
    (Shex.Validate.columnar_store interned <> None);
  Alcotest.check typing "validate_graph agrees"
    (Shex.Validate.validate_graph structural)
    (Shex.Validate.validate_graph interned)

let test_session_columnar () =
  let c = Rdf.Columnar.of_graph sample_graph in
  let st = Shex.Validate.session_columnar person_schema c in
  Alcotest.check typing "columnar-primary session agrees"
    (Shex.Validate.validate_graph
       (Shex.Validate.session person_schema sample_graph))
    (Shex.Validate.validate_graph st);
  (* The structural view is converted from the store and matches. *)
  Alcotest.check graph "structural view" sample_graph
    (Shex.Validate.graph st)

(* Every engine reads the frozen store's slices, the Fig.-1 baseline
   too: one Backtracking check on a 100 003-triple store allocates in
   proportion to the focus node's three triples and the session's
   first pair, not to the store (building a graph of the store for the
   baseline cost 34.6 M words). *)
let test_frozen_backtracking_allocation () =
  let b = Rdf.Columnar.builder () in
  Rdf.Graph.iter (Rdf.Columnar.add_triple b) example8_graph;
  for i = 0 to 99_999 do
    Rdf.Columnar.add b (node ("s" ^ string_of_int (i / 10))) (ex "b") (num i)
  done;
  let c = Rdf.Columnar.freeze b in
  check_int "store size" 100_003 (Rdf.Columnar.cardinal c);
  let st =
    Shex.Validate.session_columnar ~engine:Shex.Validate.Backtracking
      person_schema c
  in
  let before = Gc.minor_words () in
  let ok = Shex.Validate.check_bool st (node "n") (Shex.Label.of_string "S") in
  let words = Gc.minor_words () -. before in
  check_bool "conforms" true ok;
  check_bool
    (Printf.sprintf "%.0f words (at most 5 000)" words)
    true (words <= 5000.)

(* The one traced walk reads the session's store: on a frozen store and
   on a graph of the same triples, {!Shex.Validate.trace} and the
   [--explain] tables print the same thing for every association —
   through an inverse arc (<Managed>), a shape reference, and a focus
   constraint that refuses the blank node (<Boss>). *)
let test_trace_agrees_across_stores () =
  let schema =
    match
      Shexc.Shexc_parser.parse_schema
        "PREFIX ex: <http://example.org/>\n\
         <S> { ex:a [1], ex:b [1 2]* }\n\
         <Managed> { ^ex:manages @<Boss>+, ex:a [1], ex:b [1 2]* }\n\
         <Boss> IRI { ex:manages .+ }"
    with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let manages = ex "manages" and b = Rdf.Term.Bnode (Rdf.Bnode.of_string "b") in
  let g =
    Rdf.Graph.union example8_graph
      (graph_of
         [ t3 "m" "a" (num 1); t3 "m" "b" (num 2);
           triple (node "boss") manages (node "n");
           triple (node "boss") manages (node "m");
           triple b manages (node "m") ])
  in
  let structural = Shex.Validate.session schema g
  and frozen = Shex.Validate.session_columnar schema (Rdf.Columnar.of_graph g) in
  let associations =
    List.concat_map
      (fun n -> List.map (fun l -> (n, l)) (Shex.Schema.labels schema))
      (Rdf.Graph.nodes g)
  in
  let walk st =
    Format.asprintf "%a" (fun ppf () ->
        Shex_explain.Walk.pp_report ppf ~session:st associations) ()
  in
  let text = walk structural in
  check_string "--explain tables" text (walk frozen);
  List.iter
    (fun word -> check_bool word true (contains text word))
    [ "PASS"; "FAIL"; "refuses the focus node" ];
  List.iter
    (fun (n, l) ->
      let trace st =
        Option.map
          (Format.asprintf "%a" Shex.Deriv.pp_trace)
          (Shex.Validate.trace st n l)
      in
      Alcotest.(check (option string))
        (Format.asprintf "trace %a@%a" Rdf.Term.pp n Shex.Label.pp l)
        (trace structural) (trace frozen))
    ((node "n", Shex.Label.of_string "Nowhere") :: associations)

(* ------------------------------------------------------------------ *)
(* Streaming N-Triples loading                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_nt ~lines f =
  let path = Filename.temp_file "shex_test" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> lines oc);
      f path)

let test_fold_file_agrees_with_parse () =
  with_temp_nt
    ~lines:(fun oc ->
      output_string oc
        "<http://e.org/n> <http://e.org/a> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
         _:b0 <http://e.org/a> <http://e.org/n> .\n\
         <http://e.org/n> <http://e.org/b> \"hi\"@en .\n")
    (fun path ->
      let streamed =
        match
          Turtle.Ntriples.fold_file path (fun acc tr -> tr :: acc) []
        with
        | Ok trs -> Rdf.Graph.of_list trs
        | Error msg -> failwith msg
      in
      let parsed =
        match Turtle.Parse.parse_file path with
        | Ok d -> d.Turtle.Parse.graph
        | Error msg -> failwith msg
      in
      Alcotest.check graph "fold_file ≡ parse_file" parsed streamed)

let test_load_file_columnar () =
  with_temp_nt
    ~lines:(fun oc ->
      for s = 0 to 9 do
        for o = 0 to 4 do
          Printf.fprintf oc "<http://e.org/s%d> <http://e.org/p> <http://e.org/o%d> .\n" s o
        done
      done)
    (fun path ->
      match Turtle.Ntriples.load_file path with
      | Error msg -> failwith msg
      | Ok c ->
          check_int "all triples loaded" 50 (Rdf.Columnar.cardinal c);
          check_int "terms deduplicated" 16 (Rdf.Columnar.terms_cardinal c);
          let parsed =
            match Turtle.Parse.parse_file path with
            | Ok d -> d.Turtle.Parse.graph
            | Error msg -> failwith msg
          in
          Alcotest.check graph "≡ turtle parse" parsed
            (Rdf.Columnar.to_graph c))

let test_fold_file_bad_input () =
  with_temp_nt
    ~lines:(fun oc ->
      output_string oc "<http://e.org/n> <http://e.org/a> ;bad .\n")
    (fun path ->
      match Turtle.Ntriples.fold_file path (fun n _ -> n + 1) 0 with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error msg ->
          check_bool "position in message" true
            (String.length msg > 0
            && String.sub msg 0 13 = "not N-Triples"))

let bulk_triples = 60_000

let with_bulk_nt f =
  with_temp_nt
    ~lines:(fun oc ->
      for k = 0 to bulk_triples - 1 do
        Printf.fprintf oc
          "<http://example.org/subject%d> <http://example.org/predicate%d> \
           \"value %d\" .\n"
          (k mod 997) (k mod 7) k
      done)
    (fun path ->
      f path (Int64.to_int (In_channel.with_open_bin path In_channel.length)))

(* The memory pin: a multi-megabyte N-Triples load must not
   materialise the source text (or a token list).  The counting fold
   keeps no per-triple state, so major-heap growth should stay well
   under the file size — the old slurping loader held the whole file as
   one string before lexing even started. *)
let test_streaming_load_memory () =
  with_bulk_nt (fun path file_bytes ->
      let file_words = file_bytes / 8 in
      check_bool "file is multi-MB" true (file_words > 400_000);
      Gc.compact ();
      let before = (Gc.stat ()).Gc.top_heap_words in
      let count =
        match Turtle.Ntriples.fold_file path (fun n _ -> n + 1) 0 with
        | Ok n -> n
        | Error msg -> failwith msg
      in
      let delta = (Gc.stat ()).Gc.top_heap_words - before in
      check_int "every triple seen" bulk_triples count;
      if delta >= file_words / 2 then
        Alcotest.failf
          "streaming load grew the heap by %d words (file is %d words)"
          delta file_words)

(* Allocation ratchet for lexing.  Allocated words are deterministic
   for a given compiler, so unlike a timing this gate fails on a real
   regression.  A no-op fold over the file above allocated 5.86 words
   per input byte when the lexer boxed every byte in a [char option]
   (OCaml 5.1.1, no flambda), and 0.66 once token bodies are scanned
   as runs and IRI validation stopped allocating a closure per IRI.
   What is left is per token and per triple: located records, token
   strings, terms.  The bound sits 25 % above 0.66. *)
let test_lexing_allocation () =
  with_bulk_nt (fun path file_bytes ->
      let allocated () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let before = allocated () in
      (match Turtle.Ntriples.fold_file path (fun () _ -> ()) () with
      | Ok () -> ()
      | Error msg -> failwith msg);
      let per_byte = (allocated () -. before) /. float_of_int file_bytes in
      if per_byte > 0.82 then
        Alcotest.failf "lexing allocated %.3f words per input byte (bound 0.82)"
          per_byte)

let interner_tests =
  [ Alcotest.test_case "resolve ∘ intern = id, dense ids" `Quick
      test_interner_roundtrip;
    Alcotest.test_case "interning is idempotent" `Quick
      test_interner_idempotent;
    Alcotest.test_case "bnode scoping" `Quick test_interner_bnode_scoping;
    Alcotest.test_case "compact sorts into term order" `Quick
      test_interner_compact_sorted;
    Alcotest.test_case "bad id rejected" `Quick test_interner_bad_id ]

let columnar_tests =
  [ Alcotest.test_case "of_graph/to_graph roundtrip" `Quick
      test_columnar_roundtrip;
    Alcotest.test_case "slices ≡ structural indexes" `Quick
      test_columnar_slices_agree;
    Alcotest.test_case "duplicate adds collapse" `Quick test_columnar_dedup;
    Alcotest.test_case "empty builder freezes empty" `Quick test_columnar_empty;
    Alcotest.test_case "duplicates only, two subjects" `Quick
      test_columnar_duplicates_only;
    Alcotest.test_case "hub subject, reversed and repeated" `Quick
      test_columnar_hub_subject;
    Alcotest.test_case "literal subjects rejected" `Quick
      test_columnar_literal_subject;
    Alcotest.test_case "Neigh.of_columnar ≡ Neigh.of_node" `Quick
      test_neigh_of_columnar;
    Alcotest.test_case "interned session ≡ structural" `Quick
      test_interned_session_agrees;
    Alcotest.test_case "columnar-primary session" `Quick
      test_session_columnar;
    Alcotest.test_case "Neigh.of_node allocates per listed triple" `Quick
      test_neigh_of_node_allocation;
    Alcotest.test_case "frozen Backtracking check allocates per neighbourhood"
      `Quick test_frozen_backtracking_allocation;
    Alcotest.test_case "trace and --explain agree across stores" `Quick
      test_trace_agrees_across_stores ]

let streaming_tests =
  [ Alcotest.test_case "fold_file ≡ parse_file" `Quick
      test_fold_file_agrees_with_parse;
    Alcotest.test_case "load_file builds the store" `Quick
      test_load_file_columnar;
    Alcotest.test_case "malformed input is an error" `Quick
      test_fold_file_bad_input;
    Alcotest.test_case "multi-MB load never slurps the source" `Quick
      test_streaming_load_memory;
    Alcotest.test_case "lexing allocates per token, not per byte" `Quick
      test_lexing_allocation ]

let suites =
  [ ("rdf.interner", interner_tests);
    ("rdf.columnar", columnar_tests);
    ("turtle.streaming", streaming_tests) ]
