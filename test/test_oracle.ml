(* Tests for the cross-engine differential oracle (lib/oracle):
   fixed-seed campaign smoke, replay of the checked-in counterexample
   corpus, and the repro-file format round-trip. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --------------------------------------------------------------- *)
(* Corpus replay                                                    *)
(* --------------------------------------------------------------- *)

(* Every checked-in file is the shrunk repro of a divergence a
   campaign once found; replaying them keeps the fixes regressed. *)
let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort String.compare
  |> List.map (Filename.concat "corpus")

let test_corpus_replays () =
  let files = corpus_files () in
  check_bool "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Oracle.replay_file path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" path e)
    files

(* --------------------------------------------------------------- *)
(* Campaign smoke                                                   *)
(* --------------------------------------------------------------- *)

let no_findings (summary : Oracle.summary) =
  List.iter
    (fun (f : Oracle.finding) -> Alcotest.failf "seed %d: %s" f.seed f.detail)
    summary.findings

let test_campaign_surface () =
  let summary = Oracle.run Oracle.Surface ~first_seed:0 ~count:60 in
  check_int "seeds run" 60 summary.seeds_run;
  no_findings summary

let test_campaign_extended () =
  (* Extended mode generates predicate stems overlapping singleton
     predicates (the SORBE applicability edge) and object-set
     complements. *)
  no_findings (Oracle.run Oracle.Extended ~first_seed:0 ~count:30)

let test_seed_231_agrees () =
  (* The campaign seed that exposed the syntactic-vs-value literal
     comparison divergence (test/corpus/oracle-seed231.repro holds the
     shrunk form); the full workload must now agree across arms. *)
  let case = Workload.Rand_gen.case 231 in
  check_int "divergences" 0
    (List.length (Oracle.divergences case.schema case.graph case.associations))

let test_campaign_edits () =
  (* The incremental arm: seeded edit scripts, every verdict diffed
     against a from-scratch session after every edit. *)
  let summary = Oracle.run Oracle.Edits ~first_seed:0 ~count:40 in
  check_int "seeds run" 40 summary.seeds_run;
  no_findings summary

(* --------------------------------------------------------------- *)
(* Repro documents                                                  *)
(* --------------------------------------------------------------- *)

let oracle_case ?(script = []) (case : Workload.Rand_gen.case) =
  { Oracle.schema = case.schema;
    graph = case.graph;
    associations = case.associations;
    script }

(* Replay a repro document from a file, as [--oracle replay=FILE]
   does. *)
let replay_string doc = Util.with_temp_file doc Oracle.replay_file

let has_edits_section doc = List.mem "%edits" (String.split_on_char '\n' doc)

let test_repro_roundtrip () =
  (* Rendering a printable workload yields a self-contained document
     that parses back and replays clean. *)
  List.iter
    (fun seed ->
      let case = Workload.Rand_gen.case seed in
      let doc =
        Oracle.repro_to_string ~seed ~mode:Oracle.Surface
          ~detail:"(synthetic)" (oracle_case case)
      in
      check_bool "no %edits without a script" false (has_edits_section doc);
      match replay_string doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d replay: %s\n%s" seed e doc)
    [ 0; 7; 42; 231 ]

let test_replay_malformed () =
  let expect_error name doc =
    match replay_string doc with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected an error" name
  in
  expect_error "no sections" "just some text\n";
  expect_error "bad schema" "%schema\n<S1> {\n%data\n%map\n<n>@<S1>\n";
  expect_error "empty map"
    "%schema\n<http://example.org/S1> {}\n%data\n%map\n";
  expect_error "edits line without sign"
    "%schema\n<http://example.org/S1> {}\n%data\n%map\n\
     <http://example.org/n0>@<http://example.org/S1>\n%edits\n\
     <http://example.org/n0> <http://example.org/p0> \
     <http://example.org/n1> .\n";
  expect_error "edits line not a triple"
    "%schema\n<http://example.org/S1> {}\n%data\n%map\n\
     <http://example.org/n0>@<http://example.org/S1>\n%edits\n\
     + not a triple\n"

let test_edits_repro_roundtrip () =
  (* A synthetic edits finding renders to a document whose %edits
     section parses back and replays clean. *)
  List.iter
    (fun seed ->
      let case = Workload.Rand_gen.case seed in
      let rng = Workload.Prng.create (seed lxor 0x5eed) in
      let script =
        Workload.Rand_gen.edit_script rng case.schema case.graph 8
      in
      let doc =
        Oracle.repro_to_string ~seed ~mode:Oracle.Edits ~detail:"(synthetic)"
          (oracle_case ~script case)
      in
      check_bool "%edits section" true (script <> [] && has_edits_section doc);
      match replay_string doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d edits replay: %s\n%s" seed e doc)
    [ 0; 7; 42 ]

(* --------------------------------------------------------------- *)
(* Shrinking and rendering                                          *)
(* --------------------------------------------------------------- *)

let test_shrink_edits () =
  (* No campaign has a divergence to shrink, so the edits shrinker is
     driven by a synthetic property: "the script still has edit 3 and
     the graph still has its first triple". *)
  let w = Workload.Rand_gen.case 7 in
  let script =
    Workload.Rand_gen.edit_script
      (Workload.Prng.create (7 lxor 0x5eed))
      w.schema w.graph 12
  in
  let edit = List.nth script 3
  and triple = List.hd (Rdf.Graph.to_list w.graph) in
  let keep (c : Oracle.case) =
    List.mem edit c.script && Rdf.Graph.mem triple c.graph
  in
  let case = oracle_case ~script w in
  check_bool "keep holds on the input" true (keep case);
  check_bool "something to shrink" true
    (List.length script > 1 && List.length case.associations > 1);
  let shrunk = Oracle.shrink_edits ~keep case in
  check_bool "schema kept whole" true (shrunk.schema == case.schema);
  check_bool "exactly that edit" true (shrunk.script = [ edit ]);
  check_bool "exactly that triple" true
    (Rdf.Graph.to_list shrunk.graph = [ triple ]);
  check_int "one association" 1 (List.length shrunk.associations)

let test_render_findings () =
  (* A clean oracle never reaches the with-findings headlines or the
     finding lines, so they are pinned on synthetic summaries, one per
     mode, with and without a repro path. *)
  let summary mode tallies findings =
    { Oracle.mode; first_seed = 10; seeds_run = 7; tallies; findings }
  in
  let finding ?repro seed detail = { Oracle.seed; detail; repro } in
  let mismatch =
    "sparql: verdict mismatch at <http://example.org/n3>@<http://example.org/S1> \
     (deriv=false sparql=true)"
  and stale =
    "edits: stale verdict at <http://example.org/n0>@<http://example.org/S0> \
     after edit 1/2 (incremental \u{2260} from-scratch)"
  in
  let check name expected s =
    Alcotest.(check (list string)) name expected (Oracle.render s)
  in
  check "surface"
    [ "oracle: 7 seeds checked (surface mode): 2 divergences";
      "  seed 12: " ^ mismatch ^ " [out/oracle-seed12.repro]";
      "  seed 15: " ^ mismatch ]
    (summary Oracle.Surface []
       [ finding ~repro:"out/oracle-seed12.repro" 12 mismatch;
         finding 15 mismatch ]);
  check "extended"
    [ "oracle: 7 seeds checked (extended mode): 1 divergence";
      "  seed 13: " ^ mismatch ]
    (summary Oracle.Extended [] [ finding 13 mismatch ]);
  check "edits"
    [ "oracle: 7 edit scripts checked: 2 divergences";
      "  seed 10: " ^ stale ^ " [out/oracle-edits-seed10.repro]";
      "  seed 16: " ^ stale ]
    (summary Oracle.Edits []
       [ finding ~repro:"out/oracle-edits-seed10.repro" 10 stale;
         finding 16 stale ]);
  check "edits, one"
    [ "oracle: 7 edit scripts checked: 1 divergence"; "  seed 11: " ^ stale ]
    (summary Oracle.Edits [] [ finding 11 stale ]);
  check "containment"
    [ "oracle: 7 seeds checked (containment arm, seeds 10-16): 4 contained \
       fuzz-checked, 2 counterexamples re-verified, 1 inconclusive, 1 finding";
      "  seed 14: shrinker destroyed the containment witness for \
       <http://example.org/S1>" ]
    (summary Oracle.Containment
       [ ("contained", 4); ("inconclusive", 1); ("refuted", 2) ]
       [ finding 14
           "shrinker destroyed the containment witness for \
            <http://example.org/S1>" ]);
  let changed arm =
    Printf.sprintf
      "optimizer changed the %s report on seed 12 (schemas must validate \
       identically)"
      arm
  in
  check "optimizer"
    [ "oracle: 7 seeds checked (optimizer arm, seeds 10-16): 3 rewritten, \
       reports byte-compared, 2 findings";
      "  seed 12: " ^ changed "structural";
      "  seed 12: " ^ changed "interned" ]
    (summary Oracle.Optimizer [ ("rewritten", 3) ]
       [ finding 12 (changed "structural"); finding 12 (changed "interned") ])

let suites =
  [ ( "oracle",
      [ Alcotest.test_case "corpus replays clean" `Quick test_corpus_replays;
        Alcotest.test_case "surface campaign, seeds 0-59" `Slow
          test_campaign_surface;
        Alcotest.test_case "extended campaign, seeds 0-29" `Slow
          test_campaign_extended;
        Alcotest.test_case "seed 231 agrees after literal fix" `Quick
          test_seed_231_agrees;
        Alcotest.test_case "edits campaign, seeds 0-39" `Slow
          test_campaign_edits;
        Alcotest.test_case "repro document round-trip" `Quick
          test_repro_roundtrip;
        Alcotest.test_case "edits repro round-trip" `Quick
          test_edits_repro_roundtrip;
        Alcotest.test_case "malformed repro documents" `Quick
          test_replay_malformed;
        Alcotest.test_case "edits shrinker keeps one edit and triple" `Quick
          test_shrink_edits;
        Alcotest.test_case "summary lines with findings" `Quick
          test_render_findings ] ) ]
