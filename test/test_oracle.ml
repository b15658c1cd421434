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
    (fun (f : Oracle.finding) ->
      Alcotest.failf "seed %d: %s" f.seed f.divergence.detail)
    summary.findings

let test_campaign_surface () =
  let summary = Oracle.run_campaign ~first_seed:0 ~count:60 () in
  check_int "seeds run" 60 summary.seeds_run;
  no_findings summary

let test_campaign_extended () =
  (* Extended mode generates predicate stems overlapping singleton
     predicates (the SORBE applicability edge) and object-set
     complements. *)
  let summary =
    Oracle.run_campaign ~mode:Workload.Rand_gen.Extended ~first_seed:0
      ~count:30 ()
  in
  no_findings summary

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
  let summary = Oracle.run_edits_campaign ~first_seed:0 ~count:40 () in
  check_int "seeds run" 40 summary.seeds_run;
  List.iter
    (fun (f : Oracle.Edits.finding) ->
      Alcotest.failf "seed %d: %s" f.seed f.divergence.detail)
    summary.findings

(* --------------------------------------------------------------- *)
(* Repro documents                                                  *)
(* --------------------------------------------------------------- *)

let synthetic_finding (case : Workload.Rand_gen.case) =
  { Oracle.seed = case.seed;
    mode = case.mode;
    divergence =
      { Oracle.arm = "none"; kind = Oracle.Verdict; detail = "(synthetic)" };
    schema = case.schema;
    graph = case.graph;
    associations = case.associations;
    repro = None }

let test_repro_roundtrip () =
  (* Rendering a printable workload yields a self-contained document
     that parses back and replays clean. *)
  List.iter
    (fun seed ->
      let case = Workload.Rand_gen.case seed in
      let doc = Oracle.repro_to_string (synthetic_finding case) in
      match Oracle.replay_string doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d replay: %s\n%s" seed e doc)
    [ 0; 7; 42; 231 ]

let test_replay_malformed () =
  let expect_error name doc =
    match Oracle.replay_string doc with
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
      let finding =
        { Oracle.Edits.seed = case.seed;
          divergence =
            { Oracle.arm = "none"; kind = Oracle.Verdict;
              detail = "(synthetic)" };
          schema = case.schema;
          graph = case.graph;
          script;
          associations = case.associations;
          repro = None }
      in
      let doc = Oracle.edits_repro_to_string finding in
      match Oracle.replay_string doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d edits replay: %s\n%s" seed e doc)
    [ 0; 7; 42 ]

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
          test_replay_malformed ] ) ]
