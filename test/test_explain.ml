(* The provenance layer: structured blame sets (Explain), the
   span-tree recorder (Shex_explain.Trace), its exporters, and the
   property that tracing never changes a verdict. *)

open Util
open Shex

let focus = node "n"
let no_refs = Neigh.by_term Deriv.no_refs
let s_label = Label.of_string "S"

(* ------------------------------------------------------------------ *)
(* Explain: required arcs and blame-set extraction                    *)
(* ------------------------------------------------------------------ *)

(* The arcs an explanation lists as missing when the focus has no
   triples: the required arcs of the expression itself (an accepting
   trace has no explanation, so a nullable expression lists none). *)
let test_required_arcs () =
  let missing e =
    match
      Explain.of_trace ~check:no_refs ~node:focus ~label:s_label
        (deriv_trace focus Rdf.Graph.empty e)
    with
    | None -> 0
    | Some (Explain.Missing_arcs { missing; _ }) -> List.length missing
    | Some _ -> Alcotest.fail "expected Missing_arcs"
  in
  let a = arc_num "a" [ 1 ] and b = arc_num "b" [ 1 ] in
  check_int "an arc demands itself" 1 (missing a);
  check_int "a star demands nothing" 0 (missing (Rse.star a));
  check_int "and demands both non-nullable conjuncts" 2
    (missing (Rse.and_ a b));
  check_int "and skips its nullable conjunct" 1
    (missing (Rse.and_ a (Rse.star b)));
  check_int "a nullable or demands nothing" 0 (missing (Rse.opt a));
  check_int "a non-nullable or offers both sides" 2 (missing (Rse.or_ a b))

let test_of_trace_pass () =
  let tr = deriv_trace focus example8_graph example5 in
  check_bool "no explanation for an accepting trace" true
    (Explain.of_trace ~check:no_refs ~node:focus ~label:s_label tr = None)

let test_blame_triple () =
  (* Example 12: the second a-triple drives the residual to ∅. *)
  let tr = deriv_trace focus example12_graph example5 in
  match Explain.of_trace ~check:no_refs ~node:focus ~label:s_label tr with
  | Some (Explain.Blame_triple { node = n; triple; ref_failures; _ } as ex) ->
      Alcotest.check term "blames the focus node" focus n;
      check_string "blames an a-triple" "http://example.org/a"
        (Rdf.Iri.to_string (Rdf.Triple.predicate triple.Neigh.triple));
      check_int "no reference failures" 0 (List.length ref_failures);
      check_bool "message names the collapse" true
        (contains (Explain.to_string ex) "matches no arc")
  | _ -> Alcotest.fail "expected Blame_triple"

let test_missing_arcs () =
  let e = Rse.and_ (arc_num "a" [ 1 ]) (arc_num "b" [ 1 ]) in
  let g = graph_of [ t3 "n" "a" (num 1) ] in
  let tr = deriv_trace focus g e in
  match Explain.of_trace ~check:no_refs ~node:focus ~label:s_label tr with
  | Some (Explain.Missing_arcs { missing; residual; _ }) ->
      check_bool "residual is not nullable" false (Rse.nullable residual);
      check_int "exactly the b-arc is missing" 1 (List.length missing);
      let msg =
        Explain.to_string
          (Explain.Missing_arcs
             { node = focus; label = s_label; residual; missing })
      in
      check_bool "message says obligations remain" true
        (contains msg "obligations remain");
      check_bool "message names the missing arc" true (contains msg "missing:")
  | _ -> Alcotest.fail "expected Missing_arcs"

let test_no_shape_names_node () =
  let msg =
    Explain.to_string
      (Explain.No_shape { node = focus; label = Label.of_string "Missing" })
  in
  check_bool "names the focus node" true
    (contains msg "<http://example.org/n>");
  check_bool "names the label" true (contains msg "Missing")

let test_to_json_kinds () =
  let json ex = Json.to_string ~minify:true (Explain.to_json ex) in
  check_bool "no_shape kind" true
    (contains
       (json (Explain.No_shape { node = focus; label = s_label }))
       {|"kind":"no_shape"|});
  let tr = deriv_trace focus example12_graph example5 in
  match Explain.of_trace ~check:no_refs ~node:focus ~label:s_label tr with
  | Some ex ->
      let s = json ex in
      check_bool "blame_triple kind" true (contains s {|"kind":"blame_triple"|});
      check_bool "carries the residual" true (contains s {|"residual"|})
  | None -> Alcotest.fail "expected a failing trace"

(* ------------------------------------------------------------------ *)
(* Trace recorder (injected clock)                                    *)
(* ------------------------------------------------------------------ *)

let clocked () =
  let t = ref 0.0 in
  (t, Shex_explain.Trace.create ~clock:(fun () -> !t) ())

let test_recorder_tree () =
  let t, r = clocked () in
  let sink = Shex_explain.Trace.sink r in
  sink (Telemetry.span_begin "check" [ ("node", Telemetry.String "n") ]);
  t := 5e-6;
  sink (Telemetry.instant "deriv_step" [ ("focus", Telemetry.String "n") ]);
  t := 20e-6;
  sink (Telemetry.span_end "check" [ ("ok", Telemetry.Bool true) ]);
  check_int "three events delivered" 3 (Shex_explain.Trace.events r);
  match Shex_explain.Trace.roots r with
  | [ span ] ->
      check_string "span name" "check" span.Shex_explain.Trace.name;
      check_int "span duration" 20 span.Shex_explain.Trace.dur;
      check_bool "begin field kept" true
        (Shex_explain.Trace.string_arg span "node" = Some "n");
      check_bool "end field merged" true
        (List.assoc_opt "ok" span.Shex_explain.Trace.args
        = Some (Telemetry.Bool true));
      (match Shex_explain.Trace.children span with
      | [ child ] ->
          check_string "instant attached" "deriv_step"
            child.Shex_explain.Trace.name;
          check_bool "instants are not spans" false
            child.Shex_explain.Trace.is_span;
          check_int "instant timestamp" 5 child.Shex_explain.Trace.ts
      | cs -> Alcotest.fail (Printf.sprintf "%d children" (List.length cs)))
  | roots -> Alcotest.fail (Printf.sprintf "%d roots" (List.length roots))

let test_recorder_unwinds_abandoned () =
  (* An end event whose name skips an open inner span (an exception
     unwound past it) closes the straggler first. *)
  let t, r = clocked () in
  let sink = Shex_explain.Trace.sink r in
  sink (Telemetry.span_begin "outer" []);
  t := 2e-6;
  sink (Telemetry.span_begin "inner" []);
  t := 9e-6;
  sink (Telemetry.span_end "outer" []);
  match Shex_explain.Trace.roots r with
  | [ outer ] -> (
      check_string "outer survives" "outer" outer.Shex_explain.Trace.name;
      check_int "outer duration" 9 outer.Shex_explain.Trace.dur;
      match Shex_explain.Trace.children outer with
      | [ inner ] ->
          check_string "inner closed underneath" "inner"
            inner.Shex_explain.Trace.name;
          check_int "inner closed at the end event" 7
            inner.Shex_explain.Trace.dur
      | cs -> Alcotest.fail (Printf.sprintf "%d children" (List.length cs)))
  | roots -> Alcotest.fail (Printf.sprintf "%d roots" (List.length roots))

let test_recorder_finish_idempotent () =
  let t, r = clocked () in
  let sink = Shex_explain.Trace.sink r in
  sink (Telemetry.span_begin "check" []);
  t := 4e-6;
  Shex_explain.Trace.finish r;
  Shex_explain.Trace.finish r;
  check_int "one root after double finish" 1
    (List.length (Shex_explain.Trace.roots r))

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

let recorded_check () =
  let t, r = clocked () in
  let sink = Shex_explain.Trace.sink r in
  sink
    (Telemetry.span_begin "check"
       [ ("node", Telemetry.String "n"); ("shape", Telemetry.String "S") ]);
  t := 5e-6;
  sink (Telemetry.instant "deriv_step" [ ("focus", Telemetry.String "n") ]);
  t := 20e-6;
  sink (Telemetry.span_end "check" [ ("ok", Telemetry.Bool true) ]);
  r

let test_export_chrome () =
  let r = recorded_check () in
  let s = Json.to_string ~minify:true (Shex_explain.Export.chrome_json r) in
  List.iter
    (fun sub ->
      check_bool (Printf.sprintf "contains %s" sub) true (contains s sub))
    [ {|"traceEvents":|}; {|"ph":"X"|}; {|"name":"check"|}; {|"dur":20|};
      {|"ph":"i"|}; {|"s":"t"|}; {|"displayTimeUnit":"ms"|} ]

let test_export_folded () =
  let r = recorded_check () in
  (* Self time is the span's 20 µs: instants don't consume time. *)
  check_string "one stack line" "check:n@S 20\n"
    (Shex_explain.Export.folded r)

let test_export_folded_nested () =
  let t, r = clocked () in
  let sink = Shex_explain.Trace.sink r in
  sink (Telemetry.span_begin "solve" []);
  t := 2e-6;
  sink
    (Telemetry.span_begin "check"
       [ ("node", Telemetry.String "n"); ("shape", Telemetry.String "S") ]);
  t := 12e-6;
  sink (Telemetry.span_end "check" []);
  t := 15e-6;
  sink (Telemetry.span_end "solve" []);
  check_string "child time subtracted from the parent"
    "solve 5\nsolve;check:n@S 10\n"
    (Shex_explain.Export.folded r)

(* ------------------------------------------------------------------ *)
(* Tracing never changes a verdict                                     *)
(* ------------------------------------------------------------------ *)

let traced_registry () =
  let tele = Telemetry.create () in
  let r = Shex_explain.Trace.create () in
  Telemetry.set_sink tele (Some (Shex_explain.Trace.sink r));
  Telemetry.set_residuals tele true;
  tele

let prop_matcher_tracing_preserves_verdict =
  QCheck.Test.make ~count:300
    ~name:"matcher verdicts identical with tracing on/off"
    Test_props.arb_rse_graph (fun (e, g) ->
      let plain = deriv_matches focus g e in
      let traced =
        deriv_matches ~instr:(Deriv.instruments (traced_registry ())) focus g e
      in
      Bool.equal plain traced)

let prop_session_tracing_preserves_verdict =
  QCheck.Test.make ~count:200
    ~name:"session verdicts identical with tracing on/off"
    Test_props.arb_rse_graph (fun (e, g) ->
      match Schema.make [ (s_label, e) ] with
      | Error _ -> QCheck.assume_fail ()
      | Ok schema ->
          let plain =
            Validate.check_bool (Validate.session schema g) focus s_label
          in
          let traced =
            Validate.check_bool
              (Validate.session ~telemetry:(traced_registry ()) schema g)
              focus s_label
          in
          Bool.equal plain traced)

let suites =
  [ ( "explain",
      [ Alcotest.test_case "required_arcs" `Quick test_required_arcs;
        Alcotest.test_case "of_trace on success" `Quick test_of_trace_pass;
        Alcotest.test_case "blame triple (Example 12)" `Quick
          test_blame_triple;
        Alcotest.test_case "missing arcs" `Quick test_missing_arcs;
        Alcotest.test_case "no-shape message names the node" `Quick
          test_no_shape_names_node;
        Alcotest.test_case "to_json kinds" `Quick test_to_json_kinds ] );
    ( "provenance trace",
      [ Alcotest.test_case "span tree with injected clock" `Quick
          test_recorder_tree;
        Alcotest.test_case "abandoned sections unwind" `Quick
          test_recorder_unwinds_abandoned;
        Alcotest.test_case "finish is idempotent" `Quick
          test_recorder_finish_idempotent;
        Alcotest.test_case "chrome trace-event export" `Quick
          test_export_chrome;
        Alcotest.test_case "folded stacks" `Quick test_export_folded;
        Alcotest.test_case "folded stacks subtract child time" `Quick
          test_export_folded_nested ] );
    ( "tracing invariance",
      List.map QCheck_alcotest.to_alcotest
        [ prop_matcher_tracing_preserves_verdict;
          prop_session_tracing_preserves_verdict ] ) ]
