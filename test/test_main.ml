(* Test entry point: aggregates the per-module suites. *)

let () =
  Alcotest.run "shex_derivatives"
    (Test_rdf.suites @ Test_columnar.suites @ Test_value_set.suites @ Test_rse.suites @ Test_rse_extra.suites @ Test_deriv.suites @ Test_deriv_extra.suites
   @ Test_backtrack.suites @ Test_semantics.suites @ Test_validate.suites
   @ Test_sorbe.suites @ Test_turtle.suites @ Test_turtle_extra.suites @ Test_shexc.suites @ Test_sparql.suites @ Test_workload.suites @ Test_strata.suites @ Test_json.suites @ Test_shape_map.suites @ Test_shexj.suites @ Test_open_shapes.suites @ Test_focus.suites @ Test_infer.suites @ Test_suite_runner.suites @ Test_props.suites @ Test_automaton.suites @ Test_telemetry.suites @ Test_explain.suites @ Test_parallel.suites @ Test_oracle.suites @ Test_incremental.suites @ Test_obs.suites @ Test_analysis.suites @ Test_term_syntax.suites)
