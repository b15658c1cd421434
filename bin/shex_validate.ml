(* shex-validate: command-line RDF validation with Shape Expressions.

   Usage:
     shex-validate --schema schema.shex --data data.ttl
     shex-validate --schema s.shex --data d.ttl --node http://e.org/john \
                   --shape Person --engine backtracking --explain
     shex-validate --schema s.shex --data d.ttl \
                   --shape-map '{FOCUS a ex:T}@<T>' --json
     shex-validate --schema s.shex --show-sparql Person
     shex-validate --schema s.shex --export-shexj
     shex-validate --oracle seeds=500,dir=findings *)

open Cmdliner

type engine_choice = Deriv | Back | AutoE | CompiledE

let engine_of_choice = function
  | Deriv -> Shex.Validate.Derivatives
  | Back -> Shex.Validate.Backtracking
  | AutoE -> Shex.Validate.Auto
  | CompiledE -> Shex.Validate.Compiled

type metrics_mode = Mtext | Mjson

(* Load failures are usage errors: the message on stderr, exit 2. *)
let or_exit = function
  | Ok v -> v
  | Error msg -> Printf.eprintf "%s\n" msg; exit 2

let load_schema path = or_exit (Load.schema path)
let load_graph path = or_exit (Load.graph path)
let require_label schema name = or_exit (Load.label schema name)

let require_data = function
  | Some p -> p
  | None ->
      Printf.eprintf "--data is required for validation\n";
      exit 2

let print_metrics session = function
  | None -> ()
  | Some Mtext ->
      Format.printf "%a%!" Telemetry.pp_text (Shex.Validate.metrics session)
  | Some Mjson ->
      print_endline
        (Json.to_string (Telemetry.to_json (Shex.Validate.metrics session)))

(* --explain: the paper-style derivative walk for each association,
   replayed against the session's settled verdicts. *)
let print_explain session associations =
  Format.printf "%a@." (fun ppf () ->
      Shex_explain.Walk.pp_report ppf ~session associations) ()

(* --profile: decode the attribution families out of the session
   snapshot.  The table goes to stderr so it composes with every
   stdout format; under --json the same data is
   embedded as a "profile" member of the report document. *)
let session_profile session =
  if Shex.Validate.profiling session then
    Some (Shex.Profile.of_snapshot (Shex.Validate.metrics session))
  else None

let print_profile session =
  match session_profile session with
  | Some p -> Format.eprintf "%a%!" (Shex.Profile.pp ?top:None) p
  | None -> ()

(* --slow-ms: dump whatever the ring retained, to stderr, after the
   run — the one-shot form of the daemon's slowlog command. *)
let print_slowlog session =
  match Shex.Validate.slowlog session with
  | Some slog -> Format.eprintf "%a%!" Shex.Slowlog.pp slog
  | None -> ()

(* --json: the report document, then --metrics text's exposition
   after it; --metrics json embeds the snapshot under "metrics"
   instead. *)
let emit_json session report ~metrics =
  let embedded =
    match metrics with
    | Some Mjson -> Some (Shex.Validate.metrics session)
    | Some Mtext | None -> None
  in
  print_endline
    (Json.to_string
       (Shex.Report.to_json ?metrics:embedded
          ?profile:(session_profile session) report));
  match metrics with
  | Some Mtext -> print_metrics session metrics
  | Some Mjson | None -> ()

let emit_report session report ~json ~result_map ~quiet ~metrics =
  if json then emit_json session report ~metrics
  else begin
    if result_map then
      print_endline (Shex.Report.to_result_shape_map report)
    else if not quiet then Format.printf "%a@." Shex.Report.pp report;
    print_metrics session metrics
  end;
  if Shex.Report.all_conformant report then exit 0 else exit 1

let infer_cmd data_path label_name nodes_text =
  let graph = load_graph (require_data data_path) in
  let nodes =
    String.split_on_char ' ' nodes_text
    |> List.filter (fun s -> s <> "")
    |> List.map (fun text ->
           (* accept ex:-style names through the default namespaces *)
           match Rdf.Namespace.expand Rdf.Namespace.default text with
           | Ok iri -> Rdf.Term.Iri iri
           | Error _ -> Rdf.Term.iri text)
  in
  if nodes = [] then begin
    Printf.eprintf "--infer needs at least one example node\n";
    exit 2
  end;
  let label = Shex.Label.of_string label_name in
  match Shex.Infer.infer_schema graph [ (label, nodes) ] with
  | Ok schema ->
      print_string (Shexc.Shexc_printer.schema_to_string schema);
      exit 0
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

(* ------------------------------------------------------------------ *)
(* Static analysis commands (lib/analysis)                             *)
(* ------------------------------------------------------------------ *)

(* --analyze: schema hygiene + per-shape emptiness.  Exit 0 when every
   rule is reachable and satisfiable, 1 when dead or unreachable rules
   were found, 3 when the only findings are Unknown (search capped). *)
let analyze_cmd schema =
  let h = Analysis.hygiene schema in
  let names ls = String.concat ", " (List.map Shex.Label.to_string ls) in
  Printf.printf "roots: %s\n" (names h.Analysis.roots);
  List.iter
    (fun (l, verdict) ->
      Printf.printf "%s: %s%s\n"
        (Shex.Label.to_string l)
        (Format.asprintf "%a" Analysis.pp_emptiness verdict)
        (if List.exists (Shex.Label.equal l) h.Analysis.unreachable then
           " [unreachable]"
         else ""))
    h.Analysis.shapes;
  if h.Analysis.unsatisfiable <> [] then
    Printf.printf "dead rules: %s\n" (names h.Analysis.unsatisfiable);
  if h.Analysis.unreachable <> [] then
    Printf.printf "unreachable rules: %s\n" (names h.Analysis.unreachable);
  exit
    (if h.Analysis.unsatisfiable <> [] || h.Analysis.unreachable <> [] then 1
     else if
       List.exists
         (function _, Analysis.Unknown _ -> true | _ -> false)
         h.Analysis.shapes
     then 3
     else 0)

(* --check-compat "OLD NEW" (or OLD,NEW): the deploy gate.  Exit 0
   when every shared label is contained (v1-valid nodes stay valid),
   1 with a replayable Turtle counterexample otherwise, 3 when some
   verdict was inconclusive and none was refuted. *)
let check_compat_cmd spec =
  let parts =
    String.split_on_char ','
      (String.concat "," (String.split_on_char ' ' spec))
    |> List.filter (fun s -> s <> "")
  in
  let old_path, new_path =
    match parts with
    | [ a; b ] -> (a, b)
    | _ ->
        failwith
          "--check-compat expects two schema files: --check-compat \
           'OLD NEW' (or OLD,NEW)"
  in
  let s_old = load_schema old_path and s_new = load_schema new_path in
  let compat = Analysis.check_compat s_old s_new in
  let refuted = ref 0 and inconclusive = ref 0 in
  List.iter
    (fun (it : Analysis.compat_item) ->
      Printf.printf "%s: %s\n"
        (Shex.Label.to_string it.Analysis.label)
        (Format.asprintf "%a" Analysis.pp_containment it.Analysis.verdict);
      match it.Analysis.verdict with
      | Analysis.Refuted w ->
          incr refuted;
          Printf.printf
            "  counterexample (valid under %s, invalid under %s):\n" old_path
            new_path;
          Printf.printf "  focus: %s\n" (Rdf.Term.to_string w.Analysis.focus);
          String.split_on_char '\n' (Analysis.witness_turtle w)
          |> List.iter (fun line ->
                 if line <> "" then Printf.printf "    %s\n" line)
      | Analysis.Inconclusive _ -> incr inconclusive
      | Analysis.Contained -> ())
    compat.Analysis.items;
  List.iter
    (fun l ->
      Printf.printf "removed: %s (present only in %s)\n"
        (Shex.Label.to_string l) old_path)
    compat.Analysis.removed;
  List.iter
    (fun l ->
      Printf.printf "added: %s (present only in %s)\n"
        (Shex.Label.to_string l) new_path)
    compat.Analysis.added;
  exit (if !refuted > 0 then 1 else if !inconclusive > 0 then 3 else 0)

(* --optimize: print the optimised schema as ShExC. *)
let optimize_cmd schema =
  let opt, n = Analysis.optimize_stats schema in
  print_string (Shexc.Shexc_printer.schema_to_string opt);
  Printf.eprintf "optimizer: %d shape%s rewritten\n" n
    (if n = 1 then "" else "s");
  exit 0

(* The --oracle mode names as usage text lists them. *)
let oracle_modes = List.map fst Oracle.modes

(* --oracle seeds=N[,start=S][,mode=M][,dir=DIR]: run a differential
   campaign and exit — 0 when it found nothing, 1 otherwise (shrunk
   repro files land in DIR when given).  --oracle replay=FILE re-runs
   a repro document instead: 0 when every arm now agrees. *)
let oracle_cmd spec =
  let seeds = ref None
  and start = ref 0
  and mode = ref Oracle.Surface
  and dir = ref None
  and replay = ref None in
  let int_value key v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | Some _ | None ->
        failwith
          (Printf.sprintf "--oracle: %s must be a non-negative integer \
                           (got %S)" key v)
  in
  List.iter
    (fun part ->
      match String.index_opt part '=' with
      | None ->
          failwith
            (Printf.sprintf
               "--oracle: expected key=value, got %S (known keys: seeds, \
                start, mode, dir, replay)"
               part)
      | Some i ->
          let k = String.sub part 0 i
          and v = String.sub part (i + 1) (String.length part - i - 1) in
          (match (k, v) with
          | "seeds", v -> (
              match int_value "seeds" v with
              | 0 -> failwith "--oracle: seeds must be at least 1 (got \"0\")"
              | n -> seeds := Some n)
          | "start", v -> start := int_value "start" v
          | "mode", v -> (
              match List.assoc_opt v Oracle.modes with
              | Some m -> mode := m
              | None ->
                  let rev = List.rev oracle_modes in
                  failwith
                    (Printf.sprintf "--oracle: mode must be %s or %s (got %S)"
                       (String.concat ", " (List.rev (List.tl rev)))
                       (List.hd rev) v))
          | "dir", v -> dir := Some v
          | "replay", v -> replay := Some v
          | k, _ ->
              failwith
                (Printf.sprintf
                   "--oracle: unknown key %S (known keys: seeds, start, \
                    mode, dir, replay)"
                   k)))
    (String.split_on_char ',' spec)
  |> ignore;
  (match !replay with
  | Some path -> (
      if !seeds <> None then
        failwith "--oracle: replay= cannot be combined with seeds=";
      match Oracle.replay_file path with
      | Ok () ->
          Printf.printf "oracle: %s replays clean (all arms agree)\n" path;
          exit 0
      | Error detail ->
          Printf.eprintf "oracle: %s still diverges: %s\n" path detail;
          exit 1)
  | None -> ());
  let count =
    match !seeds with
    | Some n -> n
    | None -> failwith "--oracle: a seeds=N entry is required"
  in
  let summary =
    Oracle.run ?dir:!dir ~log:prerr_endline !mode ~first_seed:!start ~count
  in
  List.iter print_endline (Oracle.render summary);
  exit (if summary.findings = [] then 0 else 1)

let run_validate schema_path data_path node_opt shape_opt shape_map_opt
    engine domains profile slow_ms metrics trace_json trace_chrome
    trace_folded explain show_sparql export_shexj json result_map quiet
    infer_nodes infer_label =
  (match infer_nodes with
  | Some nodes_text -> infer_cmd data_path infer_label nodes_text
  | None -> ());
  let schema_path =
    match schema_path with
    | Some p -> p
    | None ->
        Printf.eprintf "--schema is required (except with --infer)\n";
        exit 2
  in
  let schema = load_schema schema_path in
  (match show_sparql with
  | Some shape_name -> (
      let l = require_label schema shape_name in
      match Sparql.Gen.of_shape (Shex.Schema.find_exn schema l) with
      | Ok sel ->
          print_endline (Sparql.Pp.query_to_string (Sparql.Ast.Select_q sel));
          exit 0
      | Error msg ->
          Printf.eprintf "cannot translate %s: %s\n" shape_name msg;
          exit 2)
  | None -> ());
  if export_shexj then begin
    print_endline (Shexc.Shexj.export_string schema);
    exit 0
  end;
  let data_path = require_data data_path in
  let graph = load_graph data_path in
  let tele =
    (* --slow-ms rides along: the wall clock works without telemetry,
       but an enabled registry gives the slowlog entries their
       work-counter deltas. *)
    if
      metrics <> None || trace_json <> None || trace_chrome <> None
      || trace_folded <> None || profile || slow_ms <> None
    then Telemetry.create ()
    else Telemetry.disabled
  in
  (* Trace outputs are finalised exactly once, whichever way the
     command terminates: [at_exit] covers the report emitters' [exit]
     calls (which do not unwind, so Fun.protect alone would miss
     them), the [Fun.protect] around the dispatch below covers
     exception paths. *)
  let finishers : (unit -> unit) list ref = ref [] in
  let finished = ref false in
  let finish_traces () =
    if not !finished then begin
      finished := true;
      List.iter (fun f -> f ()) (List.rev !finishers)
    end
  in
  at_exit finish_traces;
  let sinks : (Telemetry.event -> unit) list ref = ref [] in
  (match trace_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      finishers := (fun () -> close_out_noerr oc) :: !finishers;
      sinks :=
        (fun ev ->
          output_string oc
            (Json.to_string ~minify:true (Telemetry.event_to_json ev));
          output_char oc '\n')
        :: !sinks);
  (if trace_chrome <> None || trace_folded <> None then begin
     let recorder = Shex_explain.Trace.create () in
     sinks := Shex_explain.Trace.sink recorder :: !sinks;
     (* Exported traces carry the rendered residual expressions. *)
     Telemetry.set_residuals tele true;
     (* Atomic: a run interrupted between finisher start and finish
        must not leave a truncated trace where a previous good one
        stood. *)
     let write path render =
       finishers :=
         (fun () -> Json.write_file_atomic path (render ()))
         :: !finishers
     in
     Option.iter
       (fun path ->
         write path (fun () ->
             Json.to_string (Shex_explain.Export.chrome_json recorder)))
       trace_chrome;
     Option.iter
       (fun path ->
         write path (fun () -> Shex_explain.Export.folded recorder))
       trace_folded
   end);
  (match List.rev !sinks with
  | [] -> ()
  | [ f ] -> Telemetry.set_sink tele (Some f)
  | fs -> Telemetry.set_sink tele (Some (fun ev -> List.iter (fun f -> f ev) fs)));
  let session =
    Shex.Validate.session ~engine:(engine_of_choice engine) ~telemetry:tele
      ~domains ~profile ?slow_ms schema graph
  in
  let maybe_stats () =
    print_profile session;
    print_slowlog session
  in
  Fun.protect ~finally:finish_traces @@ fun () ->
  match (shape_map_opt, node_opt, shape_opt) with
  | Some shape_map_text, None, None -> (
      match Shex.Shape_map.parse shape_map_text with
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
      | Ok shape_map ->
          let report = Shex.Report.run_shape_map session shape_map graph in
          if explain then
            print_explain session (Shex.Shape_map.resolve shape_map graph);
          maybe_stats ();
          emit_report session report ~json ~result_map ~quiet ~metrics)
  | Some _, _, _ ->
      Printf.eprintf "--shape-map cannot be combined with --node/--shape\n";
      exit 2
  | None, Some node_iri, Some shape_name ->
      let label = require_label schema shape_name in
      let node = Rdf.Term.iri node_iri in
      let report = Shex.Report.run session [ (node, label) ] in
      if explain then print_explain session [ (node, label) ];
      maybe_stats ();
      emit_report session report ~json ~result_map ~quiet ~metrics
  | None, None, None ->
      (* Whole-graph mode: every node against every shape. *)
      let associations =
        List.concat_map
          (fun n ->
            List.map (fun l -> (n, l)) (Shex.Schema.labels schema))
          (Rdf.Graph.nodes graph)
      in
      let report = Shex.Report.run session associations in
      if explain then print_explain session associations;
      maybe_stats ();
      if json then begin
        emit_json session report ~metrics;
        exit 0
      end;
      (* Every node is asked about every label, so the union of the
         conformant pairs' typings is the conformant pairs. *)
      let typing =
        List.fold_left
          (fun acc (e : Shex.Report.entry) -> Shex.Typing.add e.node e.label acc)
          Shex.Typing.empty
          (Shex.Report.conformant report)
      in
      if Shex.Typing.is_empty typing then begin
        if not quiet then print_endline "no node conforms to any shape";
        print_metrics session metrics;
        exit 1
      end
      else begin
        if not quiet then Format.printf "%a@." Shex.Typing.pp typing;
        print_metrics session metrics;
        exit 0
      end
  | None, _, _ ->
      Printf.eprintf "--node and --shape must be given together\n";
      exit 2

(* Library errors (bad IRIs, out-of-fragment schemas, filesystem
   trouble) must surface as one-line diagnostics with exit code 2,
   not as raw backtraces through cmdliner's catch-all. *)
(* Offline journal analysis: no daemon involved, just the reader. *)
let journal_replay_cmd path ~json =
  match Obs.Replay.analyze path with
  | Error msg -> failwith msg
  | Ok report ->
      if json then print_endline (Json.to_string (Obs.Replay.to_json report))
      else Format.printf "%a" Obs.Replay.pp report;
      exit 0

(* A curl-free scrape: print the body, exit 0 on 2xx, 1 otherwise —
   so cram tests can probe /health, /ready, /metrics with the binary
   under test. *)
let obs_get_cmd url =
  match Obs.Http.get url with
  | Error msg -> failwith msg
  | Ok (status, body) ->
      print_string body;
      exit (if status >= 200 && status < 300 then 0 else 1)

let validate_cmd oracle analyze check_compat optimize serve obs_port
    obs_interval journal journal_max_kb
    journal_replay obs_get schema_path data_path node_opt shape_opt
    shape_map_opt engine domains profile slow_ms metrics trace_json
    trace_chrome trace_folded explain show_sparql export_shexj json
    result_map quiet infer_nodes infer_label =
  try
    (match oracle with Some spec -> oracle_cmd spec | None -> ());
    (match check_compat with Some spec -> check_compat_cmd spec | None -> ());
    if analyze || optimize then begin
      let path =
        match schema_path with
        | Some p -> p
        | None ->
            Printf.eprintf "--schema is required with --analyze/--optimize\n";
            exit 2
      in
      let schema = load_schema path in
      if analyze then analyze_cmd schema else optimize_cmd schema
    end;
    (match obs_get with Some url -> obs_get_cmd url | None -> ());
    (match journal_replay with
    | Some path -> journal_replay_cmd path ~json
    | None -> ());
    if serve then
      Serve.run ?schema_path ?data_path
        ~engine:(engine_of_choice engine) ?slow_ms ?obs_port
        ~obs_interval ?journal_path:journal
        ?journal_max_bytes:(Option.map (fun kb -> kb * 1024) journal_max_kb)
        ()
    else
      run_validate schema_path data_path node_opt shape_opt shape_map_opt
        engine domains profile slow_ms metrics trace_json trace_chrome
        trace_folded explain show_sparql export_shexj json result_map
        quiet infer_nodes infer_label
  with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

let schema_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "s"; "schema" ] ~docv:"FILE"
        ~doc:"Schema file: ShExC, or ShExJ when the extension is .json.")

let infer_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "infer" ] ~docv:"NODES"
        ~doc:
          "Infer a schema from the space-separated example nodes in the \
           data (e.g. $(b,'ex:john ex:bob')), print it as ShExC and exit.")

let infer_label_arg =
  Arg.(
    value
    & opt string "Inferred"
    & info [ "infer-label" ] ~docv:"LABEL"
        ~doc:"Shape label for --infer (default: Inferred).")

let data_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Turtle data file.")

let node_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "n"; "node" ] ~docv:"IRI" ~doc:"Focus node to validate.")

let shape_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shape" ] ~docv:"LABEL"
        ~doc:"Shape label to validate against (suffix match allowed).")

let shape_map_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "m"; "shape-map" ] ~docv:"MAP"
        ~doc:
          "Shape map, e.g. $(b,'<n>@<S>, {FOCUS a ex:T}@<T>').  Selects \
           the (node, shape) pairs to check.")

let engine_arg =
  let choices =
    [ ("derivatives", Deriv); ("backtracking", Back); ("auto", AutoE);
      ("compiled", CompiledE) ]
  in
  Arg.(
    value
    & opt (enum choices) Deriv
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Matching engine: $(b,derivatives) (the paper's algorithm, \
           default), $(b,backtracking) (the Fig. 1 baseline — \
           exponential, small inputs only), $(b,compiled) (hash-consed \
           lazy derivative automata — compile each shape once, validate \
           by table lookup) or $(b,auto) (counting matcher for \
           single-occurrence shapes, compiled automata otherwise).")

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Validate bulk checks (shape maps, whole-graph mode) across \
           $(docv) OCaml domains (default 1 = sequential; values below 1 \
           are treated as 1).  Verdicts, reports and merged telemetry \
           totals are identical to sequential mode; trace sinks \
           ($(b,--trace-json), $(b,--trace-chrome), $(b,--trace-folded)) \
           force the sequential path so event streams stay ordered.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable telemetry with per-shape cost attribution: every \
           (node, shape) evaluation charges its self cost — derivative \
           steps, backtracking branches, SORBE counter updates, \
           compiled-DFA transitions, fixpoint flips and wall time — to \
           its shape label (and wall time to its focus node).  After \
           validating, print the hottest-shapes / hottest-focus-nodes \
           tables and the attribution-coverage line on stderr; with \
           $(b,--json) the same data is embedded as a $(b,profile) \
           member of the report document.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Capture slow validations: every check taking at least $(docv) \
           wall-clock milliseconds is retained — verdict, failure \
           explanation and per-check work-counter deltas — in a bounded \
           ring buffer, dumped on stderr after the run.  With \
           $(b,--serve), sets the daemon's initial slowlog threshold \
           (see the $(b,slowlog) command).")

let metrics_arg =
  let choices = [ ("text", Mtext); ("json", Mjson) ] in
  Arg.(
    value
    & opt (some (enum choices)) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Enable telemetry and print the session metrics snapshot on \
           stdout after the report: $(b,text) (Prometheus-style \
           exposition) or $(b,json).  With $(b,--json), $(b,--metrics) \
           $(b,json) embeds the snapshot under a $(b,metrics) key of the \
           report document instead.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and stream machine-readable derivative \
           traces to $(docv): one JSON object per line, one line per \
           derivative step taken by the matching engine.")

let trace_chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-chrome" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write the full validation run as a \
           Chrome trace-event JSON document to $(docv) — one span per \
           (node, shape) check, one instant per derivative step — \
           loadable in Perfetto or chrome://tracing.")

let trace_folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-folded" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write folded flamegraph stacks \
           ($(b,frame;frame count) lines, self-time in microseconds) to \
           $(docv), ready for $(b,flamegraph.pl) or speedscope.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "After validating, pretty-print the derivative walk behind \
           every verdict in the style of the paper's Examples 8\xe2\x80\x9312, \
           with the structured blame set on each failure.")

let show_sparql_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "show-sparql" ] ~docv:"LABEL"
        ~doc:
          "Print the SPARQL query compiled from the given shape (\xc2\xa73 \
           of the paper) and exit.")

let export_shexj_arg =
  Arg.(
    value & flag
    & info [ "export-shexj" ]
        ~doc:"Print the schema as ShExJ (JSON) and exit.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the validation report as JSON.")

let result_map_arg =
  Arg.(
    value & flag
    & info [ "result-map" ]
        ~doc:"Emit the report as a result shape map (node@<S> / node@!<S>).")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit code.")

let oracle_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "oracle" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Run the cross-engine differential oracle instead of \
              validating: generate seeded random workloads, run every \
              applicable engine (derivatives, backtracking, SORBE, \
              compiled automata, SPARQL, 2- and 4-domain bulk), and \
              delta-shrink any disagreement.  $(docv) is \
              $(b,seeds=N)[$(b,,start=S)][$(b,,mode=%s)][$(b,,dir=DIR)]; \
              shrunk repro files are written to $(b,DIR), which only the \
              surface, extended and edits modes take.  \
              $(b,mode=edits) replays seeded insert/delete scripts through \
              an incremental session and diffs every verdict against a \
              from-scratch run after each edit; $(b,mode=containment) \
              attacks the static-analysis containment verdicts and \
              $(b,mode=optimizer) checks that optimised schemas validate \
              identically.  Exits 0 when the campaign found nothing, 1 \
              otherwise.  $(b,replay=FILE) re-runs a previously written \
              repro document instead."
             (String.concat "|" oracle_modes)))

let analyze_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Static analysis of $(b,--schema): satisfiability of every \
           shape (nullability-guided derivative-space search, with a \
           verified concrete witness for each satisfiable shape) plus \
           dead-rule and unreachable-shape detection from the focus \
           roots.  Exits 0 when every rule is live and reachable, 1 \
           when dead or unreachable rules were found, 3 when a search \
           was inconclusive.")

let check_compat_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "check-compat" ] ~docv:"'OLD NEW'"
        ~doc:
          "Deploy gate: check that every node valid under schema \
           $(b,OLD) stays valid under schema $(b,NEW) (containment by \
           product-derivative search, label by label).  Counterexamples \
           are printed as replayable Turtle neighbourhoods.  Exits 0 \
           when every shared label is contained, 1 on a refutation, 3 \
           when some verdict was inconclusive.  The two paths are \
           separated by a space or a comma.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize" ]
        ~doc:
          "Print $(b,--schema) rewritten by the pre-validation \
           optimizer as ShExC: value-set normalisation and merging, \
           provably-empty disjunct pruning, conjunct hoisting out of \
           alternatives.  The differential oracle's optimizer arm pins \
           the rewrite to identical validation verdicts.")

let serve_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run as a long-lived validation daemon: read one JSON command \
           per line from stdin ($(b,load), $(b,insert), $(b,delete), \
           $(b,query), $(b,metrics), $(b,shutdown)), answer one JSON \
           line per command on stdout.  Edits are applied through an \
           incremental revalidation session: only the dependency \
           frontier of each delta is re-checked, and responses list the \
           verdicts the delta flipped.  Malformed commands answer a \
           plain $(b,error:) line and the daemon keeps serving.  \
           --schema/--data preload a session; otherwise start with a \
           $(b,load) command.")

let obs_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "obs-port" ] ~docv:"PORT"
        ~doc:
          "With $(b,--serve): answer HTTP GETs on 127.0.0.1:$(docv) — \
           $(b,/metrics) (Prometheus exposition), $(b,/health), \
           $(b,/ready) (503 until a schema is loaded), $(b,/slowlog) \
           and $(b,/stats) (JSON).  $(docv) 0 lets the kernel pick; \
           the daemon prints the bound address on stderr.  Scrapes are \
           answered from the daemon's own select loop between \
           commands — no extra threads or domains.")

let obs_interval_arg =
  Arg.(
    value & opt float 10.
    & info [ "obs-interval" ] ~docv:"SECONDS"
        ~doc:
          "Sampling period of the sliding SLI window and the journal \
           tick (default 10).  0 samples after every loop wake instead \
           of on a timer — deterministic for tests, idle-quiet \
           otherwise.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "With $(b,--serve): append one JSON record per observability \
           tick (cumulative telemetry snapshot), plus lifecycle events \
           and slow-check spills, to $(docv).  Rotates to $(docv).1 at \
           $(b,--journal-max-kb), fsyncing the retired generation.  \
           Replay offline with $(b,--journal-replay).")

let journal_max_kb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "journal-max-kb" ] ~docv:"KB"
        ~doc:"Journal rotation threshold in KiB (default 1024).")

let journal_replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-replay" ] ~docv:"FILE"
        ~doc:
          "Analyse a $(b,--journal) file offline (reading $(docv).1 \
           first when a rotation left one): reconstruct per-window \
           request/error rates and latency quantiles from consecutive \
           ticks, list lifecycle events, and report how the daemon \
           shut down.  $(b,--json) emits the report as JSON.")

let obs_get_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-get" ] ~docv:"URL"
        ~doc:
          "Fetch $(docv) (plain HTTP GET) and print the response body \
           — a minimal client for the $(b,--obs-port) endpoints where \
           curl is unavailable.  Exits 0 on a 2xx status, 1 otherwise.")

let cmd =
  let doc = "validate RDF graphs against Shape Expression schemas" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Validates Turtle data against a ShExC (or ShExJ) schema using \
         regular expression derivatives (Labra Gayo et al., EDBT/ICDT \
         2015 workshops).  Without --node or --shape-map, types every \
         node of the graph against every shape and prints the resulting \
         typing.";
      `S Manpage.s_exit_status;
      `P "0 on conformance, 1 on non-conformance, 2 on usage errors." ]
  in
  Cmd.v
    (Cmd.info "shex-validate" ~doc ~man)
    Term.(
      const validate_cmd $ oracle_arg $ analyze_arg $ check_compat_arg
      $ optimize_arg $ serve_arg $ obs_port_arg
      $ obs_interval_arg $ journal_arg $ journal_max_kb_arg
      $ journal_replay_arg $ obs_get_arg $ schema_arg $ data_arg
      $ node_arg
      $ shape_arg $ shape_map_arg $ engine_arg $ domains_arg
      $ profile_arg $ slow_ms_arg
      $ metrics_arg
      $ trace_json_arg $ trace_chrome_arg $ trace_folded_arg $ explain_arg
      $ show_sparql_arg $ export_shexj_arg $ json_arg
      $ result_map_arg $ quiet_arg $ infer_arg $ infer_label_arg)

let () = exit (Cmd.eval cmd)
