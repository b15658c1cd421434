(* The observability plane: sliding-window SLIs (Telemetry.Window),
   the flight-recorder journal and its offline replay (Obs.Journal /
   Obs.Replay), and the slowlog correlation fields. *)

let log2_bucket v =
  (* The bound [le] of the log2 bucket holding observation [v] — same
     bucketing as Telemetry.Histogram (v <= 1 lands in le = 1). *)
  let rec go le = if v <= le then le else go (le * 2) in
  go 1

let buckets_of values =
  List.sort compare
    (List.fold_left
       (fun acc v ->
         let le = log2_bucket v in
         match List.assoc_opt le acc with
         | Some n -> (le, n + 1) :: List.remove_assoc le acc
         | None -> (le, 1) :: acc)
       [] values)

(* The documented contract of the quantile estimator: nearest-rank
   over per-bucket counts always answers with the bound of the bucket
   that holds the true rank-⌈p·total⌉ observation, so the true
   quantile q satisfies le/2 < q <= le (q <= 1 for le = 1).  This is
   the factor-of-two resolution bound of log2 histograms — checked
   here against a brute-force nearest-rank over the raw values. *)
let prop_quantile_bucket_bound =
  QCheck.Test.make ~count:500 ~name:"windowed quantile is bucket-exact"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (int_range 1 (1 lsl 20)))
        (float_range 0.01 1.0))
    (fun (values, p) ->
      QCheck.assume (values <> []);
      let total = List.length values in
      let est = Telemetry.Window.quantile (buckets_of values) ~total p in
      let sorted = List.sort compare values in
      let rank =
        max 1 (min total (int_of_float (ceil (p *. float_of_int total))))
      in
      let truth = List.nth sorted (rank - 1) in
      truth <= est && (est = 1 || est / 2 < truth))

let test_quantile_edges () =
  Alcotest.(check int) "empty" 0 (Telemetry.Window.quantile [] ~total:0 0.5);
  Alcotest.(check int)
    "single" 4
    (Telemetry.Window.quantile [ (4, 1) ] ~total:1 0.5);
  (* p = 0 still answers rank 1 (clamped), p = 1 the maximum bucket. *)
  Alcotest.(check int)
    "p=0 clamps to rank 1" 2
    (Telemetry.Window.quantile [ (2, 3); (8, 1) ] ~total:4 0.0);
  Alcotest.(check int)
    "p=1 is the top bucket" 8
    (Telemetry.Window.quantile [ (2, 3); (8, 1) ] ~total:4 1.0)

(* Ring wraparound: a window of 4 slots fed 10 samples must report
   over exactly the last 4 — both the retained-sample count and the
   rate computed from the (evicted-aware) oldest sample. *)
let test_window_wraparound () =
  let tele = Telemetry.create () in
  let c = Telemetry.counter tele "reqs" in
  let w = Telemetry.Window.create ~slots:4 ~interval_s:1.0 () in
  Alcotest.(check (option pass)) "empty window" None (Telemetry.Window.summary w);
  for i = 0 to 9 do
    Telemetry.Counter.add c 5;
    Telemetry.Window.observe w ~now:(float_of_int i) (Telemetry.snapshot tele)
  done;
  Alcotest.(check int) "saturates at slots" 4 (Telemetry.Window.samples w);
  match Telemetry.Window.summary w with
  | None -> Alcotest.fail "summary after 10 samples"
  | Some s ->
      Alcotest.(check (float 1e-9))
        "window spans last 4 samples" 3.0 s.Telemetry.Window.w_seconds;
      Alcotest.(check int) "samples" 4 s.Telemetry.Window.w_samples;
      Alcotest.(check (float 1e-9))
        "rate from evicted-aware oldest" 5.0
        (List.assoc "reqs" s.Telemetry.Window.w_rates)

let test_window_needs_two_distinct_times () =
  let tele = Telemetry.create () in
  ignore (Telemetry.counter tele "c");
  let w = Telemetry.Window.create ~slots:4 ~interval_s:1.0 () in
  Telemetry.Window.observe w ~now:5.0 (Telemetry.snapshot tele);
  Alcotest.(check (option pass)) "one sample" None (Telemetry.Window.summary w);
  Telemetry.Window.observe w ~now:5.0 (Telemetry.snapshot tele);
  Alcotest.(check (option pass))
    "two samples, zero span" None (Telemetry.Window.summary w)

(* A backwards wall-clock step mid-measurement (NTP) must clamp to a
   zero duration, never subtract from the accumulated total. *)
let test_backwards_clock_clamps () =
  let readings = ref [ 100.0; 90.0; 90.0; 95.5 ] in
  Telemetry.set_clock
    (Some
       (fun () ->
         match !readings with
         | [] -> 95.5
         | r :: tl ->
             readings := tl;
             r));
  Fun.protect
    ~finally:(fun () -> Telemetry.set_clock None)
    (fun () ->
      let tele = Telemetry.create () in
      let s = Telemetry.span tele "work" in
      Telemetry.Span.time s (fun () -> ());  (* 100 -> 90: backwards *)
      Alcotest.(check int) "count still bumps" 1 (Telemetry.Span.count s);
      Alcotest.(check (float 0.)) "clamped to zero" 0.0 (Telemetry.Span.total s);
      Telemetry.Span.time s (fun () -> ());  (* 90 -> 95.5: normal *)
      Alcotest.(check (float 1e-9)) "forward still accumulates" 5.5
        (Telemetry.Span.total s))

let with_temp_journal f =
  let path = Filename.temp_file "obs_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Obs.Journal.rotated_path path ])
    (fun () ->
      (* temp_file creates it empty; Journal appends, which is the
         restart case — fine for these tests. *)
      f path)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* Rotation boundary: no record is lost or torn — every line of both
   generations parses, and the line counts sum to the records
   written. *)
let test_journal_rotation () =
  with_temp_journal @@ fun path ->
  let j = Obs.Journal.create ~max_bytes:256 path in
  let n = 40 in
  for i = 1 to n do
    Obs.Journal.record j
      (Json.Object [ ("kind", Json.String "tick"); ("seq", Json.int i) ])
  done;
  Obs.Journal.close j;
  Alcotest.(check bool)
    "rotated at least once: the retired generation exists" true
    (Sys.file_exists (Obs.Journal.rotated_path path));
  let live = read_lines path
  and retired = read_lines (Obs.Journal.rotated_path path) in
  (* Older rotations are overwritten: together the two generations
     hold a suffix of the stream ending at record n, in order. *)
  let seqs =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok js -> Option.get (Json.find_int "seq" js)
        | Error msg -> Alcotest.fail ("unparseable journal line: " ^ msg))
      (retired @ live)
  in
  let len = List.length seqs in
  Alcotest.(check bool) "kept a suffix" true (len > 0 && len <= n);
  List.iteri
    (fun i seq ->
      Alcotest.(check int) "contiguous suffix" (n - len + 1 + i) seq)
    seqs

let tick ts counters lat_count lat_buckets =
  Json.Object
    [ ("kind", Json.String "tick");
      ("ts", Json.Number ts);
      ( "telemetry",
        Json.Object
          [ ( "counters",
              Json.Object (List.map (fun (k, v) -> (k, Json.int v)) counters) );
            ( "histograms",
              Json.Object
                [ ( "serve_latency_us",
                    Json.Object
                      [ ("count", Json.int lat_count);
                        ( "buckets",
                          Json.Object
                            (List.map
                               (fun (le, n) -> (string_of_int le, Json.int n))
                               lat_buckets) )
                      ] )
                ] )
          ] )
    ]

(* A tick carries only what the test helper writes: counters and one
   histogram without sum or max.  Decoding keeps those readings and
   reads every missing member as empty. *)
let test_partial_tick_decodes () =
  let telemetry =
    match
      Json.find "telemetry"
        (tick 5. [ ("serve_requests", 7); ("serve_errors", 1) ] 3
           [ (16, 2); (256, 1) ])
    with
    | Some j -> j
    | None -> Alcotest.fail "tick helper lost its telemetry"
  in
  let snap = Telemetry.snapshot_of_json telemetry in
  Alcotest.(check (list (pair string int)))
    "counters kept"
    [ ("serve_errors", 1); ("serve_requests", 7) ]
    (Telemetry.counters snap);
  Alcotest.(check string)
    "missing members read as empty"
    (Json.to_string ~minify:true
       (Json.Object
          [ ( "counters",
              Json.Object
                [ ("serve_errors", Json.int 1); ("serve_requests", Json.int 7) ]
            );
            ("gauges", Json.Object []);
            ( "histograms",
              Json.Object
                [ ( "serve_latency_us",
                    Json.Object
                      [ ("count", Json.int 3);
                        ("sum", Json.int 0);
                        ("max", Json.int 0);
                        ( "buckets",
                          Json.Object
                            [ ("16", Json.int 2); ("256", Json.int 1) ] ) ] )
                ] );
            ("spans", Json.Object []) ]))
    (Json.to_string ~minify:true (Telemetry.to_json snap));
  Alcotest.(check bool)
    "no telemetry at all decodes as the empty snapshot" true
    (Util.empty_snapshot (Telemetry.snapshot_of_json Json.Null))

(* Replay across a rotation: cumulative ticks written through the
   rotating writer diff into one continuous window series — the file
   boundary is invisible in the reconstruction.  Rotation keeps only
   two generations, so with a small max_bytes a *prefix* of the ticks
   is gone; what survives is a contiguous suffix, and because the
   ticks are cumulative every adjacent surviving pair still diffs to
   the same rates and quantiles. *)
let test_replay_spans_rotation () =
  with_temp_journal @@ fun path ->
  let j = Obs.Journal.create ~max_bytes:600 path in
  Obs.Journal.record j
    (Json.Object
       [ ("kind", Json.String "start"); ("ts", Json.Number 1000.);
         ("pid", Json.int 1) ]);
  for i = 0 to 9 do
    Obs.Journal.record j
      (tick
         (1000. +. (10. *. float_of_int i))
         [ ("serve_requests", 20 * i); ("serve_errors", i) ]
         (20 * i)
         [ (256, 19 * i); (4096, i) ])
  done;
  Obs.Journal.record j
    (Json.Object
       [ ("kind", Json.String "shutdown"); ("ts", Json.Number 1090.);
         ("reason", Json.String "sigterm") ]);
  Obs.Journal.close j;
  Alcotest.(check bool)
    "rotation happened" true
    (Sys.file_exists (Obs.Journal.rotated_path path));
  match Obs.Replay.analyze path with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check bool)
        "a multi-tick suffix survives" true
        (r.Obs.Replay.ticks >= 2 && r.Obs.Replay.ticks <= 10);
      Alcotest.(check int)
        "one window per adjacent tick pair"
        (r.Obs.Replay.ticks - 1)
        (List.length r.Obs.Replay.windows);
      Alcotest.(check (option string))
        "shutdown reason" (Some "sigterm") r.Obs.Replay.shutdown;
      List.iter
        (fun w ->
          Alcotest.(check (float 1e-9)) "2 req/s" 2.0 w.Obs.Replay.r_requests;
          Alcotest.(check (float 1e-9)) "0.1 err/s" 0.1 w.Obs.Replay.r_errors;
          match w.Obs.Replay.r_lat with
          | None -> Alcotest.fail "latency quantiles missing"
          | Some q ->
              (* Per window: 19 observations in le=256, 1 in le=4096. *)
              Alcotest.(check int) "count" 20 q.Telemetry.Window.q_count;
              Alcotest.(check int) "p50" 256 q.Telemetry.Window.q_p50;
              Alcotest.(check int) "p99" 4096 q.Telemetry.Window.q_p99)
        r.Obs.Replay.windows

(* A torn final line (crash mid-write) is skipped and counted, and a
   counter that moves backwards (daemon restart into the same journal)
   degrades to the newer cumulative reading — never a negative rate. *)
let test_replay_torn_line_and_restart () =
  with_temp_journal @@ fun path ->
  let oc = open_out path in
  output_string oc
    (Json.to_string ~minify:true (tick 0. [ ("serve_requests", 50) ] 0 [])
    ^ "\n");
  output_string oc
    (Json.to_string ~minify:true (tick 10. [ ("serve_requests", 30) ] 0 [])
    ^ "\n");
  output_string oc "{\"kind\":\"tick\",\"ts\":20,\"telemetry\":{\"coun";
  close_out oc;
  match Obs.Replay.analyze path with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check int) "torn line skipped" 1 r.Obs.Replay.skipped;
      Alcotest.(check int) "two good ticks" 2 r.Obs.Replay.ticks;
      (match r.Obs.Replay.windows with
      | [ w ] ->
          Alcotest.(check (float 1e-9))
            "restart degrades to cumulative" 3.0 w.Obs.Replay.r_requests
      | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws))

let test_replay_missing_file () =
  match Obs.Replay.analyze "/nonexistent/journal.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing journal"

(* Slowlog correlation: entries carry a capture timestamp and, when a
   request context is set, the request id — both surfaced in JSON. *)
let test_slowlog_correlation () =
  let slog = Shex.Slowlog.create ~capacity:4 ~threshold_ms:0. () in
  Alcotest.(check (option int)) "no context" None (Shex.Slowlog.context slog);
  Shex.Slowlog.set_context slog (Some 42);
  let entry =
    { Shex.Slowlog.node = Rdf.Term.iri "http://example.org/n";
      label = Shex.Label.of_string "S";
      seconds = 0.25;
      at = 1234.5;
      request = Shex.Slowlog.context slog;
      conformant = true;
      explain = None;
      work = [] }
  in
  Shex.Slowlog.record slog entry;
  let js = Shex.Slowlog.entry_to_json entry in
  Alcotest.(check (option int)) "request id" (Some 42) (Json.find_int "request" js);
  (match Json.find "at" js with
  | Some (Json.Number t) -> Alcotest.(check (float 0.)) "at" 1234.5 t
  | _ -> Alcotest.fail "missing \"at\"");
  Shex.Slowlog.set_context slog None;
  Alcotest.(check (option int)) "context cleared" None (Shex.Slowlog.context slog)

let suites =
  [ ( "obs.window",
      [ Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
        Alcotest.test_case "ring wraparound" `Quick test_window_wraparound;
        Alcotest.test_case "summary needs two distinct samples" `Quick
          test_window_needs_two_distinct_times;
        Alcotest.test_case "backwards clock clamps" `Quick
          test_backwards_clock_clamps;
        QCheck_alcotest.to_alcotest prop_quantile_bucket_bound
      ] );
    ( "obs.journal",
      [ Alcotest.test_case "rotation keeps a parseable suffix" `Quick
          test_journal_rotation;
        Alcotest.test_case "partial tick decodes with missing members empty"
          `Quick test_partial_tick_decodes;
        Alcotest.test_case "replay spans the rotation boundary" `Quick
          test_replay_spans_rotation;
        Alcotest.test_case "torn line and restart degrade gracefully" `Quick
          test_replay_torn_line_and_restart;
        Alcotest.test_case "missing journal is an error" `Quick
          test_replay_missing_file;
        Alcotest.test_case "slowlog correlation fields" `Quick
          test_slowlog_correlation
      ] ) ]
