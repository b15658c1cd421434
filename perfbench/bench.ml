(* The measured process: [bench.exe WORKLOAD DIR SECONDS TRACE] reads the
   inputs [gen.exe] wrote into DIR, runs the workload through the same
   public functions the CLI and the --serve daemon call, checks every
   verdict against DIR/expect.txt and prints one JSON result line last.

   TRACE 0 measures the end-to-end metrics, with telemetry as the CLI
   (disabled) and the daemon (enabled) run it.  TRACE 1
   is the separate traced run: an untraced reference pass, then the same
   path again with each layer call wrapped in a stage timer (and enabled
   telemetry registries), then replays of the inner layers on the
   settled session; it prints the per-layer table and the per-layer
   metrics. *)

(* -- clock, allocation and memory readings ------------------------- *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, since t0)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1))))))

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.

(* -- stages of the traced run --------------------------------------- *)

(* A stage is one call (or a run of calls) into a layer's public
   functions, timed from outside.  Stages never nest, so the rows plus
   the residual add up to the traced wall time.  Off the traced run
   [stage] is the identity. *)
type row = { mutable seconds : float; mutable alloc_words : float }

let rows : (string * row) list ref = ref []
let tracing = ref false

let row name =
  match List.assoc_opt name !rows with
  | Some r -> r
  | None ->
      let r = { seconds = 0.; alloc_words = 0. } in
      rows := !rows @ [ (name, r) ];
      r

let stage name f =
  if not !tracing then f ()
  else begin
    let a0 = allocated_words () in
    let t0 = now () in
    let v = f () in
    let dt = since t0 in
    let r = row name in
    r.seconds <- r.seconds +. dt;
    r.alloc_words <- r.alloc_words +. (allocated_words () -. a0);
    v
  end

let registry () = if !tracing then Telemetry.create () else Telemetry.disabled

(* -- inputs ---------------------------------------------------------- *)

type expect = {
  conformant : (string, unit) Hashtbl.t;  (** "NODE LABEL" keys *)
  edits : (string * string list) list;
  queries : (string * bool) list;
}

let read_expect dir =
  let conformant = Hashtbl.create 4096 in
  let edits = ref [] and queries = ref [] in
  In_channel.with_open_text (Filename.concat dir "expect.txt") (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char ' ' line with
             | [ "conformant"; node; label ] ->
                 Hashtbl.replace conformant (node ^ " " ^ label) ()
             | "edit" :: target :: flips -> edits := (target, flips) :: !edits
             | [ "query"; node; v ] -> queries := (node, v = "1") :: !queries
             | _ -> ()));
  { conformant; edits = List.rev !edits; queries = List.rev !queries }

let key n l = Rdf.Term.to_string n ^ " " ^ Shex.Label.to_string l
let expected exp n l = Hashtbl.mem exp.conformant (key n l)

let term_of text =
  (* expect.txt writes IRIs in N-Triples form, <...> *)
  Rdf.Term.iri (String.sub text 1 (String.length text - 2))

let read_schema dir =
  let src = In_channel.with_open_bin (Filename.concat dir "schema.shex") In_channel.input_all in
  stage "shexc.parse" (fun () -> Shexc.Shexc_parser.parse_schema_exn src)

let parse_graph dir =
  stage "turtle.parse" (fun () ->
      match Turtle.Parse.parse_file (Filename.concat dir "data.nt") with
      | Ok d -> d.Turtle.Parse.graph
      | Error msg -> failwith msg)

let associations schema nodes =
  let labels = Shex.Schema.labels schema in
  List.concat_map (fun n -> List.map (fun l -> (n, l)) labels) nodes

(* Mismatches between a verdict function and the ground truth. *)
let mismatches exp verdict pairs =
  stage "harness.verify" (fun () ->
      List.fold_left
        (fun acc (n, l) -> if verdict n l = expected exp n l then acc else acc + 1)
        0 pairs)

(* -- results --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The host's speed drifts by tens of percent within minutes (shared
   vCPUs): one pass over the same input read 1.18-1.61 s across four
   consecutive runs.  So every end-to-end time is scaled to a reference
   speed: a fixed loop is timed right before and right after every
   set-up, pass or group of edits, and the section's seconds are
   multiplied by [calibration_ref] over the loop's mean time.

   The loop must not depend on the program under test, so it runs in a
   fresh child process ([bench.exe calibrate]) whose heap holds only the
   loop's own data: nothing the measured process has allocated or left
   behind can slow it.  It allocates like the workloads do (a string
   hash table and a list sort), which is why it follows their drift
   closely; an in-process loop that allocated nothing followed it
   poorly.  The run prints the loop's time before any input is read
   and once the inputs are loaded (the "calibration:" line), which
   steady.py compares: the ratio stays near 1. *)
(* About a reading's time on the host the benchmark was tuned on, so a
   scaled time reads close to seconds there. *)
let calibration_ref = 0.07

(* Three runs of the loop, the median reported: one preempted run does
   not move a reading. *)
let calibration_loop () =
  let once () =
    let t0 = now () in
    let h = Hashtbl.create 1024 in
    for i = 0 to 69_999 do
      Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
    done;
    ignore (List.sort compare (List.init 70_000 (fun i -> i * 7919 mod 100_003)));
    ignore (Hashtbl.length h);
    since t0
  in
  median (List.init 3 (fun _ -> once ()))

let calibrate () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "calibrate" |] in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string (String.trim line)
  | _ -> failwith "calibration loop failed"

(* Every loop reading, for the "calibration:" line. *)
let before_inputs_loops = ref []
let loaded_loops = ref []
let loaded_heap_mb = ref 0.

(* The latest loop reading. *)
let latest_loop = ref 0.

(* Collect the heap, then read the loop.  The full major cycle
   after the compaction sweeps what the compaction's own cycle freed;
   without it the process kept memory it no longer used and the peak
   RSS climbed from pass to pass (portal-report: 208 MB on the first
   pass, 374 MB by the fourth; with it, 214 MB throughout). *)
let collect () =
  Gc.compact ();
  Gc.full_major ();
  let c = calibrate () in
  latest_loop := c;
  loaded_loops := c :: !loaded_loops;
  let live = (Gc.quick_stat ()).Gc.heap_words in
  loaded_heap_mb := Float.max !loaded_heap_mb (float_of_int (live * (Sys.word_size / 8)) /. 1e6)

(* Seconds measured after loop reading [c0], at the reference speed;
   valid once the [collect] that follows them has read the loop again.
   The host's speed also jumps from one second to the next, so each
   section is scaled by its own pair of readings: over the same runs
   this spread less than scaling a whole phase by the median of its
   readings (pass means within 7 % against 10-26 %). *)
let scale c0 = 2. *. calibration_ref /. (c0 +. !latest_loop)

(* Before any input is read: the loop's reference reading. *)
let calibrate_before_inputs () =
  for _ = 1 to 3 do
    before_inputs_loops := calibrate () :: !before_inputs_loops
  done

let calibration_note () =
  Printf.sprintf
    "calibration: loop median %.6f s before the inputs are read (%d readings), %.6f s with them \
     loaded (%d readings, measured process's heap up to %.0f MB)"
    (median !before_inputs_loops)
    (List.length !before_inputs_loops)
    (median !loaded_loops)
    (List.length !loaded_loops)
    !loaded_heap_mb

(* Restart the kernel's RSS high-water mark, so the next reading covers
   only what follows. *)
let reset_peak () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* The last section's raw seconds, the loop reading before it and its
   peak RSS.  They are kept here rather than returned beside the value,
   so that nothing the caller still holds across the next [collect]
   keeps the section's result alive. *)
let last_section = ref (0., 0., 0.)

(* [f ()] from the heap the last [collect] left, timed, with the
   process's peak RSS during the call.  The caller drops what it no
   longer needs, calls [collect], then reads the section with
   [measured]. *)
let section f =
  let c0 = !latest_loop in
  reset_peak ();
  let t0 = now () in
  let v = f () in
  let dt = since t0 in
  last_section := (dt, c0, peak_rss_mb ());
  v

(* The last section's scaled seconds and peak RSS. *)
let measured () =
  let dt, c0, peak = !last_section in
  (dt *. scale c0, peak)

(* Set up three times, and up to five while the set-ups so far took
   under two seconds (short set-ups are the noisiest, long ones cost the
   run the most); keep the last state.  setup_s and the set-up's peak
   RSS are medians, so one unlucky set-up does not move them.  Each
   set-up starts from a collected heap that holds none of the earlier
   ones. *)
let repeated_setup setup =
  let times = ref [] and peaks = ref [] and last = ref None in
  let k = ref 0 and raw_total = ref 0. and more = ref true in
  collect ();
  while !more do
    incr k;
    let v = section setup in
    let raw, _, _ = !last_section in
    raw_total := !raw_total +. raw;
    more := !k < 3 || (!k < 5 && !raw_total < 2.);
    if not !more then last := Some v;
    collect ();
    let dt, peak = measured () in
    times := dt :: !times;
    peaks := peak :: !peaks
  done;
  (Option.get !last, median !times, median !peaks)

(* Repeat [pass] until [seconds] of pass time have been measured (on the
   clock, so a slow host does not lengthen the run), at least
   [min_passes] times; returns the scaled pass times.  [pass i] returns
   a thunk that verifies its verdicts outside the section and returns
   their number; the first pass may reuse the set-up state. *)
let passes ~seconds ~min_passes pass =
  let times = ref [] and peaks = ref [] and checks = ref 0 and i = ref 0 and raw_total = ref 0. in
  while !raw_total < seconds || !i < min_passes do
    let verify = section (fun () -> pass !i) in
    checks := !checks + verify ();
    collect ();
    let raw, _, _ = !last_section in
    raw_total := !raw_total +. raw;
    let dt, peak = measured () in
    times := dt :: !times;
    peaks := peak :: !peaks;
    incr i
  done;
  (!times, !checks, median !peaks)

let batch_metrics ~setup ~times ~checks ~peak =
  let _, setup_s, setup_peak = setup in
  (* The mean, not the median: a run holds only about ten passes, and
     their times fall in two close clusters (major-GC timing), between
     which a median jumps. *)
  [ m "setup_s" "s" setup_s;
    m "wall_s" "s" (sum times /. float_of_int (List.length times));
    m "checks_per_s" "1/s" (float_of_int checks /. sum times);
    m "peak_rss_mb" "MB" (Float.max setup_peak peak) ]

(* -- traced-run bookkeeping ----------------------------------------- *)

type counters = {
  evaluations : int;
  memo : int;
  deriv_steps : int;
  sorbe_updates : int;
  dfa_states : int;
  dfa_hit_ratio : float;
}

let counters_of session =
  let snap = Shex.Validate.metrics session in
  let c name = Option.value ~default:0 (Telemetry.find_counter snap name) in
  let hits = c "compiled_hits" and misses = c "compiled_misses" in
  { evaluations = c "fixpoint_iterations";
    memo = Shex.Validate.memo_size session;
    deriv_steps = c "deriv_steps";
    sorbe_updates = c "sorbe_counter_updates";
    dfa_states = c "compiled_states";
    dfa_hit_ratio =
      (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)) }

type matcher = Deriv of Shex.Rse.t | Sorbe of Shex.Sorbe.t | Dfa of Shex_automaton.Dfa.t

(* Replay the inner layers on a settled session: compile every shape
   (schema.compile), extract the neighbourhood of every pair
   (neigh.extract), then run one evaluation per pair with shape
   references answered from the settled verdicts (match.replay).
   Returns the number of pairs and directed triples replayed. *)
let replay session pairs =
  let schema = Shex.Validate.schema session in
  let compiled =
    stage "schema.compile" (fun () ->
        List.map
          (fun l ->
            let e = Shex.Schema.find_exn schema l in
            let m =
              match Shex.Validate.engine session with
              | Shex.Validate.Auto -> (
                  match Shex.Sorbe.of_rse e with
                  | Some s -> Sorbe s
                  | None -> Dfa (Shex_automaton.Dfa.compile e))
              | _ -> Deriv e
            in
            (l, m))
          (Shex.Schema.labels schema))
  in
  let extract =
    match Shex.Validate.columnar_store session with
    | Some c -> fun n -> Shex.Neigh.of_columnar ~include_inverse:false n c
    | None ->
        let g = Shex.Validate.graph session in
        fun n -> Shex.Neigh.of_node ~include_inverse:false n g
  in
  let hoods = stage "neigh.extract" (fun () -> List.map (fun (n, l) -> (n, l, extract n)) pairs) in
  let check_ref l o = Shex.Validate.check_bool session o l in
  stage "match.replay" (fun () ->
      List.iter
        (fun (n, l, dts) ->
          ignore
            (match List.assoc l compiled with
            | Deriv e -> Shex.Deriv.matches_dts ~check_ref n dts e
            | Sorbe s -> Shex.Sorbe.matches_dts ~check_ref n dts s
            | Dfa d -> Shex_automaton.Dfa.matches_dts ~check_ref d n dts))
        hoods);
  (List.length pairs, List.fold_left (fun acc (_, _, d) -> acc + List.length d) 0 hoods)

let stage_names =
  [ "shexc.parse"; "turtle.parse"; "ntriples.lex"; "columnar.intern"; "columnar.freeze";
    "validate.session"; "incremental.create"; "incremental.warm"; "schema.compile";
    "validate.verdict"; "report.typing"; "report.render"; "neigh.extract"; "match.replay";
    "incremental.apply"; "incremental.query"; "graph.edit"; "harness.verify"; "harness.gc" ]

let seconds_of name = match List.assoc_opt name !rows with Some r -> r.seconds | None -> 0.

(* Readings only some workloads produce; every workload reports them
   (0 where the layer is not on its path). *)
let report_bytes = ref 0
let edit_lat = ref []
let frontier = ref []
let query_time = ref 0.
let query_count = ref 0

(* The traced run: [reference ()] is the untraced path (set-up plus one
   unit of timed work, returning its wall time), [traced ()] the same
   path under stages, returning the settled session, its pairs and the
   counters read right after the verdicts settled; [replays ()] adds
   workload-specific replays before the common {!replay}.  Returns the
   per-layer metrics and table. *)
let traced_run ?(replays = ignore) ~workload ~reference ~traced () =
  (* The overhead compares two runs made seconds apart, so both are
     scaled by the calibration loop around them. *)
  collect ();
  let c0 = !latest_loop in
  let reference_s = reference () in
  collect ();
  let untraced_s = reference_s *. scale c0 in
  let c1 = !latest_loop in
  tracing := true;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let attempted, failed, session, pairs, c = traced () in
  let path_s = since t0 in
  stage "harness.gc" collect;
  let traced_s = path_s *. scale c1 in
  replays ();
  let replayed, dtriples = replay session pairs in
  let wall = since t0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  tracing := false;
  let stages_s = sum (List.map (fun (_, r) -> r.seconds) !rows) in
  let residual = wall -. stages_s in
  let per_eval =
    if replayed = 0 then 0.
    else (seconds_of "neigh.extract" +. seconds_of "match.replay") /. float_of_int replayed
  in
  let overhead = (traced_s /. untraced_s) -. 1. in
  let table = Buffer.create 2048 in
  Printf.bprintf table
    "per-layer table: %s  (traced wall %.4f s; traced path %.4f s vs untraced %.4f s)\n" workload
    wall path_s untraced_s;
  Printf.bprintf table "  %-22s %10s %7s %12s\n" "stage" "seconds" "share" "alloc Mw";
  List.iter
    (fun name ->
      match List.assoc_opt name !rows with
      | Some r ->
          Printf.bprintf table "  %-22s %10.4f %6.1f%% %12.3f\n" name r.seconds
            (100. *. r.seconds /. wall) (r.alloc_words /. 1e6)
      | None -> ())
    stage_names;
  Printf.bprintf table "  %-22s %10.4f %6.1f%%\n" "residual" residual (100. *. residual /. wall);
  Printf.bprintf table "  trace.overhead_frac %+.4f   gc.major_collections %d\n" overhead majors;
  Printf.bprintf table
    "  validate: %d evaluations over %d settled pairs; bookkeeping %.4f s; deriv steps %d, sorbe \
     updates %d, dfa states %d (hit ratio %.4f); %d directed triples replayed\n"
    c.evaluations c.memo
    (seconds_of "validate.verdict" -. (float_of_int c.evaluations *. per_eval))
    c.deriv_steps c.sorbe_updates c.dfa_states c.dfa_hit_ratio dtriples;
  let stage_metrics =
    List.concat_map
      (fun name ->
        let r = Option.value (List.assoc_opt name !rows) ~default:{ seconds = 0.; alloc_words = 0. } in
        [ m (name ^ "_s") "s" r.seconds; m (name ^ ".alloc_mw") "Mw" (r.alloc_words /. 1e6) ])
      stage_names
  in
  let metrics =
    stage_metrics
    @ [ m "columnar.terms" "count"
          (match Shex.Validate.columnar_store session with
          | Some store -> float_of_int (Rdf.Columnar.terms_cardinal store)
          | None -> 0.);
        m "neigh.dtriples" "count" (float_of_int dtriples);
        m "deriv.steps" "count" (float_of_int c.deriv_steps);
        m "sorbe.counter_updates" "count" (float_of_int c.sorbe_updates);
        m "dfa.states" "count" (float_of_int c.dfa_states);
        m "dfa.hit_ratio" "ratio" c.dfa_hit_ratio;
        m "validate.evaluations" "count" (float_of_int c.evaluations);
        m "validate.evals_per_pair" "ratio"
          (if c.memo = 0 then 0. else float_of_int c.evaluations /. float_of_int c.memo);
        m "validate.bookkeeping_s" "s"
          (seconds_of "validate.verdict" -. (float_of_int c.evaluations *. per_eval));
        m "gc.major_collections" "count" (float_of_int majors);
        m "trace.wall_s" "s" wall;
        m "residual_s" "s" residual;
        m "trace.overhead_frac" "ratio" overhead;
        m "report.bytes" "bytes" (float_of_int !report_bytes);
        m "incremental.frontier_pairs" "count"
          (sum !frontier /. float_of_int (max 1 (List.length !frontier)));
        m "edit_p50_us" "us" (1e6 *. median !edit_lat);
        m "edit_p99_us" "us" (1e6 *. quantile 0.99 !edit_lat);
        m "query_mean_us" "us" (1e6 *. !query_time /. float_of_int (max 1 !query_count)) ]
  in
  (attempted, failed, metrics, Buffer.contents table)

(* -- portal-report: the CLI whole-graph run -------------------------- *)

let portal_report dir ~seconds ~trace exp =
  (* What bin/shex_validate.ml does after loading, in whole-graph --json
     mode. *)
  let every_pair session graph =
    associations (Shex.Validate.schema session) (Rdf.Graph.nodes graph)
  in
  let report session assoc =
    let r = stage "report.typing" (fun () -> Shex.Report.run session assoc) in
    let text = stage "report.render" (fun () -> Json.to_string (Shex.Report.to_json r)) in
    report_bytes := String.length text;
    (assoc, r, text)
  in
  let verify assoc (r : Shex.Report.t) text =
    let bad =
      mismatches exp
        (let tbl = Hashtbl.create 4096 in
         List.iter
           (fun (e : Shex.Report.entry) ->
             Hashtbl.replace tbl (key e.node e.label) (e.status = Shex.Report.Conformant))
           r.entries;
         fun n l -> Option.value ~default:false (Hashtbl.find_opt tbl (key n l)))
        assoc
    in
    let count = List.length (Shex.Report.conformant r) in
    let rendered_ok =
      String.length text > 0 && count = Hashtbl.length exp.conformant
    in
    (List.length assoc, bad + if rendered_ok then 0 else 1)
  in
  let setup () =
    let schema = read_schema dir in
    let graph = parse_graph dir in
    let session =
      stage "validate.session" (fun () -> Shex.Validate.session ~telemetry:(registry ()) schema graph)
    in
    (schema, graph, session)
  in
  if trace then
    traced_run ~workload:"portal-report"
      ~reference:(fun () ->
        let (_, t) =
          time (fun () ->
              let _, graph, session = setup () in
              report session (every_pair session graph))
        in
        t)
      ~traced:(fun () ->
        let _, graph, session = setup () in
        let assoc =
          stage "validate.verdict" (fun () ->
              let assoc = every_pair session graph in
              List.iter (fun (n, l) -> ignore (Shex.Validate.check_bool session n l)) assoc;
              assoc)
        in
        let c = counters_of session in
        let assoc, r, text = report session assoc in
        let attempted, failed = verify assoc r text in
        (attempted, failed, session, assoc, c))
      ()
  else begin
    let ((schema, graph, session), _, _) as setup_r = repeated_setup setup in
    let attempted = ref 0 and failed = ref 0 in
    let times, checks, peak =
      passes ~seconds ~min_passes:3 (fun i ->
          let session = if i = 0 then session else Shex.Validate.session schema graph in
          let assoc, r, text = report session (every_pair session graph) in
          fun () ->
            let a, f = verify assoc r text in
            attempted := !attempted + a;
            failed := !failed + f;
            a)
    in
    (!attempted, !failed, batch_metrics ~setup:setup_r ~times ~checks ~peak, "")
  end

(* -- portal-bulk and wide-shapes: validate_graph -------------------- *)

let validate_graph_run ~replays ~workload ~setup ~fresh ~nodes ~seconds ~trace exp =
  let verify session typing =
    let pairs = associations (Shex.Validate.schema session) (nodes session) in
    (List.length pairs, mismatches exp (fun n l -> Shex.Typing.mem n l typing) pairs, pairs)
  in
  if trace then
    traced_run ~replays ~workload
      ~reference:(fun () ->
        snd (time (fun () -> Shex.Validate.validate_graph (setup ()))))
      ~traced:(fun () ->
        let session = setup () in
        let typing = stage "validate.verdict" (fun () -> Shex.Validate.validate_graph session) in
        let c = counters_of session in
        let attempted, failed, pairs = verify session typing in
        (attempted, failed, session, pairs, c))
      ()
  else begin
    let ((session, _, _) as setup_r) = repeated_setup setup in
    let attempted = ref 0 and failed = ref 0 in
    let times, checks, peak =
      passes ~seconds ~min_passes:3 (fun i ->
          let session = if i = 0 then session else fresh session in
          let typing = Shex.Validate.validate_graph session in
          fun () ->
            let a, f, _ = verify session typing in
            attempted := !attempted + a;
            failed := !failed + f;
            a)
    in
    (!attempted, !failed, batch_metrics ~setup:setup_r ~times ~checks ~peak, "")
  end

let portal_bulk dir =
  let data = Filename.concat dir "data.nt" in
  let setup () =
    let schema = read_schema dir in
    let store =
      if !tracing then begin
        (* Ntriples.load_file, split at its two layers. *)
        let b = Rdf.Columnar.builder () in
        stage "columnar.intern" (fun () ->
            match Turtle.Ntriples.fold_file data (fun () tr -> Rdf.Columnar.add_triple b tr) () with
            | Ok () -> ()
            | Error msg -> failwith msg);
        stage "columnar.freeze" (fun () -> Rdf.Columnar.freeze b)
      end
      else
        match Turtle.Ntriples.load_file data with Ok c -> c | Error msg -> failwith msg
    in
    stage "validate.session" (fun () ->
        Shex.Validate.session_columnar ~telemetry:(registry ()) schema store)
  in
  let fresh session =
    Shex.Validate.session_columnar (Shex.Validate.schema session)
      (Option.get (Shex.Validate.columnar_store session))
  in
  let nodes session = Rdf.Columnar.nodes (Option.get (Shex.Validate.columnar_store session)) in
  (* The lexer alone: a fold that keeps nothing. *)
  let replays () =
    stage "ntriples.lex" (fun () -> ignore (Turtle.Ntriples.fold_file data (fun () _ -> ()) ()))
  in
  validate_graph_run ~replays ~workload:"portal-bulk" ~setup ~fresh ~nodes

let wide_shapes dir =
  let setup () =
    let schema = read_schema dir in
    let graph = parse_graph dir in
    stage "validate.session" (fun () ->
        Shex.Validate.session ~engine:Shex.Validate.Auto ~telemetry:(registry ()) schema graph)
  in
  let fresh session =
    Shex.Validate.session ~engine:Shex.Validate.Auto (Shex.Validate.schema session)
      (Shex.Validate.graph session)
  in
  let nodes session = Rdf.Graph.nodes (Shex.Validate.graph session) in
  validate_graph_run ~replays:ignore ~workload:"wide-shapes" ~setup ~fresh ~nodes

(* -- portal-edits: the daemon steady state --------------------------- *)

(* No recorded daemon traffic exists to take the mix from, so it is
   set by a rule: queries and edits each take about half of a block.
   With the daemon's enabled registry one apply cost 104 us on average
   and one memo-hit query 1.08 us (traced run, seed 1), so 96 queries
   per edit.  Query targets are uniform over all persons, valid and
   invalid alike: no locality is assumed. *)
let queries_per_edit = 96
let pairs_per_block = 50
let blocks_per_group = 60

let foaf_name = Rdf.Iri.of_string_exn "http://xmlns.com/foaf/0.1/name"

let portal_edits dir ~seconds ~trace exp =
  let module S = Shex_incremental.Session in
  let setup () =
    let schema = read_schema dir in
    let graph = parse_graph dir in
    (* The daemon always runs with an enabled registry (bin/serve.ml), so
       the edit stream does too, traced or not. *)
    let inc =
      stage "incremental.create" (fun () -> S.create ~telemetry:(Telemetry.create ()) schema graph)
    in
    let person = List.hd (Shex.Schema.labels schema) in
    let persons = Rdf.Graph.subjects graph in
    stage "incremental.warm" (fun () ->
        List.iter (fun p -> ignore (S.check_bool inc p person)) persons);
    (inc, person, persons)
  in
  (* The edit stream's inputs, built from the loaded graph outside any
     timing: each target's name triples and the persons it flips. *)
  let prepare inc =
    let g = S.graph inc in
    let targets =
      Array.of_list
        (List.map
           (fun (t, flips) ->
             let p = term_of t in
             let names =
               List.map (fun o -> Rdf.Triple.make p foaf_name o) (Rdf.Graph.objects_of p foaf_name g)
             in
             let flipped = Hashtbl.create 8 in
             List.iter (fun f -> Hashtbl.replace flipped f ()) (t :: flips);
             (names, flipped))
           exp.edits)
    in
    let queries = Array.of_list (List.map (fun (q, v) -> (term_of q, q, v)) exp.queries) in
    (targets, queries)
  in
  let attempted = ref 0 and failed = ref 0 in
  (* One edit pair: delete the target's names, query, re-insert, query.
     Returns the seconds spent in the program. *)
  let edit_pair inc person (targets, queries) ~record i =
    let names, flipped = targets.(i mod Array.length targets) in
    let spent = ref 0. in
    let apply delta ~now_ok =
      let stats, dt = time (fun () -> stage "incremental.apply" (fun () -> S.apply inc delta)) in
      spent := !spent +. dt;
      if record then begin
        edit_lat := dt :: !edit_lat;
        frontier := float_of_int stats.S.frontier :: !frontier
      end;
      incr attempted;
      stage "harness.verify" (fun () ->
          let ok =
            List.length stats.S.changed = Hashtbl.length flipped
            && List.for_all
                 (fun (n, _, v) -> v = now_ok && Hashtbl.mem flipped (Rdf.Term.to_string n))
                 stats.S.changed
          in
          if not ok then incr failed)
    in
    let query ~deleted j =
      let base = j * queries_per_edit in
      let answers = Array.make queries_per_edit false in
      let (), dt =
        time (fun () ->
            stage "incremental.query" (fun () ->
                for k = 0 to queries_per_edit - 1 do
                  let q, _, _ = queries.((base + k) mod Array.length queries) in
                  answers.(k) <- S.check_bool inc q person
                done))
      in
      spent := !spent +. dt;
      if record then begin
        query_time := !query_time +. dt;
        query_count := !query_count + queries_per_edit
      end;
      attempted := !attempted + queries_per_edit;
      stage "harness.verify" (fun () ->
          for k = 0 to queries_per_edit - 1 do
            let _, text, v = queries.((base + k) mod Array.length queries) in
            let want = v && not (deleted && Hashtbl.mem flipped text) in
            if answers.(k) <> want then incr failed
          done)
    in
    apply (S.delete names) ~now_ok:false;
    query ~deleted:true (2 * i);
    apply (S.insert names) ~now_ok:true;
    query ~deleted:false ((2 * i) + 1);
    !spent
  in
  (* Every edit restores the graph, so the incremental verdicts must
     equal a from-scratch session's over the final graph. *)
  let final_check inc person persons =
    let fresh = Shex.Validate.session ~telemetry:(registry ()) (S.schema inc) (S.graph inc) in
    let verdicts =
      stage "validate.verdict" (fun () ->
          List.map (fun p -> Shex.Validate.check_bool fresh p person) persons)
    in
    let c = counters_of fresh in
    stage "harness.verify" (fun () ->
        List.iter2
          (fun p v ->
            incr attempted;
            if v <> S.check_bool inc p person || v <> expected exp p person then incr failed)
          persons verdicts);
    (fresh, c)
  in
  if trace then begin
    let unit_pairs = 500 in
    let run_unit inc person persons inputs ~record =
      for i = 0 to unit_pairs - 1 do
        ignore (edit_pair inc person inputs ~record i)
      done;
      final_check inc person persons
    in
    let graph_edit = ref ignore in
    traced_run ~workload:"portal-edits"
        ~replays:(fun () -> !graph_edit ())
        ~reference:(fun () ->
          let t0 = now () in
          let inc, person, persons = setup () in
          let t_setup = since t0 in
          let inputs = prepare inc in
          let t1 = now () in
          ignore (run_unit inc person persons inputs ~record:true);
          t_setup +. since t1)
        ~traced:(fun () ->
          let inc, person, persons = setup () in
          let inputs = stage "harness.verify" (fun () -> prepare inc) in
          let fresh, c = run_unit inc person persons inputs ~record:false in
          (* Rdf.Graph diff/union on the same deltas: the structural
             share of an apply. *)
          let targets, _ = inputs in
          (graph_edit :=
             fun () ->
               stage "graph.edit" (fun () ->
                   let g = ref (S.graph inc) in
                   for i = 0 to unit_pairs - 1 do
                     let names, _ = targets.(i mod Array.length targets) in
                     let delta = Rdf.Graph.of_list names in
                     g := Rdf.Graph.diff !g delta;
                     g := Rdf.Graph.union !g delta
                   done));
          (!attempted, !failed, fresh, List.map (fun p -> (p, person)) persons, c))
        ()
  end
  else begin
    let (inc, person, persons), setup_s, setup_peak = repeated_setup setup in
    let inputs = prepare inc in
    collect ();
    reset_peak ();
    (* Blocks are ~15 ms, so the heap is collected and the loop read
       between groups of them (~1 s) rather than around each one.  Like
       every batch pass, each group starts from a collected heap;
       otherwise the peak depends on where the major GC happens to be
       (it read 300 or 369 MB on otherwise equal runs). *)
    let blocks = ref [] and ops = ref 0 and i = ref 0 and raw_total = ref 0. in
    while !raw_total < seconds do
      let c0 = !latest_loop in
      let group =
        List.init blocks_per_group (fun _ ->
            let block = ref 0. in
            for _ = 1 to pairs_per_block do
              block := !block +. edit_pair inc person inputs ~record:true !i;
              incr i
            done;
            !block)
      in
      collect ();
      raw_total := !raw_total +. sum group;
      blocks := List.map (fun b -> b *. scale c0) group @ !blocks;
      ops := !ops + (blocks_per_group * pairs_per_block * 2 * (1 + queries_per_edit))
    done;
    let timed_peak = peak_rss_mb () in
    ignore (final_check inc person persons);
    let note =
      Printf.sprintf
        "portal-edits: %d edits, edit p50 %.1f us, p99 %.1f us (%d samples), query mean %.3f us, \
         mean frontier %.1f pairs"
        (List.length !edit_lat)
        (1e6 *. median !edit_lat)
        (1e6 *. quantile 0.99 !edit_lat)
        (List.length !edit_lat)
        (1e6 *. !query_time /. float_of_int !query_count)
        (sum !frontier /. float_of_int (List.length !frontier))
    in
    ( !attempted,
      !failed,
      [ m "setup_s" "s" setup_s;
        m "wall_s" "s" (median !blocks);
        m "checks_per_s" "1/s" (float_of_int !ops /. sum !blocks);
        m "peak_rss_mb" "MB" (Float.max setup_peak timed_peak) ],
      note )
  end

(* -- main ------------------------------------------------------------ *)

let json_result ~attempted ~failed metrics =
  let open Json in
  to_string ~minify:true
    (Object
       [ ("correct", Bool (failed = 0));
         ("attempted", Number (float_of_int attempted));
         ("failed", Number (float_of_int failed));
         ( "metrics",
           Object
             (List.map
                (fun mt -> (mt.name, Object [ ("value", Number mt.value); ("unit", String mt.unit_) ]))
                metrics) ) ])

let () =
  match Sys.argv with
  | [| _; "calibrate" |] -> Printf.printf "%.9f\n" (calibration_loop ())
  | [| _; workload; dir; seconds; trace |] ->
      let seconds = float_of_string seconds and trace = trace = "1" in
      calibrate_before_inputs ();
      let exp = read_expect dir in
      let run =
        match workload with
        | "portal-report" -> portal_report
        | "portal-bulk" -> portal_bulk
        | "wide-shapes" -> wide_shapes
        | "portal-edits" -> portal_edits
        | w ->
            Printf.eprintf "bench: unknown workload %s\n" w;
            exit 2
      in
      let attempted, failed, metrics, note = run dir ~seconds ~trace exp in
      if note <> "" then print_string (if String.ends_with ~suffix:"\n" note then note else note ^ "\n");
      print_endline (calibration_note ());
      print_endline (json_result ~attempted ~failed metrics)
  | _ ->
      prerr_endline "usage: bench WORKLOAD DIR SECONDS TRACE";
      exit 2
