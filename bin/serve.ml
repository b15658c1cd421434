(* Long-running validation daemon (shex-validate --serve).

   One JSON command per stdin line, one minified JSON response per
   stdout line:

     {"cmd":"load","schema":FILE[,"data":FILE]}   (re)load schema+data
     {"cmd":"insert","triples":TURTLE}            apply triple inserts
     {"cmd":"delete","triples":TURTLE}            apply triple deletes
     {"cmd":"query","node":IRI,"shape":LABEL}     one verdict
     {"cmd":"metrics"}                            telemetry snapshot + uptime
     {"cmd":"analyze"}                            static analysis of the
                                                  loaded schema (emptiness,
                                                  dead/unreachable rules)
     {"cmd":"analyze","compat":FILE}              containment check of the
                                                  loaded schema against a
                                                  proposed replacement
     {"cmd":"slowlog"[,"threshold_ms":N][,"clear":true]}
                                                  slow-validation ring buffer
     {"cmd":"shutdown"}                           exit 0

   Every JSON response carries a trailing "request" member — the
   daemon's monotonic request id, which is also stamped onto slowlog
   entries captured while that request ran, so a slow check in the
   flight recorder joins back to the exact response the client saw.
   (Plain "error: ..." lines stay bare: they are the pre-JSON failure
   surface and scripts grep them verbatim.)

   Edits go through an incremental session (Shex_incremental.Session):
   only the dependency frontier of each delta is re-solved, and
   insert/delete responses list the verdicts the delta flipped.  A
   malformed command answers a plain "error: ..." line and the loop
   keeps serving; EOF exits 0 like shutdown.

   The observability plane (all optional, all off by default):

   - [--obs-port N] binds a loopback HTTP listener answering GET
     /metrics /health /ready /slowlog /stats — the Prometheus scrape
     surface.  The daemon stays single-domain: the listening socket
     joins stdin in one [Unix.select] loop, so scrapes are answered
     between commands, never concurrently with validation.
   - a sliding window of telemetry snapshots is sampled every
     [--obs-interval] seconds (0 = after every loop wake, which makes
     tests deterministic without busy-waiting), deriving rolling
     per-counter rates and windowed latency quantiles.
   - [--journal FILE] appends one JSONL record per tick (cumulative
     telemetry, so offline replay diffs consecutive ticks), plus
     lifecycle events and slowlog spills, rotating at
     [--journal-max-kb].

   SIGTERM/SIGINT shut down gracefully: final tick, shutdown record,
   journal fsync, socket close, exit 0.  SIGPIPE is ignored so a
   scraper hanging up mid-response cannot kill the daemon. *)

exception Bad of string
exception Quit of Json.t

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type state = {
  engine : Shex.Validate.engine;
  tele : Telemetry.t;
  started : float;  (* Telemetry.now at daemon startup *)
  requests : Telemetry.Counter.t;
  errors : Telemetry.Counter.t;
  request_span : Telemetry.Span.t;
  latency : Telemetry.Histogram.t;  (* per-request wall µs, log2 buckets *)
  mutable request_id : int;  (* monotonic; echoed in every response *)
  mutable slow_ms : float option;
  mutable session : Shex_incremental.Session.t option;
}

(* The observability plane.  The window always exists (summaries stay
   [None] until ticks happen, so the disabled path is unchanged);
   listener and journal only when asked for. *)
type obs = {
  http : Obs.Http.t option;
  journal : Obs.Journal.t option;
  window : Telemetry.Window.t;
  interval : float;  (* 0 = tick on every loop wake, no timer *)
  mutable next_tick : float;
  mutable spilled : int;  (* Slowlog.seen high-water mark journaled *)
}

(* Set from signal handlers; checked at the top of every loop turn.
   Handlers must only flip the flag — the shutdown work (fsync, close)
   runs in the loop, not in signal context. *)
let stop_reason : string option ref = ref None

(* Load failures answer an "error: ..." line, like any bad command. *)
let or_bad = function Ok v -> v | Error msg -> raise (Bad msg)
let load_schema path = or_bad (Load.schema path)
let load_graph path = or_bad (Load.graph path)

(* Same convention as --shape: exact label or suffix match. *)
let resolve_label schema name = or_bad (Load.label schema name)

let require_session st =
  match st.session with
  | Some s -> s
  | None -> bad "no schema loaded (send {\"cmd\":\"load\",...} first)"

let make_session st schema graph =
  let session =
    Shex_incremental.Session.create ~engine:st.engine ~telemetry:st.tele
      schema graph
  in
  (* The slow-validation threshold survives reloads: a fresh inner
     Validate session starts without a slowlog, so re-arm it. *)
  Shex.Validate.set_slow_ms
    (Shex_incremental.Session.validation session)
    st.slow_ms;
  st.session <- Some session

(* The daemon's one read of its registry: through the session when a
   schema is loaded ({!Shex_incremental.Session.metrics}), the bare
   registry otherwise.  The metrics command, the window tick and the
   scrape all snapshot through here. *)
let snapshot st =
  match st.session with
  | Some session -> Shex_incremental.Session.metrics session
  | None -> Telemetry.snapshot st.tele

let slowlog_of st =
  match st.session with
  | None -> None
  | Some session ->
      Shex.Validate.slowlog (Shex_incremental.Session.validation session)

let require_string cmd key ~what =
  match Json.find_string key cmd with
  | Some v -> v
  | None -> bad "missing %S member (%s)" key what

let parse_triples text =
  match Turtle.Parse.parse_graph text with
  | Ok g -> Rdf.Graph.to_list g
  | Error msg -> bad "triples: %s" msg

let stats_json (stats : Shex_incremental.Session.stats) =
  Json.Object
    [ ("ok", Json.Bool true);
      ("applied", Json.int stats.applied);
      ("frontier", Json.int stats.frontier);
      ("resolved", Json.int stats.resolved);
      ( "changed",
        Json.Array
          (List.map
             (fun (n, l, conformant) ->
               Json.Object
                 [ ("node", Json.String (Rdf.Term.to_string n));
                   ("shape", Json.String (Shex.Label.to_string l));
                   ("conformant", Json.Bool conformant) ])
             stats.changed) ) ]

let handle st obs cmd =
  match Json.find_string "cmd" cmd with
  | None -> bad "missing \"cmd\" member"
  | Some "load" ->
      let schema = load_schema (require_string cmd "schema" ~what:"file path") in
      let graph =
        match Json.find_string "data" cmd with
        | None -> Rdf.Graph.empty
        | Some path -> load_graph path
      in
      make_session st schema graph;
      Json.Object
        [ ("ok", Json.Bool true);
          ("shapes", Json.int (List.length (Shex.Schema.labels schema)));
          ("triples", Json.int (Rdf.Graph.cardinal graph)) ]
  | Some (("insert" | "delete") as op) ->
      let session = require_session st in
      let triples =
        parse_triples (require_string cmd "triples" ~what:"Turtle text")
      in
      let delta =
        if op = "insert" then Shex_incremental.Session.insert triples
        else Shex_incremental.Session.delete triples
      in
      stats_json (Shex_incremental.Session.apply session delta)
  | Some "query" ->
      let session = require_session st in
      let node = Rdf.Term.iri (require_string cmd "node" ~what:"IRI") in
      let shape =
        resolve_label
          (Shex_incremental.Session.schema session)
          (require_string cmd "shape" ~what:"shape label")
      in
      Json.Object
        [ ("ok", Json.Bool true);
          ("node", Json.String (Rdf.Term.to_string node));
          ("shape", Json.String (Shex.Label.to_string shape));
          ( "conformant",
            Json.Bool (Shex_incremental.Session.check_bool session node shape)
          ) ]
  | Some "metrics" ->
      let snap = snapshot st in
      let gc = Gc.quick_stat () in
      Json.Object
        ([ ("ok", Json.Bool true);
           ( "uptime",
             Json.Object
               [ ("seconds", Json.Number (max 0. (Telemetry.now () -. st.started)));
                 ("requests", Json.int (Telemetry.Counter.value st.requests))
               ] );
           ( "resources",
             Json.Object
               [ ("heap_words", Json.int gc.Gc.heap_words);
                 ("minor_collections", Json.int gc.Gc.minor_collections);
                 ("major_collections", Json.int gc.Gc.major_collections) ] );
           ("metrics", Telemetry.to_json snap) ]
        @
        (* Windowed SLIs appear once the obs plane has sampled twice —
           never on a plain daemon, so goldens without --obs-* flags
           are unaffected. *)
        match Telemetry.Window.summary obs.window with
        | Some s -> [ ("window", Telemetry.Window.summary_to_json s) ]
        | None -> [])
  | Some "analyze" -> (
      let session = require_session st in
      let schema = Shex_incremental.Session.schema session in
      let labels ls =
        Json.Array (List.map (fun l -> Json.String (Shex.Label.to_string l)) ls)
      in
      match Json.find_string "compat" cmd with
      | Some path ->
          (* Containment of the *loaded* schema in a proposed
             replacement: "is this schema upgrade safe for the data
             already conforming here?" *)
          let proposed = load_schema path in
          let report = Analysis.check_compat ~tele:st.tele schema proposed in
          let item_json (it : Analysis.compat_item) =
            let verdict, detail =
              match it.Analysis.verdict with
              | Analysis.Contained -> ("contained", [])
              | Analysis.Refuted w ->
                  ( "refuted",
                    [ ("focus", Json.String (Rdf.Term.to_string w.Analysis.focus));
                      ( "counterexample_triples",
                        Json.int (Rdf.Graph.cardinal w.Analysis.graph) ) ] )
              | Analysis.Inconclusive m ->
                  ("inconclusive", [ ("detail", Json.String m) ])
            in
            Json.Object
              (( "shape",
                 Json.String (Shex.Label.to_string it.Analysis.label) )
              :: ("verdict", Json.String verdict)
              :: detail)
          in
          Json.Object
            [ ("ok", Json.Bool true);
              ("shapes", Json.Array (List.map item_json report.Analysis.items));
              ("removed", labels report.Analysis.removed);
              ("added", labels report.Analysis.added) ]
      | None ->
          let hyg = Analysis.hygiene ~tele:st.tele schema in
          let shape_json (l, verdict) =
            let satisfiable =
              match verdict with
              | Analysis.Satisfiable _ -> Json.Bool true
              | Analysis.Empty -> Json.Bool false
              | Analysis.Unknown m -> Json.String ("unknown: " ^ m)
            in
            Json.Object
              [ ("shape", Json.String (Shex.Label.to_string l));
                ("satisfiable", satisfiable);
                ( "unreachable",
                  Json.Bool
                    (List.exists (Shex.Label.equal l) hyg.Analysis.unreachable)
                ) ]
          in
          Json.Object
            [ ("ok", Json.Bool true);
              ("shapes", Json.Array (List.map shape_json hyg.Analysis.shapes));
              ("dead", labels hyg.Analysis.unsatisfiable);
              ("unreachable", labels hyg.Analysis.unreachable);
              ("roots", labels hyg.Analysis.roots) ])
  | Some "slowlog" ->
      let session = require_session st in
      let vs = Shex_incremental.Session.validation session in
      (match Json.find "threshold_ms" cmd with
      | Some (Json.Number ms) ->
          st.slow_ms <- Some ms;
          Shex.Validate.set_slow_ms vs (Some ms)
      | Some _ -> bad "\"threshold_ms\" must be a number (milliseconds)"
      | None -> ());
      (match Shex.Validate.slowlog vs with
      | None -> bad "slow-validation capture is off (start with --slow-ms \
                     or send {\"cmd\":\"slowlog\",\"threshold_ms\":N})"
      | Some slog ->
          let dump = Shex.Slowlog.to_json slog in
          (match Json.find "clear" cmd with
          | Some (Json.Bool true) -> Shex.Slowlog.clear slog
          | _ -> ());
          Json.Object [ ("ok", Json.Bool true); ("slowlog", dump) ])
  | Some "shutdown" -> raise (Quit (Json.Object [ ("ok", Json.Bool true) ]))
  | Some other ->
      bad "unknown command %S (known: load, insert, delete, query, \
           metrics, analyze, slowlog, shutdown)"
        other

let answer_line json = Printf.printf "%s\n%!" (Json.to_string ~minify:true json)

let with_request_id json rid =
  match json with
  | Json.Object kvs -> Json.Object (kvs @ [ ("request", Json.int rid) ])
  | other -> other

(* {2 The flight recorder} *)

let journal_record obs j =
  match obs.journal with None -> () | Some jn -> Obs.Journal.record jn j

let journal_event obs kind extra =
  journal_record obs
    (Json.Object
       (("kind", Json.String kind)
       :: ("ts", Json.Number (Telemetry.now ()))
       :: extra))

(* Spill slowlog entries recorded since the last spill.  [seen] only
   grows, so the high-water mark needs no ring bookkeeping; entries
   the ring already evicted between ticks are simply lost (the ring
   bounds live memory, the journal bounds disk — both by design). *)
let spill_slowlog st obs =
  if obs.journal <> None then
    match slowlog_of st with
    | None -> ()
    | Some slog ->
        let seen = Shex.Slowlog.seen slog in
        if seen > obs.spilled then begin
          let entries = Shex.Slowlog.entries slog in
          let fresh = min (seen - obs.spilled) (List.length entries) in
          let skip = List.length entries - fresh in
          List.iteri
            (fun i e ->
              if i >= skip then
                match Shex.Slowlog.entry_to_json e with
                | Json.Object kvs ->
                    journal_record obs
                      (Json.Object (("kind", Json.String "slow") :: kvs))
                | _ -> ())
            entries;
          obs.spilled <- seen
        end

(* One observability tick: sample the registry into the sliding
   window and append the cumulative snapshot to the journal.  Records
   are cumulative (not deltas) so replay survives rotation and daemon
   restarts into the same journal. *)
let tick st obs ~now =
  let snap = snapshot st in
  Telemetry.Window.observe obs.window ~now snap;
  journal_record obs
    (Json.Object
       [ ("kind", Json.String "tick");
         ("ts", Json.Number now);
         ("telemetry", Telemetry.to_json snap) ]);
  spill_slowlog st obs

let shutdown st obs reason =
  if obs.journal <> None || obs.http <> None then
    tick st obs ~now:(Telemetry.now ());
  journal_event obs "shutdown" [ ("reason", Json.String reason) ];
  (match obs.journal with None -> () | Some j -> Obs.Journal.close j);
  (match obs.http with None -> () | Some h -> Obs.Http.close h);
  exit 0

(* {2 The scrape surface} *)

let metrics_exposition st obs =
  let snap = snapshot st in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Telemetry.pp_text ppf snap;
  (match Telemetry.Window.summary obs.window with
  | Some s -> Telemetry.Window.pp_prometheus ppf s
  | None -> ());
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let route st obs path =
  match path with
  | "/health" -> Obs.Http.text "ok\n"
  | "/ready" ->
      if st.session <> None then Obs.Http.text "ready\n"
      else Obs.Http.text ~status:503 "no schema loaded\n"
  | "/metrics" -> Obs.Http.text (metrics_exposition st obs)
  | "/slowlog" ->
      Obs.Http.json
        (match slowlog_of st with
        | Some slog -> Shex.Slowlog.to_json slog
        | None -> Json.Object [ ("armed", Json.Bool false) ])
  | "/stats" ->
      Obs.Http.json
        (Json.Object
           [ ("uptime_s", Json.Number (max 0. (Telemetry.now () -. st.started)));
             ("requests", Json.int (Telemetry.Counter.value st.requests));
             ("errors", Json.int (Telemetry.Counter.value st.errors));
             ("slow_seen",
              Json.int
                (match slowlog_of st with
                | Some slog -> Shex.Slowlog.seen slog
                | None -> 0));
             ( "window",
               match Telemetry.Window.summary obs.window with
               | Some s -> Telemetry.Window.summary_to_json s
               | None -> Json.Null ) ])
  | _ -> Obs.Http.text ~status:404 "not found\n"

(* {2 The select loop}

   stdin must be read with [Unix.read] (not [In_channel]): buffered
   channel reads would steal bytes [select] then never reports,
   deadlocking the loop with complete commands parked in a buffer the
   loop cannot see.  A small line accumulator does the splitting. *)

type reader = {
  rbuf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  chunk : Bytes.t;
  mutable eof : bool;
  mutable discarding : bool;  (* inside an over-long line *)
}

(* A longer command line is answered "error: line too long" and dropped
   up to its newline, so one client cannot grow the daemon without
   bound. *)
let max_line = 16 * 1024 * 1024

type input = Line of string | Too_long

let make_reader () =
  { rbuf = Buffer.create 512; chunk = Bytes.create 65536; eof = false;
    discarding = false }

(* Read once (the fd just selected readable) and return the completed
   lines, keeping any trailing partial line buffered.  Only the new
   bytes are scanned for '\n', so a line costs time linear in its
   length however many reads it spans.  At EOF a non-empty partial
   counts as a final line. *)
let reader_drain r fd =
  match Unix.read fd r.chunk 0 (Bytes.length r.chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> []
  | 0 ->
      r.eof <- true;
      let rest = Buffer.contents r.rbuf in
      Buffer.clear r.rbuf;
      if rest = "" then [] else [ Line rest ]
  | n ->
      let inputs = ref [] in
      (* Append chunk[start, stop) to the pending line. *)
      let append start stop =
        if r.discarding then ()
        else if Buffer.length r.rbuf + (stop - start) > max_line then begin
          Buffer.reset r.rbuf;
          r.discarding <- true;
          inputs := Too_long :: !inputs
        end
        else Buffer.add_subbytes r.rbuf r.chunk start (stop - start)
      in
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get r.chunk i = '\n' then begin
          append !start i;
          if not r.discarding then
            inputs := Line (Buffer.contents r.rbuf) :: !inputs;
          Buffer.clear r.rbuf;
          r.discarding <- false;
          start := i + 1
        end
      done;
      append !start n;
      List.rev !inputs

let process_line st obs input =
  Telemetry.Counter.incr st.requests;
  st.request_id <- st.request_id + 1;
  let rid = st.request_id in
  (match slowlog_of st with
  | Some slog -> Shex.Slowlog.set_context slog (Some rid)
  | None -> ());
  let t0 = Telemetry.now () in
  let result, quit =
    match input with
    | Too_long -> (Error "line too long", false)
    | Line line -> (
        match Json.of_string line with
        | Error msg -> (Error ("parse: " ^ msg), false)
        | Ok cmd -> (
            match handle st obs cmd with
            | json -> (Ok json, false)
            | exception Quit json -> (Ok json, true)
            | exception Bad msg -> (Error msg, false)
            | exception (Sys_error msg | Failure msg | Invalid_argument msg) ->
                (Error msg, false)))
  in
  let dt = max 0. (Telemetry.now () -. t0) in
  Telemetry.Span.record st.request_span dt;
  Telemetry.Histogram.observe st.latency (int_of_float (dt *. 1e6));
  (* A load replaces the session (and its slowlog): re-stamp so checks
     of later requests carry their own id, not a stale one. *)
  (match slowlog_of st with
  | Some slog -> Shex.Slowlog.set_context slog None
  | None -> ());
  (match result with
  | Ok json -> answer_line (with_request_id json rid)
  | Error msg ->
      Telemetry.Counter.incr st.errors;
      Printf.printf "error: %s\n%!" msg);
  if quit then shutdown st obs "shutdown"

let rec loop st obs reader =
  (match !stop_reason with
  | Some reason -> shutdown st obs reason
  | None -> ());
  let now = Telemetry.now () in
  (* Timer-driven ticks only for a positive interval; interval 0 ticks
     after every wake (below), so an idle daemon blocks instead of
     spinning. *)
  if obs.interval > 0. && now >= obs.next_tick then begin
    tick st obs ~now;
    obs.next_tick <- now +. obs.interval
  end;
  let timeout =
    if obs.interval > 0. then max 0.01 (obs.next_tick -. Telemetry.now ())
    else -1.  (* block until input *)
  in
  let read_fds =
    (if reader.eof then [] else [ Unix.stdin ])
    @ (match obs.http with Some h -> [ Obs.Http.fd h ] | None -> [])
  in
  if read_fds = [] && obs.interval <= 0. then shutdown st obs "eof";
  (match Unix.select read_fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      (match obs.http with
      | Some h when List.mem (Obs.Http.fd h) readable ->
          Obs.Http.serve_ready h (route st obs)
      | _ -> ());
      if List.mem Unix.stdin readable then begin
        let lines = reader_drain reader Unix.stdin in
        List.iter
          (function
            | Line line when String.trim line = "" -> ()
            | input -> process_line st obs input)
          lines;
        if reader.eof && obs.http = None && obs.journal = None then
          (* Plain daemon: EOF ends the conversation, like before the
             obs plane existed. *)
          shutdown st obs "eof"
        else if reader.eof then
          (* Obs daemon: record the drained state, then keep serving
             scrapes until a signal — the Prometheus deployment mode,
             where stdin is a held-open pipe or /dev/null. *)
          journal_event obs "stdin_eof" []
      end;
      if obs.interval = 0. && (obs.http <> None || obs.journal <> None) then
        tick st obs ~now:(Telemetry.now ()));
  loop st obs reader

let run ?schema_path ?data_path ?slow_ms ?obs_port ?(obs_interval = 10.)
    ?journal_path ?journal_max_bytes ~engine () =
  let tele = Telemetry.create () in
  let st =
    { engine; tele; started = Telemetry.now ();
      requests = Telemetry.counter tele "serve_requests";
      errors = Telemetry.counter tele "serve_errors";
      request_span = Telemetry.span tele "serve_request";
      latency =
        Telemetry.histogram tele
          ~help:"serve request wall time (microseconds)" "serve_latency_us";
      request_id = 0; slow_ms; session = None }
  in
  let http =
    match obs_port with
    | None -> None
    | Some port ->
        let h = Obs.Http.create ~port () in
        (* Stderr, so protocol stdout stays clean; tests read the
           resolved port (0 = kernel-assigned) from this line. *)
        Printf.eprintf "obs: listening on http://127.0.0.1:%d\n%!"
          (Obs.Http.port h);
        Some h
  in
  let journal =
    match journal_path with
    | None -> None
    | Some path -> Some (Obs.Journal.create ?max_bytes:journal_max_bytes path)
  in
  let obs =
    { http; journal;
      window = Telemetry.Window.create ~interval_s:obs_interval ();
      interval = obs_interval;
      next_tick = Telemetry.now () +. obs_interval;
      spilled = 0 }
  in
  if http <> None || journal <> None then begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    journal_event obs "start"
      ([ ("pid", Json.int (Unix.getpid ())) ]
      @ match http with
        | Some h -> [ ("port", Json.int (Obs.Http.port h)) ]
        | None -> [])
  end;
  (* Graceful shutdown on the signals a supervisor sends.  Installed
     unconditionally: a plain daemon also deserves exit 0 on SIGTERM. *)
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> stop_reason := Some "sigterm"));
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> stop_reason := Some "sigint"));
  (* Startup --schema/--data failures are fatal (exit 2 through the
     CLI's usual error path), unlike in-protocol load errors. *)
  (try
     match schema_path with
     | None -> ()
     | Some path ->
         let schema = load_schema path in
         let graph =
           match data_path with
           | None -> Rdf.Graph.empty
           | Some data -> load_graph data
         in
         make_session st schema graph
   with Bad msg -> failwith msg);
  (* Baseline tick: gives replay a t₀ sample so the very first window
     covers daemon start → first interval. *)
  if http <> None || journal <> None then tick st obs ~now:(Telemetry.now ());
  loop st obs (make_reader ())
