(* Offline analysis of a flight-recorder journal: re-derive the
   rate/latency time series the live window would have shown, from the
   cumulative per-tick telemetry snapshots on disk.  The journal's
   tick records are cumulative-since-boot precisely so that this works
   across a rotation boundary — diffing consecutive ticks needs no
   per-generation baseline, only record order. *)

type window_row = {
  r_ts : float;
  r_seconds : float;
  r_requests : float;
  r_errors : float;
  r_rates : (string * float) list;
  r_lat : Telemetry.Window.quantiles option;
}

type report = {
  files : string list;
  lines : int;
  skipped : int;
  ticks : int;
  events : (string * int) list;
  started : float option;
  shutdown : string option;
  windows : window_row list;
}

(* One journal line.  Anything that is not a JSON object with a "kind"
   is counted as skipped rather than failing the replay: a torn final
   line after a crash or power cut is an expected artifact. *)
let parse_line line =
  let line = String.trim line in
  if line = "" then None
  else
    match Json.of_string line with
    | Ok (Json.Object _ as j) when Json.find "kind" j <> None -> Some j
    | Ok _ | Error _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc lines skipped =
        match input_line ic with
        | exception End_of_file -> (List.rev acc, lines, skipped)
        | line -> (
            match parse_line line with
            | Some j -> go (j :: acc) (lines + 1) skipped
            | None ->
                let skipped =
                  if String.trim line = "" then skipped else skipped + 1
                in
                go acc (lines + 1) skipped)
      in
      go [] 0 0)

let find_float key j =
  match Json.find key j with Some (Json.Number f) -> Some f | _ -> None

(* One tick as a timestamped snapshot, decoded once.  A tick without a
   "telemetry" member decodes as the empty snapshot. *)
let tick_sample tick =
  ( find_float "ts" tick,
    Telemetry.snapshot_of_json
      (Option.value ~default:Json.Null (Json.find "telemetry" tick)) )

(* Two consecutive ticks summarised as one window row by the live
   window's own code.  A cumulative reading below its predecessor means
   the daemon restarted between the ticks (same journal file, new
   process); {!Telemetry.diff} then reports the newer reading. *)
let window_row (ts0, s0) (ts1, s1) =
  let t0 = Option.value ~default:0. ts0 in
  let t1 = Option.value ~default:t0 ts1 in
  Option.map
    (fun (w : Telemetry.Window.summary) ->
      let rate name =
        Option.value ~default:0. (List.assoc_opt name w.w_rates)
      in
      { r_ts = t1;
        r_seconds = w.w_seconds;
        r_requests = rate "serve_requests";
        r_errors = rate "serve_errors";
        r_rates = w.w_rates;
        r_lat = List.assoc_opt "serve_latency_us" w.w_quantiles
      })
    (Telemetry.Window.between (t0, s0) (t1, s1))

let analyze path =
  let rotated = Journal.rotated_path path in
  let files =
    (if Sys.file_exists rotated then [ rotated ] else []) @ [ path ]
  in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "journal not found: %s" path)
  else
    let records, lines, skipped =
      List.fold_left
        (fun (acc, lines, skipped) f ->
          let r, l, s = read_file f in
          (acc @ r, lines + l, skipped + s))
        ([], 0, 0) files
    in
    let kind j = Option.value ~default:"?" (Json.find_string "kind" j) in
    let ticks = List.filter (fun j -> kind j = "tick") records in
    let events =
      List.fold_left
        (fun acc j ->
          let k = kind j in
          if k = "tick" then acc
          else
            match List.assoc_opt k acc with
            | Some n -> (k, n + 1) :: List.remove_assoc k acc
            | None -> (k, 1) :: acc)
        [] records
      |> List.rev
    in
    let started =
      List.find_map
        (fun j -> if kind j = "start" then find_float "ts" j else None)
        records
    in
    let shutdown =
      (* Last shutdown record wins: a restarted daemon appends to the
         same journal, and the question is how the final run ended. *)
      List.fold_left
        (fun acc j ->
          if kind j = "shutdown" then
            match Json.find_string "reason" j with Some r -> Some r | None -> acc
          else acc)
        None records
    in
    let windows =
      let rec go acc = function
        | a :: (b :: _ as rest) -> (
            match window_row a b with
            | Some row -> go (row :: acc) rest
            | None -> go acc rest)
        | _ -> List.rev acc
      in
      go [] (List.map tick_sample ticks)
    in
    Ok
      { files;
        lines;
        skipped;
        ticks = List.length ticks;
        events;
        started;
        shutdown;
        windows
      }

let row_to_json r =
  Json.Object
    ([ ("ts", Json.Number r.r_ts);
       ("seconds", Json.Number r.r_seconds);
       ("requests_per_s", Json.Number r.r_requests);
       ("errors_per_s", Json.Number r.r_errors);
       ("rates", Json.Object (List.map (fun (n, v) -> (n, Json.Number v)) r.r_rates))
     ]
    @
    match r.r_lat with
    | None -> []
    | Some q ->
        [ ( "latency_us",
            Json.Object
              [ ("count", Json.int q.Telemetry.Window.q_count);
                ("p50", Json.int q.q_p50);
                ("p99", Json.int q.q_p99)
              ] )
        ])

let to_json r =
  Json.Object
    [ ("files", Json.Array (List.map (fun f -> Json.String f) r.files));
      ("lines", Json.int r.lines);
      ("skipped", Json.int r.skipped);
      ("ticks", Json.int r.ticks);
      ( "events",
        Json.Object (List.map (fun (k, n) -> (k, Json.int n)) r.events) );
      ( "started",
        match r.started with Some t -> Json.Number t | None -> Json.Null );
      ( "shutdown",
        match r.shutdown with Some s -> Json.String s | None -> Json.Null );
      ("windows", Json.Array (List.map row_to_json r.windows))
    ]

let pp ppf r =
  Format.fprintf ppf "journal: %s@." (String.concat " + " r.files);
  Format.fprintf ppf "records: %d lines, %d ticks, %d skipped@." r.lines
    r.ticks r.skipped;
  List.iter (fun (k, n) -> Format.fprintf ppf "events: %s x%d@." k n) r.events;
  (match r.shutdown with
  | Some reason -> Format.fprintf ppf "shutdown: %s@." reason
  | None -> Format.fprintf ppf "shutdown: (none recorded)@.");
  if r.windows = [] then
    Format.fprintf ppf "windows: none (need two ticks)@."
  else begin
    Format.fprintf ppf "@.%10s %8s %9s %9s %8s %8s %8s@." "t+s" "dt_s"
      "req/s" "err/s" "checks" "p50_us" "p99_us";
    let t_start =
      match (r.started, r.windows) with
      | Some t, _ -> t
      | None, w :: _ -> w.r_ts -. w.r_seconds
      | None, [] -> 0.
    in
    List.iter
      (fun w ->
        let lat_cells =
          match w.r_lat with
          | Some q ->
              Printf.sprintf "%8d %8d %8d" q.Telemetry.Window.q_count q.q_p50
                q.q_p99
          | None -> Printf.sprintf "%8s %8s %8s" "-" "-" "-"
        in
        Format.fprintf ppf "%10.1f %8.2f %9.1f %9.1f %s@." (w.r_ts -. t_start)
          w.r_seconds w.r_requests w.r_errors lat_cells)
      r.windows
  end
