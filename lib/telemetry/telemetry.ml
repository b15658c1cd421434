(* The wall clock every instrument reads.  Overridable ([set_clock])
   so tests can inject a stepping — or backwards-stepping — clock;
   production always runs on [Unix.gettimeofday], which is NOT
   monotonic: an NTP step can move it backwards, so every consumer
   below clamps negative deltas to zero rather than corrupting its
   accumulated totals. *)
let wall_clock : (unit -> float) ref = ref Unix.gettimeofday

let now () = !wall_clock ()

let set_clock = function
  | Some f -> wall_clock := f
  | None -> wall_clock := Unix.gettimeofday

module Counter = struct
  type kind = Monotonic | Gauge

  type t = { name : string; kind : kind; mutable v : int; active : bool }

  let incr c = if c.active then c.v <- c.v + 1
  let add c n = if c.active then c.v <- c.v + n
  let set c n = if c.active then c.v <- n
  let value c = c.v
  let name c = c.name
  let active c = c.active
end

module Histogram = struct
  (* Fixed log2 buckets: counts.(i) holds observations v with
     2^(i-1) < v <= 2^i (i = 0 collects v <= 1); the last slot is the
     overflow bucket for v > 2^30.  Rendering accumulates, so the
     stored representation stays one increment per observation. *)
  let n_buckets = 32

  type t = {
    name : string;
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable max : int;
    active : bool;
  }

  let bucket_index v =
    if v <= 1 then 0
    else
      let rec go i le = if v <= le || i = n_buckets - 1 then i else go (i + 1) (le * 2) in
      go 0 1

  let observe h v =
    if h.active then begin
      (* Observations can legitimately be zero (an empty neighbourhood)
         or negative (a duration rounded down past a clock step, a
         sub-microsecond interval truncated to 0 then offset): clamp to
         the first bucket so [sum]/[max] stay consistent with the
         bucket counts instead of drifting negative. *)
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      h.counts.(i) <- h.counts.(i) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum + v;
      if v > h.max then h.max <- v
    end

  let count h = h.count
  let sum h = h.sum
  let max_value h = h.max
end

module Span = struct
  type t = {
    name : string;
    mutable count : int;
    mutable total : float;
    active : bool;
  }

  let time s f =
    if not s.active then f ()
    else begin
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          (* Clamp: gettimeofday is wall time, and a clock step during
             the section would otherwise subtract from the total. *)
          let dt = now () -. t0 in
          s.total <- s.total +. (if dt < 0. then 0. else dt);
          s.count <- s.count + 1)
        f
    end

  (* Manual accounting for callers that already hold a measured
     duration (per-shape attribution records one wall reading into two
     spans; timing twice would double the clock cost). *)
  let record s dt =
    if s.active then begin
      s.total <- s.total +. (if dt < 0. then 0. else dt);
      s.count <- s.count + 1
    end

  let count s = s.count
  let total s = s.total
end

type value = Int of int | Float of float | Bool of bool | String of string

type phase = Span_begin | Span_end | Instant

type event = { name : string; phase : phase; fields : (string * value) list }

let instant name fields = { name; phase = Instant; fields }
let span_begin name fields = { name; phase = Span_begin; fields }
let span_end name fields = { name; phase = Span_end; fields }

(* A labelled family: one logical metric fanned out over a string
   label (the Prometheus {key="label"} dimension).  The registry keeps
   the per-label cells; the family handle hands them out get-or-create
   so hot paths resolve a label once and then pay the same
   single-branch cost as a plain instrument. *)
type 'a cells = { lc_key : string; lc_tbl : (string, 'a) Hashtbl.t }

type 'a family = { f_on : bool; f_cells : 'a cells; f_make : string -> 'a }

type t = {
  on : bool;
  counters : (string, Counter.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  spans : (string, Span.t) Hashtbl.t;
  lcounters : (string, Counter.t cells) Hashtbl.t;
  lhistograms : (string, Histogram.t cells) Hashtbl.t;
  lspans : (string, Span.t cells) Hashtbl.t;
  help : (string, string) Hashtbl.t;
  mutable sink : (event -> unit) option;
  mutable residuals : bool;
}

let make on =
  {
    on;
    counters = Hashtbl.create 16;
    histograms = Hashtbl.create 8;
    spans = Hashtbl.create 8;
    lcounters = Hashtbl.create 8;
    lhistograms = Hashtbl.create 4;
    lspans = Hashtbl.create 4;
    help = Hashtbl.create 16;
    sink = None;
    residuals = false;
  }

let create () = make true
let disabled = make false
let enabled t = t.on

let set_help t name = function
  | Some h when t.on && not (Hashtbl.mem t.help name) ->
      Hashtbl.replace t.help name h
  | Some _ | None -> ()

(* Get-or-create.  A disabled registry hands out inert instruments
   without registering them, so the shared [disabled] registry never
   accumulates state. *)
let make_counter t kind ?help name =
  set_help t name help;
  if not t.on then { Counter.name; kind; v = 0; active = false }
  else
    match Hashtbl.find_opt t.counters name with
    | Some c -> c
    | None ->
        let c = { Counter.name; kind; v = 0; active = true } in
        Hashtbl.replace t.counters name c;
        c

let counter t ?help name = make_counter t Counter.Monotonic ?help name
let gauge t ?help name = make_counter t Counter.Gauge ?help name

let fresh_histogram name active =
  { Histogram.name; counts = Array.make Histogram.n_buckets 0;
    count = 0; sum = 0; max = 0; active }

let histogram t ?help name =
  set_help t name help;
  if not t.on then fresh_histogram name false
  else
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = fresh_histogram name true in
        Hashtbl.replace t.histograms name h;
        h

let fresh_span name active = { Span.name; count = 0; total = 0.; active }

let span t ?help name =
  set_help t name help;
  if not t.on then fresh_span name false
  else
    match Hashtbl.find_opt t.spans name with
    | Some s -> s
    | None ->
        let s = fresh_span name true in
        Hashtbl.replace t.spans name s;
        s

(* ------------------------------------------------------------------ *)
(* Labelled families                                                  *)
(* ------------------------------------------------------------------ *)

let family tbl t ~key name make =
  if not t.on then
    { f_on = false;
      f_cells = { lc_key = key; lc_tbl = Hashtbl.create 1 };
      f_make = make }
  else
    let cells =
      match Hashtbl.find_opt tbl name with
      | Some c -> c
      | None ->
          let c = { lc_key = key; lc_tbl = Hashtbl.create 16 } in
          Hashtbl.replace tbl name c;
          c
    in
    { f_on = true; f_cells = cells; f_make = make }

let counter_family t ?help ~key name =
  set_help t name help;
  family t.lcounters t ~key name (fun _label ->
      { Counter.name; kind = Counter.Monotonic; v = 0; active = t.on })

let histogram_family t ?help ~key name =
  set_help t name help;
  family t.lhistograms t ~key name (fun _label -> fresh_histogram name t.on)

let span_family t ?help ~key name =
  set_help t name help;
  family t.lspans t ~key name (fun _label -> fresh_span name t.on)

(* Get-or-create a label's cell.  On a disabled family the fresh inert
   cell is not cached, so the shared [disabled] registry stays empty
   no matter how many labels flow past it. *)
let labelled f label =
  if not f.f_on then f.f_make label
  else
    match Hashtbl.find_opt f.f_cells.lc_tbl label with
    | Some i -> i
    | None ->
        let i = f.f_make label in
        Hashtbl.replace f.f_cells.lc_tbl label i;
        i

(* ------------------------------------------------------------------ *)
(* Merging                                                            *)
(* ------------------------------------------------------------------ *)

let merge_histo ~(into : Histogram.t) (src : Histogram.t) =
  Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) src.counts;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.max > into.max then into.max <- src.max

let merge_span ~(into : Span.t) (src : Span.t) =
  into.count <- into.count + src.count;
  into.total <- into.total +. src.total

(* Fold one registry into another after a fork/join: counters and
   gauges add (a gauge reading such as compiled_states is a resource
   count in the merged world, so summing per-domain readings is the
   lossless combination), histograms add bucket-by-bucket with the
   max of maxima, spans add counts and totals.  Instruments missing
   on either side are created on [into], so no observation is lost.
   Labelled families merge per label with the same rules. *)
let merge ~into src =
  if into.on && src.on then begin
    Hashtbl.iter
      (fun name (c : Counter.t) ->
        let dst = make_counter into c.kind name in
        Counter.add dst c.v)
      src.counters;
    Hashtbl.iter
      (fun name (h : Histogram.t) -> merge_histo ~into:(histogram into name) h)
      src.histograms;
    Hashtbl.iter
      (fun name (s : Span.t) -> merge_span ~into:(span into name) s)
      src.spans;
    Hashtbl.iter
      (fun name cells ->
        let dst = counter_family into ~key:cells.lc_key name in
        Hashtbl.iter
          (fun label (c : Counter.t) -> Counter.add (labelled dst label) c.v)
          cells.lc_tbl)
      src.lcounters;
    Hashtbl.iter
      (fun name cells ->
        let dst = histogram_family into ~key:cells.lc_key name in
        Hashtbl.iter
          (fun label h -> merge_histo ~into:(labelled dst label) h)
          cells.lc_tbl)
      src.lhistograms;
    Hashtbl.iter
      (fun name cells ->
        let dst = span_family into ~key:cells.lc_key name in
        Hashtbl.iter
          (fun label s -> merge_span ~into:(labelled dst label) s)
          cells.lc_tbl)
      src.lspans;
    Hashtbl.iter
      (fun name h ->
        if not (Hashtbl.mem into.help name) then Hashtbl.replace into.help name h)
      src.help
  end

(* Zero every instrument in place, keeping registrations (and any
   installed sink): instruments already resolved by running sessions
   stay live, so a long-running server can reset between requests
   without re-creating its sessions.  Counters and gauges drop to 0,
   histograms forget their buckets, spans their totals.  Labelled
   cells are zeroed but keep their label registrations for the same
   reason. *)
let reset t =
  if t.on then begin
    let zero_counter (c : Counter.t) = c.v <- 0 in
    let zero_histo (h : Histogram.t) =
      Array.fill h.counts 0 Histogram.n_buckets 0;
      h.count <- 0;
      h.sum <- 0;
      h.max <- 0
    in
    let zero_span (s : Span.t) =
      s.count <- 0;
      s.total <- 0.
    in
    Hashtbl.iter (fun _ c -> zero_counter c) t.counters;
    Hashtbl.iter (fun _ h -> zero_histo h) t.histograms;
    Hashtbl.iter (fun _ s -> zero_span s) t.spans;
    Hashtbl.iter
      (fun _ cells -> Hashtbl.iter (fun _ c -> zero_counter c) cells.lc_tbl)
      t.lcounters;
    Hashtbl.iter
      (fun _ cells -> Hashtbl.iter (fun _ h -> zero_histo h) cells.lc_tbl)
      t.lhistograms;
    Hashtbl.iter
      (fun _ cells -> Hashtbl.iter (fun _ s -> zero_span s) cells.lc_tbl)
      t.lspans
  end

(* ------------------------------------------------------------------ *)
(* Events                                                             *)
(* ------------------------------------------------------------------ *)

let set_sink t sink = if t.on then t.sink <- sink
let tracing t = t.on && Option.is_some t.sink

let set_residuals t b = if t.on then t.residuals <- b
let residuals t = t.on && t.residuals && Option.is_some t.sink

let emit t ev =
  match t.sink with Some f when t.on -> f ev | Some _ | None -> ()

let value_to_json = function
  | Int i -> Json.int i
  | Float f -> Json.Number f
  | Bool b -> Json.Bool b
  | String s -> Json.String s

(* Instant events carry no "ph" member, so the --trace-json line format
   of step events is unchanged from before phases existed. *)
let event_to_json ev =
  Json.Object
    (("event", Json.String ev.name)
    :: (match ev.phase with
       | Instant -> []
       | Span_begin -> [ ("ph", Json.String "B") ]
       | Span_end -> [ ("ph", Json.String "E") ])
    @ List.map (fun (k, v) -> (k, value_to_json v)) ev.fields)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

type histo_data = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;  (* (le bound, count in that bucket) *)
}

(* One labelled family in a snapshot: the label key plus the per-label
   readings, sorted by label. *)
type 'a labelled_data = { l_key : string; l_cells : (string * 'a) list }

type snapshot = {
  s_counters : (string * int) list;  (* monotonic, sorted by name *)
  s_gauges : (string * int) list;
  s_histograms : (string * histo_data) list;
  s_spans : (string * (int * float)) list;  (* count, total seconds *)
  s_lcounters : (string * int labelled_data) list;
  s_lhistograms : (string * histo_data labelled_data) list;
  s_lspans : (string * (int * float) labelled_data) list;
  s_help : (string * string) list;
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histo_data (h : Histogram.t) =
  let buckets = ref [] in
  for i = Histogram.n_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then buckets := (1 lsl i, h.counts.(i)) :: !buckets
  done;
  { h_count = h.count; h_sum = h.sum; h_max = h.max; h_buckets = !buckets }

let snapshot_family value cells =
  { l_key = cells.lc_key; l_cells = sorted_bindings cells.lc_tbl value }

let snapshot t =
  let counters, gauges =
    Hashtbl.fold
      (fun name (c : Counter.t) (cs, gs) ->
        match c.kind with
        | Counter.Monotonic -> ((name, c.v) :: cs, gs)
        | Counter.Gauge -> (cs, (name, c.v) :: gs))
      t.counters ([], [])
  in
  let by_name (a, _) (b, _) = String.compare a b in
  {
    s_counters = List.sort by_name counters;
    s_gauges = List.sort by_name gauges;
    s_histograms = sorted_bindings t.histograms histo_data;
    s_spans = sorted_bindings t.spans (fun (s : Span.t) -> (s.count, s.total));
    s_lcounters =
      sorted_bindings t.lcounters
        (snapshot_family (fun (c : Counter.t) -> c.v));
    s_lhistograms = sorted_bindings t.lhistograms (snapshot_family histo_data);
    s_lspans =
      sorted_bindings t.lspans
        (snapshot_family (fun (s : Span.t) -> (s.count, s.total)));
    s_help = sorted_bindings t.help Fun.id;
  }

let is_empty s =
  s.s_counters = [] && s.s_gauges = [] && s.s_histograms = []
  && s.s_spans = [] && s.s_lcounters = [] && s.s_lhistograms = []
  && s.s_lspans = []

let counters s =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (s.s_counters @ s.s_gauges)
let find_counter s name = List.assoc_opt name (counters s)

let labelled_counter_values s name =
  match List.assoc_opt name s.s_lcounters with
  | Some d -> d.l_cells
  | None -> []

let labelled_span_values s name =
  match List.assoc_opt name s.s_lspans with
  | Some d -> d.l_cells
  | None -> []

(* The per-request delta of a long-running process: subtract the
   [since] baseline from [now], member-wise.  Monotone instruments
   (counters, histogram counts/sums/buckets, span counts/totals)
   subtract and clamp at zero, so a reset between the two snapshots
   degrades to reporting [now] rather than going negative.  Gauges are
   level readings, not accumulations, so the diff keeps the current
   reading; a histogram's [max] likewise cannot be un-merged and keeps
   the [now] value.  Labelled families diff label-by-label with the
   same rules; labels first seen in [now] pass through unchanged. *)
let diff ~since now =
  (* A monotone reading below its baseline means the registry was
     reset inside the window; the whole [now] value is then window
     work, so subtraction degrades to identity rather than clamping
     information away. *)
  let sub v base = if v < base then v else v - base in
  let subf v base = if v < base then v else v -. base in
  let base_int names name = Option.value ~default:0 (List.assoc_opt name names) in
  let sub_ints nows sinces =
    List.map (fun (name, v) -> (name, sub v (base_int sinces name))) nows
  in
  let sub_histo_data h0 h =
    if h.h_count < h0.h_count then h
    else
      let bucket0 le = base_int h0.h_buckets le in
      { h_count = sub h.h_count h0.h_count;
        h_sum = sub h.h_sum h0.h_sum;
        h_max = h.h_max;
        h_buckets =
          List.filter_map
            (fun (le, n) ->
              let d = sub n (bucket0 le) in
              if d > 0 then Some (le, d) else None)
            h.h_buckets }
  in
  let sub_histo (name, h) =
    match List.assoc_opt name since.s_histograms with
    | None -> (name, h)
    | Some h0 -> (name, sub_histo_data h0 h)
  in
  let sub_span_data (c0, t0) (count, total) = (sub count c0, subf total t0) in
  let sub_span (name, sp) =
    match List.assoc_opt name since.s_spans with
    | None -> (name, sp)
    | Some sp0 -> (name, sub_span_data sp0 sp)
  in
  let sub_family sub_cell sinces (name, d) =
    match List.assoc_opt name sinces with
    | None -> (name, d)
    | Some d0 ->
        ( name,
          { d with
            l_cells =
              List.map
                (fun (label, v) ->
                  match List.assoc_opt label d0.l_cells with
                  | None -> (label, v)
                  | Some v0 -> (label, sub_cell v0 v))
                d.l_cells } )
  in
  {
    s_counters = sub_ints now.s_counters since.s_counters;
    s_gauges = now.s_gauges;
    s_histograms = List.map sub_histo now.s_histograms;
    s_spans = List.map sub_span now.s_spans;
    s_lcounters =
      List.map
        (sub_family (fun v0 v -> sub v v0) since.s_lcounters)
        now.s_lcounters;
    s_lhistograms =
      List.map (sub_family sub_histo_data since.s_lhistograms) now.s_lhistograms;
    s_lspans = List.map (sub_family sub_span_data since.s_lspans) now.s_lspans;
    s_help = now.s_help;
  }

let histo_json h =
  Json.Object
    [ ("count", Json.int h.h_count);
      ("sum", Json.int h.h_sum);
      ("max", Json.int h.h_max);
      ( "buckets",
        Json.Object
          (List.map (fun (le, n) -> (string_of_int le, Json.int n)) h.h_buckets)
      ) ]

let span_json (count, total) =
  Json.Object [ ("count", Json.int count); ("seconds", Json.Number total) ]

let to_json s =
  let ints kvs = Json.Object (List.map (fun (k, v) -> (k, Json.int v)) kvs) in
  let family cell (name, d) =
    ( name,
      Json.Object
        [ ("key", Json.String d.l_key);
          ("cells", Json.Object (List.map (fun (l, v) -> (l, cell v)) d.l_cells))
        ] )
  in
  let labelled =
    (if s.s_lcounters = [] then []
     else
       [ ("counters",
          Json.Object (List.map (family Json.int) s.s_lcounters)) ])
    @ (if s.s_lhistograms = [] then []
       else
         [ ("histograms",
            Json.Object (List.map (family histo_json) s.s_lhistograms)) ])
    @
    if s.s_lspans = [] then []
    else [ ("spans", Json.Object (List.map (family span_json) s.s_lspans)) ]
  in
  Json.Object
    ([ ("counters", ints s.s_counters);
       ("gauges", ints s.s_gauges);
       ("histograms", Json.Object (List.map (fun (n, h) -> (n, histo_json h)) s.s_histograms));
       ("spans", Json.Object (List.map (fun (n, sp) -> (n, span_json sp)) s.s_spans)) ]
    (* Only present when a labelled family exists, so registries that
       never use attribution render exactly as before. *)
    @ if labelled = [] then [] else [ ("labelled", Json.Object labelled) ])

(* The lenient inverse of [to_json], for snapshots read back from
   disk (the journal's tick records): a missing or malformed member
   reads as empty, so a truncated or older record still decodes.  Help
   text is not part of the JSON and comes back empty. *)
let snapshot_of_json j =
  let members key j =
    match Json.find key j with Some (Json.Object kvs) -> kvs | _ -> []
  in
  let readings read kvs =
    List.filter_map (fun (k, v) -> Option.map (fun r -> (k, r)) (read v)) kvs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let int_member key j = Option.value ~default:0 (Json.find_int key j) in
  let bucket (le, n) =
    match (int_of_string_opt le, Json.as_int n) with
    | Some le, Some n -> Some (le, n)
    | _ -> None
  in
  let histo h =
    Some
      { h_count = int_member "count" h;
        h_sum = int_member "sum" h;
        h_max = int_member "max" h;
        h_buckets =
          List.sort compare (List.filter_map bucket (members "buckets" h)) }
  in
  let span sp =
    match Json.find "seconds" sp with
    | Some (Json.Number seconds) -> Some (int_member "count" sp, seconds)
    | _ -> Some (int_member "count" sp, 0.)
  in
  let family cell =
    readings (fun d ->
        Some
          { l_key = Option.value ~default:"" (Json.find_string "key" d);
            l_cells = readings cell (members "cells" d) })
  in
  let labelled key =
    Option.fold ~none:[] ~some:(members key) (Json.find "labelled" j)
  in
  {
    s_counters = readings Json.as_int (members "counters" j);
    s_gauges = readings Json.as_int (members "gauges" j);
    s_histograms = readings histo (members "histograms" j);
    s_spans = readings span (members "spans" j);
    s_lcounters = family Json.as_int (labelled "counters");
    s_lhistograms = family histo (labelled "histograms");
    s_lspans = family span (labelled "spans");
    s_help = [];
  }

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                         *)
(* ------------------------------------------------------------------ *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; instrument names
   come from code but flow through here anyway so a future dynamic
   name cannot emit a malformed exposition. *)
let sanitize_name s =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
    s

(* Label values are arbitrary UTF-8 (shape labels are IRIs, focus
   nodes can be literals with any content) and the exposition quotes
   them: backslash, double quote and newline are the three characters
   the format requires escaping. *)
let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* HELP text: escape backslash and newline (quotes are legal there). *)
let escape_help v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let pp_text ppf s =
  let help_of name = List.assoc_opt name s.s_help in
  (* [header raw exposed kind] prints the optional # HELP (keyed by the
     instrument's registry name) and # TYPE lines for the exposed
     (sanitized, possibly suffixed) metric name. *)
  let header raw exposed kind =
    (match help_of raw with
    | Some h -> Format.fprintf ppf "# HELP shex_%s %s@." exposed (escape_help h)
    | None -> ());
    Format.fprintf ppf "# TYPE shex_%s %s@." exposed kind
  in
  let metric kind name v =
    let m = sanitize_name name in
    header name m kind;
    Format.fprintf ppf "shex_%s %d@." m v
  in
  (* Counters and gauges interleave in one sorted sequence so the
     exposition order is independent of instrument kind. *)
  let ints =
    List.sort
      (fun (a, _, _) (b, _, _) -> String.compare a b)
      (List.map (fun (n, v) -> (n, "counter", v)) s.s_counters
      @ List.map (fun (n, v) -> (n, "gauge", v)) s.s_gauges)
  in
  List.iter (fun (name, kind, v) -> metric kind name v) ints;
  List.iter
    (fun (name, d) ->
      let m = sanitize_name name and key = sanitize_name d.l_key in
      header name m "counter";
      List.iter
        (fun (label, v) ->
          Format.fprintf ppf "shex_%s{%s=\"%s\"} %d@." m key
            (escape_label label) v)
        d.l_cells)
    s.s_lcounters;
  let histo_lines m labels h =
    let cumulative = ref 0 in
    List.iter
      (fun (le, n) ->
        cumulative := !cumulative + n;
        Format.fprintf ppf "shex_%s_bucket{%sle=\"%d\"} %d@." m labels le
          !cumulative)
      h.h_buckets;
    Format.fprintf ppf "shex_%s_bucket{%sle=\"+Inf\"} %d@." m labels h.h_count;
    (match labels with
    | "" ->
        Format.fprintf ppf "shex_%s_sum %d@." m h.h_sum;
        Format.fprintf ppf "shex_%s_count %d@." m h.h_count
    | _ ->
        let l = String.sub labels 0 (String.length labels - 1) in
        Format.fprintf ppf "shex_%s_sum{%s} %d@." m l h.h_sum;
        Format.fprintf ppf "shex_%s_count{%s} %d@." m l h.h_count)
  in
  List.iter
    (fun (name, h) ->
      let m = sanitize_name name in
      header name m "histogram";
      histo_lines m "" h)
    s.s_histograms;
  List.iter
    (fun (name, d) ->
      let m = sanitize_name name and key = sanitize_name d.l_key in
      header name m "histogram";
      List.iter
        (fun (label, h) ->
          histo_lines m
            (Format.sprintf "%s=\"%s\"," key (escape_label label))
            h)
        d.l_cells)
    s.s_lhistograms;
  List.iter
    (fun (name, (count, total)) ->
      let m = sanitize_name name in
      header name (m ^ "_seconds") "summary";
      Format.fprintf ppf "shex_%s_seconds_count %d@." m count;
      Format.fprintf ppf "shex_%s_seconds_sum %.6f@." m total)
    s.s_spans;
  List.iter
    (fun (name, d) ->
      let m = sanitize_name name and key = sanitize_name d.l_key in
      header name (m ^ "_seconds") "summary";
      List.iter
        (fun (label, (count, total)) ->
          let l = Format.sprintf "%s=\"%s\"" key (escape_label label) in
          Format.fprintf ppf "shex_%s_seconds_count{%s} %d@." m l count;
          Format.fprintf ppf "shex_%s_seconds_sum{%s} %.6f@." m l total)
        d.l_cells)
    s.s_lspans

(* ------------------------------------------------------------------ *)
(* Sliding-window SLIs                                                *)
(* ------------------------------------------------------------------ *)

(* A ring of periodically sampled snapshots.  The window never touches
   the live registry: the owner (the serve daemon's tick) snapshots and
   [observe]s; [summary] then diffs the oldest retained sample against
   the newest, turning cumulative-since-boot counters into rolling
   rates and cumulative histograms into windowed quantile estimates.
   With [slots] samples at one [interval_s] apart the window covers
   roughly [slots * interval_s] seconds of history. *)
module Window = struct
  type t = {
    w_interval : float;
    ring : (float * snapshot) option array;
    mutable next : int;  (* next write slot *)
    mutable count : int;  (* samples retained, <= Array.length ring *)
  }

  let default_slots = 60

  let create ?(slots = default_slots) ~interval_s () =
    { w_interval = interval_s;
      ring = Array.make (max 2 slots) None;
      next = 0;
      count = 0 }

  let slots w = Array.length w.ring
  let interval_s w = w.w_interval
  let samples w = w.count

  let observe w ~now:t snap =
    w.ring.(w.next) <- Some (t, snap);
    w.next <- (w.next + 1) mod Array.length w.ring;
    if w.count < Array.length w.ring then w.count <- w.count + 1

  (* Nearest-rank quantile over log2 buckets: the smallest bucket bound
     [le] whose cumulative count reaches rank ceil(p * total).  Bucket
     counts are exact per-bucket observation counts, so the chosen
     bucket is exactly the one holding the rank-th smallest
     observation — the estimate errs only within that bucket, i.e. the
     true quantile q satisfies le/2 < q <= le (q <= 1 for le = 1).
     [buckets] must be ascending (le, count) pairs as in snapshots. *)
  let quantile buckets ~total p =
    if total <= 0 then 0
    else
      let rank =
        let r = int_of_float (ceil (p *. float_of_int total)) in
        if r < 1 then 1 else if r > total then total else r
      in
      let rec go cum = function
        | [] -> 0
        | [ (le, _) ] -> le
        | (le, n) :: rest -> if cum + n >= rank then le else go (cum + n) rest
      in
      go 0 buckets

  type quantiles = { q_count : int; q_p50 : int; q_p99 : int }

  type summary = {
    w_seconds : float;  (* wall time the window spans *)
    w_samples : int;
    w_rates : (string * float) list;  (* counter deltas / w_seconds *)
    w_quantiles : (string * quantiles) list;  (* per histogram *)
  }

  (* Two timestamped samples of one registry, diffed: rates of the
     monotone counters over the wall time between them, quantiles of
     every histogram that recorded something in between.  The live
     ring and journal replay both summarise through here. *)
  let between (t0, s0) (t1, s1) =
    if not (t1 > t0) then None
    else
      let d = diff ~since:s0 s1 in
      let seconds = t1 -. t0 in
      Some
        { w_seconds = seconds;
          w_samples = 2;
          w_rates =
            List.map
              (fun (name, v) -> (name, float_of_int v /. seconds))
              d.s_counters;
          w_quantiles =
            List.filter_map
              (fun (name, h) ->
                if h.h_count <= 0 then None
                else
                  Some
                    ( name,
                      { q_count = h.h_count;
                        q_p50 = quantile h.h_buckets ~total:h.h_count 0.5;
                        q_p99 = quantile h.h_buckets ~total:h.h_count 0.99 } ))
              d.s_histograms }

  let summary w =
    if w.count < 2 then None
    else
      let n = Array.length w.ring in
      let newest = w.ring.((w.next + n - 1) mod n)
      and oldest =
        w.ring.(if w.count = n then w.next else 0)
      in
      match (oldest, newest) with
      | Some oldest, Some newest ->
          Option.map
            (fun s -> { s with w_samples = w.count })
            (between oldest newest)
      | _ -> None

  let summary_to_json s =
    Json.Object
      [ ("seconds", Json.Number s.w_seconds);
        ("samples", Json.int s.w_samples);
        ( "rates",
          Json.Object
            (List.map (fun (n, r) -> (n, Json.Number r)) s.w_rates) );
        ( "quantiles",
          Json.Object
            (List.map
               (fun (n, q) ->
                 ( n,
                   Json.Object
                     [ ("count", Json.int q.q_count);
                       ("p50", Json.int q.q_p50);
                       ("p99", Json.int q.q_p99) ] ))
               s.w_quantiles) ) ]

  (* Appended after the registry's own exposition: derived gauges only,
     names suffixed so they can never collide with a live instrument
     ([_rate] per second, [_p50]/[_p99] in the histogram's own unit). *)
  let pp_prometheus ppf s =
    let gauge name pp_v =
      let m = sanitize_name name in
      Format.fprintf ppf "# TYPE shex_%s gauge@." m;
      Format.fprintf ppf "shex_%s %t@." m pp_v
    in
    gauge "obs_window_seconds" (fun ppf ->
        Format.fprintf ppf "%.3f" s.w_seconds);
    gauge "obs_window_samples" (fun ppf ->
        Format.fprintf ppf "%d" s.w_samples);
    List.iter
      (fun (name, r) ->
        gauge (name ^ "_rate") (fun ppf -> Format.fprintf ppf "%.6f" r))
      s.w_rates;
    List.iter
      (fun (name, q) ->
        gauge (name ^ "_p50") (fun ppf -> Format.fprintf ppf "%d" q.q_p50);
        gauge (name ^ "_p99") (fun ppf -> Format.fprintf ppf "%d" q.q_p99))
      s.w_quantiles
end
