type delta = { inserts : Rdf.Triple.t list; deletes : Rdf.Triple.t list }

let insert triples = { inserts = triples; deletes = [] }
let delete triples = { inserts = []; deletes = triples }

type stats = {
  applied : int;
  frontier : int;
  resolved : int;
  changed : (Rdf.Term.t * Shex.Label.t * bool) list;
}

type t = {
  vs : Shex.Validate.session;
  (* Incremental instruments, resolved once (one branch each when the
     registry is disabled, like the engine instruments). *)
  deltas : Telemetry.Counter.t;
  edits : Telemetry.Counter.t;
  invalidated : Telemetry.Counter.t;
  resolved_total : Telemetry.Counter.t;
  frontier_size : Telemetry.Histogram.t;
  apply_span : Telemetry.Span.t;
}

let create ?(engine = Shex.Validate.Derivatives)
    ?(telemetry = Telemetry.disabled) schema graph =
  let vs =
    Shex.Validate.session ~engine ~telemetry ~record_deps:true schema graph
  in
  (* [incremental_full_resets] stays registered, at 0, so the metrics
     documents keep their members: no session API resets any more. *)
  ignore (Telemetry.counter telemetry "incremental_full_resets");
  { vs;
    deltas = Telemetry.counter telemetry "incremental_deltas";
    edits = Telemetry.counter telemetry "incremental_edits";
    invalidated = Telemetry.counter telemetry "incremental_invalidated";
    resolved_total = Telemetry.counter telemetry "incremental_resolved";
    frontier_size = Telemetry.histogram telemetry "incremental_frontier_size";
    apply_span = Telemetry.span telemetry "incremental_apply" }

let graph t = Shex.Validate.graph t.vs
let schema t = Shex.Validate.schema t.vs
let validation t = t.vs
let check_bool t n l = Shex.Validate.check_bool t.vs n l
let metrics t = Shex.Validate.metrics t.vs

let apply t { inserts; deletes } =
  Telemetry.Span.time t.apply_span @@ fun () ->
  Telemetry.Counter.incr t.deltas;
  let touched : (Rdf.Term.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let applied = ref 0 in
  let touch tr =
    incr applied;
    Hashtbl.replace touched (Rdf.Triple.subject tr) ();
    Hashtbl.replace touched (Rdf.Triple.obj tr) ()
  in
  (* Deletes first, then inserts, no-ops skipped: a triple listed on
     both sides round-trips through the graph and only costs frontier
     work, never correctness. *)
  let g =
    List.fold_left
      (fun g tr ->
        if Rdf.Graph.mem tr g then begin
          touch tr;
          Rdf.Graph.remove tr g
        end
        else g)
      (Shex.Validate.graph t.vs) deletes
  in
  let g =
    List.fold_left
      (fun g tr ->
        if Rdf.Graph.mem tr g then g
        else begin
          touch tr;
          Rdf.Graph.add tr g
        end)
      g inserts
  in
  if !applied = 0 then { applied = 0; frontier = 0; resolved = 0; changed = [] }
  else begin
    Telemetry.Counter.add t.edits !applied;
    Shex.Validate.set_graph t.vs g;
    let nodes = Hashtbl.fold (fun n () acc -> n :: acc) touched [] in
    let frontier = Shex.Validate.invalidate_nodes t.vs nodes in
    let size = List.length frontier in
    Telemetry.Histogram.observe t.frontier_size size;
    Telemetry.Counter.add t.invalidated size;
    (* Eager re-solve: the memo is warm again before the next query,
       and comparing against the old verdicts yields exactly the
       affected subscribers. *)
    let changed =
      List.filter_map
        (fun ((n, l), was) ->
          let now = Shex.Validate.check_bool t.vs n l in
          if Bool.equal now was then None else Some (n, l, now))
        frontier
    in
    Telemetry.Counter.add t.resolved_total size;
    { applied = !applied; frontier = size; resolved = size; changed }
  end
