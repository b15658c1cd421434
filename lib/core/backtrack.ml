type check_ref = Label.t -> Rdf.Term.t -> bool

let no_refs : check_ref = fun _ _ -> false

type instruments = {
  tele : Telemetry.t;
  branches : Telemetry.Counter.t;
  decompositions : Telemetry.Counter.t;
}

let instruments tele =
  {
    tele;
    branches = Telemetry.counter tele "backtrack_branches";
    decompositions = Telemetry.counter tele "backtrack_decompositions";
  }

let no_instruments = instruments Telemetry.disabled
let counters instr = [ instr.branches; instr.decompositions ]

(* All ordered pairs (l, r) of disjoint sublists whose union is the
   input — the list counterpart of Graph.decompositions.  Pairs come
   in Example 3's order, ({}, everything) first, so the left component
   grows as the search proceeds. *)
let decompose dts =
  let rec go = function
    | [] -> [ ([], []) ]
    | x :: rest ->
        List.concat_map
          (fun (l, r) -> [ (l, x :: r); (x :: l, r) ])
          (go rest)
  in
  go dts

let arc_matches ~check_ref (a : Rse.arc) (dt : Neigh.dtriple) =
  match a.obj with
  | Rse.Values vo -> Neigh.arc_matches_values a vo dt
  | Rse.Ref l ->
      Bool.equal a.inverse dt.inverse
      && Value_set.pred_mem a.pred (Rdf.Triple.predicate dt.triple)
      &&
      let far =
        if dt.inverse then Rdf.Triple.subject dt.triple
        else Rdf.Triple.obj dt.triple
      in
      check_ref l far

let matches_counted ~check_ref ~instr dts e =
  let work = ref 0 in
  let counting = Telemetry.Counter.active instr.branches in
  (* Each [decompose] call materialises every ordered pair — Example
     3's 2ⁿ — so the length walk below is already amortised; it is
     still skipped on the disabled path. *)
  let decompositions dts =
    let pairs = decompose dts in
    if counting then
      Telemetry.Counter.add instr.decompositions (List.length pairs);
    pairs
  in
  let rec go (e : Rse.t) dts =
    incr work;
    if counting then Telemetry.Counter.incr instr.branches;
    match e with
    | Empty -> false
    | Epsilon -> dts = []
    | Arc a -> ( match dts with [ dt ] -> arc_matches ~check_ref a dt | _ -> false)
    | Or (e1, e2) -> go e1 dts || go e2 dts
    | And (e1, e2) ->
        List.exists (fun (g1, g2) -> go e1 g1 && go e2 g2) (decompositions dts)
    | Star inner ->
        dts = []
        || List.exists
             (fun (g1, g2) -> g1 <> [] && go inner g1 && go e g2)
             (decompositions dts)
    | Not inner -> not (go inner dts)
  in
  let result = go e dts in
  (result, !work)

let matches_list ?(check_ref = no_refs) ?(instr = no_instruments) dts e =
  fst (matches_counted ~check_ref ~instr dts e)

let matches_count ?(check_ref = no_refs) ?(instr = no_instruments) n g e =
  let dts = Neigh.of_node ~include_inverse:(Rse.has_inverse e) n g in
  let (result, work) as r = matches_counted ~check_ref ~instr dts e in
  if Telemetry.tracing instr.tele then
    Telemetry.emit instr.tele
      (Telemetry.instant "backtrack_match"
         [ ("focus", Telemetry.String (Rdf.Term.to_string n));
           ("triples", Telemetry.Int (List.length dts));
           ("branches", Telemetry.Int work);
           ("ok", Telemetry.Bool result) ]);
  r

let matches ?check_ref ?instr n g e =
  fst (matches_count ?check_ref ?instr n g e)
