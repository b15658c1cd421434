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
   input — a neighbourhood's decompositions.  Pairs come in Example
   3's order, ({}, everything) first, so the left component grows as
   the search proceeds. *)
let decompose dts =
  let rec go = function
    | [] -> [ ([], []) ]
    | x :: rest ->
        List.concat_map
          (fun (l, r) -> [ (l, x :: r); (x :: l, r) ])
          (go rest)
  in
  go dts

let matches ~check ?(instr = no_instruments) n dts e =
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
    | Arc a -> (
        match dts with
        | [ dt ] -> Neigh.arc_matches ~check a dt
        | _ -> false)
    | Or (e1, e2) -> go e1 dts || go e2 dts
    | And (e1, e2) ->
        List.exists (fun (g1, g2) -> go e1 g1 && go e2 g2) (decompositions dts)
    | Star inner ->
        dts = []
        || List.exists
             (fun (g1, g2) -> g1 <> [] && go inner g1 && go e g2)
             (decompositions dts)
    | Repeat (inner, m, n) ->
        (* Like Star: one copy takes a non-empty part, the other m∸1 to
           n−1 copies the rest, so the recursion is as deep as the
           neighbourhood is large, whatever the bounds. *)
        if dts = [] then m = 0 || go inner []
        else
          List.exists
            (fun (g1, g2) ->
              g1 <> []
              && go inner g1
              && go (Rse.repeat (max 0 (m - 1)) (Option.map pred n) inner) g2)
            (decompositions dts)
    | Not inner -> not (go inner dts)
  in
  let result = go e dts in
  if Telemetry.tracing instr.tele then
    Telemetry.emit instr.tele
      (Telemetry.instant "backtrack_match"
         [ ("focus", Telemetry.String (Rdf.Term.to_string n));
           ("triples", Telemetry.Int (List.length dts));
           ("branches", Telemetry.Int !work);
           ("ok", Telemetry.Bool result) ]);
  result

let matches_dts ?(check_ref = no_refs) ?instr n dts e =
  matches ~check:(Neigh.by_term check_ref) ?instr n dts e
