type kind = Verdict | Report

type divergence = { arm : string; kind : kind; detail : string }

let assoc_text (n, l) =
  Printf.sprintf "%s@<%s>" (Rdf.Term.to_string n) (Shex.Label.to_string l)

(* ------------------------------------------------------------------ *)
(* Arms                                                                *)
(* ------------------------------------------------------------------ *)

(* Arms are (name, engine, domains, interned).  The interned arms
   re-run reference engines on a {!Shex.Validate.session_columnar}
   over the frozen graph: any ordering or lookup discrepancy between
   the int-column slices and the structural indexes shows up as a
   verdict or report-JSON divergence here. *)
let engine_arms =
  [ ("backtrack", Shex.Validate.Backtracking, 1, false);
    ("interned-backtrack", Shex.Validate.Backtracking, 1, true);
    ("auto", Shex.Validate.Auto, 1, false);
    ("interned", Shex.Validate.Derivatives, 1, true);
    ("interned-auto", Shex.Validate.Auto, 1, true);
    ("compiled", Shex.Validate.Compiled, 1, false);
    ("interned-compiled", Shex.Validate.Compiled, 1, true);
    ("domains=2", Shex.Validate.Derivatives, 2, false);
    ("domains=4", Shex.Validate.Derivatives, 4, false);
    ("interned-domains=2", Shex.Validate.Derivatives, 2, true) ]

(* A session over the structural graph, or over its frozen columnar
   store when [interned]. *)
let session_on ?engine ?domains ~interned schema graph =
  if interned then
    Shex.Validate.session_columnar ?engine ?domains schema
      (Rdf.Columnar.of_graph graph)
  else Shex.Validate.session ?engine ?domains schema graph

(* Engine arms all produce a full report over the same association
   list, so verdicts, blame sets and JSON rendering are compared in
   one shot. *)
let report_of session assocs =
  let report = Shex.Report.run session assocs in
  ( List.map
      (fun (e : Shex.Report.entry) -> e.status = Shex.Report.Conformant)
      report.entries,
    Json.to_string ~minify:true (Shex.Report.to_json report) )

(* The one verdict comparison every arm shares: the first association
   where the arm's verdict differs from the reference's.  [None] in
   [arm_oks] marks an association outside the arm's fragment. *)
let verdict_mismatch arm assocs ref_oks arm_oks =
  let rec go = function
    | a :: _, r :: _, Some o :: _ when r <> o ->
        Some
          { arm;
            kind = Verdict;
            detail =
              Printf.sprintf "%s: verdict mismatch at %s (deriv=%b %s=%b)" arm
                (assoc_text a) r arm o }
    | _ :: assocs, _ :: refs, _ :: oks -> go (assocs, refs, oks)
    | _ -> None
  in
  go (assocs, ref_oks, arm_oks)

(* Direct SORBE arm: shapes in the counting fragment (no focus
   constraint, no shape references) matched by [Sorbe.matches_dts]
   alone, outside the Auto dispatch and its per-label matchers — this
   is what pins the [Sorbe.of_rse] applicability analysis itself.  It
   reads each neighbourhood straight from the graph. *)
let sorbe_oks schema graph assocs =
  let compiled =
    List.filter_map
      (fun (l, (s : Shex.Schema.shape)) ->
        if s.focus <> None || Shex.Rse.has_ref s.expr then None
        else
          Option.map
            (fun constrs -> (l, (Shex.Rse.has_inverse s.expr, constrs)))
            (Shex.Sorbe.of_rse s.expr))
      (Shex.Schema.shapes schema)
  in
  List.map
    (fun (n, l) ->
      Option.map
        (fun (include_inverse, constrs) ->
          Shex.Sorbe.matches_dts n
            (Shex.Neigh.of_node ~include_inverse n graph)
            constrs)
        (List.assoc_opt l compiled))
    assocs

(* SPARQL arm: reference-free, non-inverse, singleton-predicate shapes
   without focus constraints, compiled per §3 and evaluated over the
   graph.  The generated query anchors the focus as a subject, so only
   nodes with at least one outgoing triple are comparable. *)
let sparql_oks schema graph assocs =
  let compiled =
    List.filter_map
      (fun (l, (s : Shex.Schema.shape)) ->
        if s.focus <> None then None
        else
          match Sparql.Gen.matching_nodes graph s.expr with
          | Ok nodes -> Some (l, nodes)
          | Error _ -> None)
      (Shex.Schema.shapes schema)
  in
  List.map
    (fun (n, l) ->
      match List.assoc_opt l compiled with
      | Some nodes when Rdf.Graph.out_triples n graph <> [] ->
          Some (List.exists (Rdf.Term.equal n) nodes)
      | Some _ | None -> None)
    assocs

(* The reference arm is the paper's derivative engine, sequential, on
   the structural graph. *)
let divergences schema graph assocs =
  let ref_oks, ref_json =
    report_of (session_on ~interned:false schema graph) assocs
  in
  let engine_findings =
    List.filter_map
      (fun (arm, engine, domains, interned) ->
        let oks, json =
          report_of (session_on ~engine ~domains ~interned schema graph) assocs
        in
        let arm_oks = List.map Option.some oks in
        match verdict_mismatch arm assocs ref_oks arm_oks with
        | Some _ as d -> d
        | None when json <> ref_json ->
            Some
              { arm;
                kind = Report;
                detail =
                  Printf.sprintf "%s: verdicts agree but report JSON differs"
                    arm }
        | None -> None)
      engine_arms
  in
  engine_findings
  @ List.filter_map
      (fun (arm, oks) ->
        verdict_mismatch arm assocs ref_oks (oks schema graph assocs))
      [ ("sorbe", sorbe_oks); ("sparql", sparql_oks) ]

(* How an incremental session's answer for (n, l) differs from a
   from-scratch session's: [Verdict] when the conformance bit does,
   [Report] when only the typing ({!Shex.Validate.typing}) or the
   explanation does. *)
let outcome_mismatch inc scratch n l =
  let i = Shex.Validate.check inc n l and s = Shex.Validate.check scratch n l in
  if i.ok <> s.ok then Some Verdict
  else if
    Shex.Typing.equal
      (Shex.Validate.typing inc n l)
      (Shex.Validate.typing scratch n l)
    && Option.equal
         (fun a b -> Shex.Explain.to_json a = Shex.Explain.to_json b)
         i.explain s.explain
  then None
  else Some Report

(* Edits arm: replay a seeded edit script through an incremental
   session and, after every edit, compare each association's outcome
   (verdict, typing and explanation) against a from-scratch session
   over the same graph.  This is the differential check behind
   lib/incremental's frontier-invalidation soundness argument
   (DESIGN.md §11): any verdict the invalidation walk wrongly retains
   shows up here as a stale verdict, or as a stale typing when the
   retained verdict is one a typing closure passes through. *)
let edits_divergence schema graph script assocs =
  let total = List.length script in
  let inc = Shex_incremental.Session.create schema graph in
  let rec go i = function
    | [] -> None
    | edit :: rest -> (
        let delta =
          match edit with
          | Workload.Rand_gen.Insert tr ->
              Shex_incremental.Session.insert [ tr ]
          | Workload.Rand_gen.Delete tr ->
              Shex_incremental.Session.delete [ tr ]
        in
        ignore (Shex_incremental.Session.apply inc delta);
        let scratch =
          Shex.Validate.session schema (Shex_incremental.Session.graph inc)
        in
        let mismatch =
          List.find_map
            (fun ((n, l) as a) ->
              Option.map
                (fun kind -> (a, kind))
                (outcome_mismatch
                   (Shex_incremental.Session.validation inc)
                   scratch n l))
            assocs
        in
        match mismatch with
        | Some (a, kind) ->
            Some
              { arm = "edits";
                kind;
                detail =
                  Printf.sprintf
                    "edits: stale %s at %s after edit %d/%d \
                     (incremental ≠ from-scratch)"
                    (match kind with
                    | Verdict -> "verdict"
                    | Report -> "typing or explanation")
                    (assoc_text a) (i + 1) total }
        | None -> go (i + 1) rest)
  in
  go 0 script

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Drop items one at a time, keeping a drop only when the property
   survives. *)
let greedy_drop items survives =
  let rec go kept = function
    | [] -> List.rev kept
    | x :: rest ->
        let candidate = List.rev_append kept rest in
        if candidate <> [] && survives candidate then go kept rest
        else go (x :: kept) rest
  in
  go [] items

(* The association and triple passes both shrinkers run. *)
let shrink_assocs keep assocs =
  match List.find_opt (fun a -> keep [ a ]) assocs with
  | Some a -> [ a ]
  | None -> greedy_drop assocs keep

let shrink_triples keep graph =
  Rdf.Graph.of_list
    (greedy_drop (Rdf.Graph.to_list graph) (fun triples ->
         keep (Rdf.Graph.of_list triples)))

(* Structural shrink candidates, strictly smaller, built through the
   smart constructors so candidates stay in normal form. *)
let rec shrink_expr (e : Shex.Rse.t) =
  let cands =
    match e with
    | Shex.Rse.Empty | Shex.Rse.Epsilon -> []
    | Shex.Rse.Arc _ -> [ Shex.Rse.epsilon ]
    | Shex.Rse.Star e1 ->
        (e1 :: List.map Shex.Rse.star (shrink_expr e1)) @ [ Shex.Rse.epsilon ]
    | Shex.Rse.And (e1, e2) ->
        [ e1; e2 ]
        @ List.map (fun c -> Shex.Rse.and_ c e2) (shrink_expr e1)
        @ List.map (fun c -> Shex.Rse.and_ e1 c) (shrink_expr e2)
    | Shex.Rse.Or (e1, e2) ->
        [ e1; e2 ]
        @ List.map (fun c -> Shex.Rse.or_ c e2) (shrink_expr e1)
        @ List.map (fun c -> Shex.Rse.or_ e1 c) (shrink_expr e2)
    | Shex.Rse.Not e1 -> e1 :: List.map Shex.Rse.not_ (shrink_expr e1)
    | Shex.Rse.Repeat (e1, m, n) ->
        (e1 :: List.map (Shex.Rse.repeat m n) (shrink_expr e1))
        @ [ Shex.Rse.epsilon ]
  in
  List.sort_uniq Shex.Rse.compare
    (List.filter (fun c -> Shex.Rse.size c < Shex.Rse.size e) cands)

let rebuild_schema shapes =
  match Shex.Schema.make_shapes shapes with Ok s -> Some s | Error _ -> None

let set_shape shapes l shape' =
  List.map (fun (l', s) -> if Shex.Label.equal l l' then (l', shape') else (l', s)) shapes

(* Shrink one rule to a local minimum: focus first, then expression
   candidates, restarting after every accepted step. *)
let shrink_rule graph assocs keep shapes l =
  let try_schema shapes' =
    match rebuild_schema shapes' with
    | Some s when keep s graph assocs -> Some shapes'
    | Some _ | None -> None
  in
  let rec go shapes =
    let (shape : Shex.Schema.shape) = List.assoc l shapes in
    let focus_step =
      match shape.focus with
      | None -> None
      | Some _ -> try_schema (set_shape shapes l { shape with focus = None })
    in
    match focus_step with
    | Some shapes' -> go shapes'
    | None -> (
        let expr_step =
          List.find_map
            (fun c -> try_schema (set_shape shapes l { shape with expr = c }))
            (shrink_expr shape.expr)
        in
        match expr_step with Some shapes' -> go shapes' | None -> shapes)
  in
  go shapes

(* [rebuild_schema] rejects dangling references, so the guard also
   rules out dropping a rule that something still points at. *)
let drop_unused_rules graph assocs keep shapes =
  greedy_drop shapes (fun shapes' ->
      List.for_all (fun (_, l) -> List.mem_assoc l shapes') assocs
      &&
      match rebuild_schema shapes' with
      | Some s -> keep s graph assocs
      | None -> false)

(* Predicate-driven shrink core.  [keep candidate_schema candidate_graph
   candidate_assocs] decides whether a shrink step preserves the property
   being minimised; any property works — an engine divergence (the
   campaign's divergence path), a containment counterexample ("focus
   satisfies S1 and fails S2", with S2 closed over by the predicate), or
   anything else a caller wants a minimal exhibit of. *)
let shrink_with ~keep schema graph assocs =
  let assocs = shrink_assocs (keep schema graph) assocs in
  let shrink_graph schema = shrink_triples (fun g -> keep schema g assocs) in
  let graph = shrink_graph schema graph in
  let shapes =
    List.fold_left
      (fun shapes (l, _) -> shrink_rule graph assocs keep shapes l)
      (Shex.Schema.shapes schema)
      (Shex.Schema.shapes schema)
  in
  let shapes = drop_unused_rules graph assocs keep shapes in
  let schema =
    match rebuild_schema shapes with Some s -> s | None -> schema
  in
  let graph = shrink_graph schema graph in
  (schema, graph, assocs)

type case = {
  schema : Shex.Schema.t;
  graph : Rdf.Graph.t;
  associations : (Rdf.Term.t * Shex.Label.t) list;
  script : Workload.Rand_gen.edit list;
}

(* Edits shrink: associations, then script entries, then initial
   triples.  [Shex_incremental.Session.apply] treats inserts of
   present triples and deletes of absent ones as no-ops, so every
   subsequence of a script is still a well-formed script and
   [greedy_drop] applies directly.  The schema is kept whole: a stale
   verdict lives in the dependency bookkeeping, not the expression
   structure, and schema shrinking would invalidate the script's
   arc-instantiation bias anyway. *)
let shrink_edits ~keep c =
  let c =
    { c with
      associations =
        shrink_assocs
          (fun associations -> keep { c with associations })
          c.associations }
  in
  let c =
    { c with
      script = greedy_drop c.script (fun script -> keep { c with script }) }
  in
  { c with graph = shrink_triples (fun graph -> keep { c with graph }) c.graph }

(* ------------------------------------------------------------------ *)
(* Modes and repro documents                                           *)
(* ------------------------------------------------------------------ *)

type mode = Surface | Extended | Edits | Containment | Optimizer

let modes =
  [ ("surface", Surface);
    ("extended", Extended);
    ("edits", Edits);
    ("containment", Containment);
    ("optimizer", Optimizer) ]

let mode_text mode = fst (List.find (fun (_, m) -> m = mode) modes)

(* One edit per line in the [%edits] section: [+]/[-], a space, then a
   single N-Triples statement — self-contained (no prefixes), so the
   section stays line-oriented. *)
let edit_to_line edit =
  let tr, sign =
    match edit with
    | Workload.Rand_gen.Insert tr -> (tr, "+")
    | Workload.Rand_gen.Delete tr -> (tr, "-")
  in
  sign ^ " "
  ^ String.trim (Turtle.Ntriples.to_string (Rdf.Graph.singleton tr))

let repro_to_string ~seed ~mode ~detail c =
  let title =
    match mode with
    | Edits -> Printf.sprintf "# oracle edits repro: seed %d" seed
    | _ ->
        Printf.sprintf "# oracle repro: seed %d (%s mode)" seed
          (mode_text mode)
  in
  let schema_text = Shexc.Shexc_printer.schema_to_string c.schema in
  let edits =
    if c.script = [] then []
    else [ "%edits"; String.concat "\n" (List.map edit_to_line c.script) ]
  in
  String.concat "\n"
    ([ title;
       "# found as: " ^ detail;
       "%schema";
       schema_text ^ "%data";
       Turtle.Write.to_string c.graph ^ "%map";
       String.concat ",\n" (List.map assoc_text c.associations) ]
    @ edits @ [ "" ])

(* [None] when the schema has no ShExC notation: Extended-mode
   predicate sets become OCaml regression tests instead of corpus
   files. *)
let write_repro dir ~seed ~mode ~detail c =
  let prefix = if mode = Edits then "oracle-edits-seed" else "oracle-seed" in
  let path = Filename.concat dir (Printf.sprintf "%s%d.repro" prefix seed) in
  match repro_to_string ~seed ~mode ~detail c with
  | text ->
      Json.write_file_atomic path text;
      Some path
  | exception Invalid_argument _ -> None

let split_sections content =
  let lines = String.split_on_char '\n' content in
  let section_of = function
    | "%schema" -> Some `Schema
    | "%data" -> Some `Data
    | "%map" -> Some `Map
    | "%edits" -> Some `Edits
    | _ -> None
  in
  let rec go current acc = function
    | [] -> Ok acc
    | line :: rest -> (
        match section_of (String.trim line) with
        | Some s -> go (Some s) acc rest
        | None -> (
            match current with
            | None ->
                if String.trim line = "" || String.length line > 0 && line.[0] = '#'
                then go current acc rest
                else Error (Printf.sprintf "unexpected line before %%schema: %s" line)
            | Some s ->
                let key = function
                  | `Schema -> 0
                  | `Data -> 1
                  | `Map -> 2
                  | `Edits -> 3
                in
                let acc =
                  List.map
                    (fun (k, text) ->
                      if k = key s then (k, text ^ line ^ "\n") else (k, text))
                    acc
                in
                go current acc rest))
  in
  match go None [ (0, ""); (1, ""); (2, ""); (3, "") ] lines with
  | Error _ as e -> e
  | Ok acc ->
      Ok (List.assoc 0 acc, List.assoc 1 acc, List.assoc 2 acc, List.assoc 3 acc)

let parse_edit_lines text =
  let parse_line line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok None
    else if String.length line < 2 || (line.[0] <> '+' && line.[0] <> '-')
    then Error (Printf.sprintf "edits: line must start with + or -: %s" line)
    else
      let body = String.sub line 1 (String.length line - 1) in
      match Turtle.Ntriples.parse body with
      | Error e -> Error ("edits: " ^ e)
      | Ok g -> (
          match Rdf.Graph.to_list g with
          | [ tr ] ->
              Ok
                (Some
                   (if line.[0] = '+' then Workload.Rand_gen.Insert tr
                    else Workload.Rand_gen.Delete tr))
          | _ -> Error (Printf.sprintf "edits: expected one triple: %s" line))
  in
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ as e -> e
      | Ok edits -> (
          match parse_line line with
          | Error _ as e -> e
          | Ok None -> Ok edits
          | Ok (Some edit) -> Ok (edit :: edits)))
    (Ok [])
    (String.split_on_char '\n' text)
  |> Result.map List.rev

let ( let* ) = Result.bind

let replay_string content =
  let* schema_text, data_text, map_text, edits_text =
    split_sections content
  in
  let* doc =
    Result.map_error
      (fun e -> "schema: " ^ e)
      (Shexc.Shexc_parser.parse schema_text)
  in
  let* graph =
    Result.map_error
      (fun e -> "data: " ^ e)
      (Turtle.Parse.parse_graph data_text)
  in
  let* map =
    Result.map_error
      (fun e -> "map: " ^ e)
      (Shex.Shape_map.parse ~namespaces:doc.namespaces map_text)
  in
  let* edits = parse_edit_lines edits_text in
  let assocs = Shex.Shape_map.resolve map graph in
  if assocs = [] then Error "map: no associations"
  else
    match divergences doc.schema graph assocs with
    | d :: _ -> Error d.detail
    | [] -> (
        match edits with
        | [] -> Ok ()
        | _ -> (
            match edits_divergence doc.schema graph edits assocs with
            | Some d -> Error d.detail
            | None -> Ok ()))

let replay_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | content -> replay_string content
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Static-analysis checks                                              *)
(* ------------------------------------------------------------------ *)

(* Seeded semantic mutation for containment pairs.  Per rule: keep it
   unchanged (exercising the congruence fast path), widen it — [e?],
   [e ‖ junk⋆] and [e | fresh-arc] all accept every bag [e] accepts,
   so v1 ⊑ v2 is expected — or narrow it with an extra required arc,
   so counterexample witnesses are expected. *)
let mutate_schema rng (schema : Shex.Schema.t) =
  let module R = Shex.Rse in
  let module V = Shex.Value_set in
  let preds =
    List.concat_map
      (fun (_, (sh : Shex.Schema.shape)) ->
        List.filter_map
          (fun (a : R.arc) ->
            match a.R.pred with V.Pred p -> Some p | _ -> None)
          (R.arcs sh.Shex.Schema.expr))
      (Shex.Schema.shapes schema)
  in
  let fresh = Rdf.Iri.of_string_exn "http://mutation.invalid/extra" in
  let widen rng e =
    match Workload.Prng.int rng 3 with
    | 0 -> R.opt e
    | 1 ->
        let p = match preds with [] -> fresh | ps -> Workload.Prng.pick rng ps in
        R.and_ e (R.star (R.arc_v (V.Pred p) V.Obj_any))
    | _ -> R.or_ e (R.arc_v (V.Pred fresh) V.Obj_any)
  in
  let narrow e = R.and_ e (R.arc_v (V.Pred fresh) V.Obj_any) in
  let shapes =
    List.map
      (fun (l, (sh : Shex.Schema.shape)) ->
        let sh =
          match Workload.Prng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 -> sh
          | 5 | 6 | 7 -> { sh with Shex.Schema.expr = widen rng sh.Shex.Schema.expr }
          | _ -> { sh with Shex.Schema.expr = narrow sh.Shex.Schema.expr }
        in
        (l, sh))
      (Shex.Schema.shapes schema)
  in
  match Shex.Schema.make_shapes shapes with Ok s -> s | Error _ -> schema

(* Candidate focus nodes for fuzzing a Contained claim: everything the
   workload generator produced plus every graph node. *)
let fuzz_nodes c extra_graph =
  let add acc t = if List.exists (Rdf.Term.equal t) acc then acc else t :: acc in
  let of_graph g acc =
    List.fold_left
      (fun acc (tr : Rdf.Triple.t) ->
        add (add acc tr.Rdf.Triple.s) tr.Rdf.Triple.o)
      acc (Rdf.Graph.to_list g)
  in
  let acc = List.fold_left (fun acc (n, _) -> add acc n) [] c.associations in
  of_graph extra_graph (of_graph c.graph acc)

(* Containment arm: derive a mutated v2 from each seeded schema, run
   [Analysis.check_compat], then attack both verdict directions —
   a [Contained] claim must survive fuzzing (no generated node may
   satisfy v1@l and fail v2@l), and a [Refuted] witness must concretely
   validate under v1 and fail v2, directly, after a Turtle round-trip,
   and after delta-shrinking with the witness-preserving predicate. *)
let containment_check ~tally seed c =
  let found = ref [] in
  let fail fmt = Printf.ksprintf (fun detail -> found := detail :: !found) fmt in
  let v1 = c.schema in
  let rng = Workload.Prng.create ((seed * 2) + 1) in
  let v2 = mutate_schema rng v1 in
  let fuzz_graph, _ = Workload.Rand_gen.graph_for rng v2 in
  let compat = Analysis.check_compat ~max_states:2_000 v1 v2 in
  List.iter
    (fun (it : Analysis.compat_item) ->
      let l = it.Analysis.label in
      match it.Analysis.verdict with
      | Analysis.Inconclusive _ -> tally "inconclusive"
      | Analysis.Contained ->
          tally "contained";
          List.iter
            (fun g ->
              let s1 = Shex.Validate.session v1 g
              and s2 = Shex.Validate.session v2 g in
              List.iter
                (fun n ->
                  if
                    Shex.Validate.check_bool s1 n l
                    && not (Shex.Validate.check_bool s2 n l)
                  then
                    fail
                      "containment claim v1@<%s> ⊑ v2 refuted by fuzzing \
                       at node %s"
                      (Shex.Label.to_string l) (Rdf.Term.to_string n))
                (fuzz_nodes c g))
            [ c.graph; fuzz_graph ]
      | Analysis.Refuted w ->
          tally "refuted";
          let holds g focus =
            let s1 = Shex.Validate.session v1 g
            and s2 = Shex.Validate.session v2 g in
            Shex.Validate.check_bool s1 focus l
            && not (Shex.Validate.check_bool s2 focus l)
          in
          if not (holds w.Analysis.graph w.Analysis.focus) then
            fail
              "counterexample for <%s> does not replay (must satisfy v1, \
               fail v2)"
              (Shex.Label.to_string l)
          else begin
            (* Turtle round-trip (blank-node foci are renamed by
               reserialisation, so only IRI/literal foci replay) *)
            (match w.Analysis.focus with
            | Rdf.Term.Bnode _ -> ()
            | _ -> (
                match Turtle.Parse.parse_graph (Analysis.witness_turtle w) with
                | Error e -> fail "witness Turtle does not parse back: %s" e
                | Ok g ->
                    if not (holds g w.Analysis.focus) then
                      fail
                        "witness for <%s> stops replaying after a Turtle \
                         round-trip"
                        (Shex.Label.to_string l)));
            (* the shrinker must preserve the witness property *)
            let keep s g assocs =
              List.for_all
                (fun (n, l') ->
                  let s1 = Shex.Validate.session s g
                  and s2 = Shex.Validate.session v2 g in
                  Shex.Validate.check_bool s1 n l'
                  && not (Shex.Validate.check_bool s2 n l'))
                assocs
            in
            let s', g', assocs' =
              shrink_with ~keep v1 w.Analysis.graph [ (w.Analysis.focus, l) ]
            in
            if not (keep s' g' assocs') then
              fail "shrinker destroyed the containment witness for <%s>"
                (Shex.Label.to_string l)
          end)
    compat.Analysis.items;
  List.rev !found

(* Optimizer arm: the pre-validation optimizer must not change the
   validation report — same verdicts, same blame sets — on either the
   structural or the interned session path.  The comparison is
   byte-level after one normalisation: the [explain]/[reason] blame
   payload is a rendering of the expression under test — a rewritten
   expression prints different residuals, and pruning a provably-empty
   disjunct legitimately changes which obligation gets blamed
   (missing_arcs against the disjunct, blame_triple against ε) — so
   blame payloads are blanked on both sides before comparing.
   Everything else — every verdict bit, the conformance counts, node
   and shape of every entry, entry order — must agree byte for
   byte. *)
let rec blank_residuals = function
  | Json.Object fields ->
      Json.Object
        (List.map
           (fun (k, v) ->
             match k with
             | "explain" | "reason" -> (k, Json.String "<blame>")
             | _ -> (k, blank_residuals v))
           fields)
  | Json.Array xs -> Json.Array (List.map blank_residuals xs)
  | (Json.Null | Json.Bool _ | Json.Number _ | Json.String _) as j -> j

let optimizer_check ~tally seed c =
  let opt, changed = Analysis.optimize_stats c.schema in
  if changed > 0 then tally "rewritten";
  List.filter_map
    (fun (arm, interned) ->
      let report schema =
        let session = session_on ~interned schema c.graph in
        Json.to_string ~minify:true
          (blank_residuals
             (Shex.Report.to_json (Shex.Report.run session c.associations)))
      in
      if report c.schema = report opt then None
      else
        Some
          (Printf.sprintf
             "optimizer changed the %s report on seed %d (schemas must \
              validate identically)"
             arm seed))
    [ ("structural", false); ("interned", true) ]

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

type finding = { seed : int; detail : string; repro : string option }

type summary = {
  mode : mode;
  first_seed : int;
  seeds_run : int;
  tallies : (string * int) list;
  findings : finding list;
}

(* Edit-script seeds are derived from the case seed with a fixed xor
   so the same integer reproduces both the workload and its script
   (mirrored by the incremental property test). *)
let edits_rng seed = Workload.Prng.create (seed lxor 0x5eed)

(* Every mode but [Extended] checks the printable Surface workload;
   only [Edits] replays a script over it. *)
let generate mode seed =
  let (w : Workload.Rand_gen.case) =
    Workload.Rand_gen.case
      ~mode:
        (if mode = Extended then Workload.Rand_gen.Extended
         else Workload.Rand_gen.Surface)
      seed
  in
  { schema = w.schema;
    graph = w.graph;
    associations = w.associations;
    script =
      (if mode = Edits then
         Workload.Rand_gen.edit_script (edits_rng seed) w.schema w.graph 12
       else []) }

let case_divergences mode c =
  if mode = Edits then
    Option.to_list (edits_divergence c.schema c.graph c.script c.associations)
  else divergences c.schema c.graph c.associations

(* The divergence path the engine modes and the edits mode share: take
   the first divergence, shrink the case while one of the same arm and
   kind survives, find it again on the shrunk case, and write the
   repro when [dir] is given. *)
let divergence_check ?dir mode seed c =
  match case_divergences mode c with
  | [] -> None
  | d :: _ ->
      let same (d' : divergence) = d'.arm = d.arm && d'.kind = d.kind in
      let keep c = List.exists same (case_divergences mode c) in
      let c =
        if mode = Edits then shrink_edits ~keep c
        else
          let schema, graph, associations =
            shrink_with
              ~keep:(fun schema graph associations ->
                keep { c with schema; graph; associations })
              c.schema c.graph c.associations
          in
          { c with schema; graph; associations }
      in
      let detail =
        match List.find_opt same (case_divergences mode c) with
        | Some d -> d.detail
        | None -> d.detail
      in
      Some
        { seed;
          detail;
          repro =
            Option.bind dir (fun dir -> write_repro dir ~seed ~mode ~detail c) }

let check ?dir ~tally mode seed =
  let c = generate mode seed in
  let unwritten = List.map (fun detail -> { seed; detail; repro = None }) in
  match mode with
  | Surface | Extended | Edits ->
      Option.to_list (divergence_check ?dir mode seed c)
  | Containment -> unwritten (containment_check ~tally seed c)
  | Optimizer -> unwritten (optimizer_check ~tally seed c)

let run ?dir ?(log = ignore) mode ~first_seed ~count =
  let tallies = Hashtbl.create 4 and findings = ref [] in
  let tally k =
    Hashtbl.replace tallies k
      (1 + Option.value ~default:0 (Hashtbl.find_opt tallies k))
  in
  for seed = first_seed to first_seed + count - 1 do
    List.iter
      (fun f ->
        log (Printf.sprintf "seed %d: %s" f.seed f.detail);
        findings := f :: !findings)
      (check ?dir ~tally mode seed)
  done;
  { mode;
    first_seed;
    seeds_run = count;
    tallies = List.sort compare (List.of_seq (Hashtbl.to_seq tallies));
    findings = List.rev !findings }

let render s =
  let n = List.length s.findings in
  let plural word =
    Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")
  in
  let tally k = Option.value ~default:0 (List.assoc_opt k s.tallies) in
  let seeds =
    Printf.sprintf "seeds %d-%d" s.first_seed (s.first_seed + s.seeds_run - 1)
  in
  let headline =
    match s.mode with
    | Containment ->
        Printf.sprintf
          "oracle: %d seeds checked (containment arm, %s): %d contained \
           fuzz-checked, %d counterexamples re-verified, %d inconclusive, %s"
          s.seeds_run seeds (tally "contained") (tally "refuted")
          (tally "inconclusive") (plural "finding")
    | Optimizer ->
        Printf.sprintf
          "oracle: %d seeds checked (optimizer arm, %s): %d rewritten, \
           reports byte-compared, %s"
          s.seeds_run seeds (tally "rewritten") (plural "finding")
    | Edits when n = 0 ->
        Printf.sprintf "oracle: %d edit scripts checked (%s): no divergences"
          s.seeds_run seeds
    | Edits ->
        Printf.sprintf "oracle: %d edit scripts checked: %s" s.seeds_run
          (plural "divergence")
    | mode when n = 0 ->
        Printf.sprintf "oracle: %d seeds checked (%s mode, %s): no divergences"
          s.seeds_run (mode_text mode) seeds
    | mode ->
        Printf.sprintf "oracle: %d seeds checked (%s mode): %s" s.seeds_run
          (mode_text mode) (plural "divergence")
  in
  headline
  :: List.map
       (fun f ->
         Printf.sprintf "  seed %d: %s%s" f.seed f.detail
           (match f.repro with Some p -> " [" ^ p ^ "]" | None -> ""))
       s.findings
