type check_ref = Label.t -> Rdf.Term.t -> bool

let no_refs : check_ref = fun _ _ -> false

type instruments = {
  tele : Telemetry.t;
  steps : Telemetry.Counter.t;
  size_before : Telemetry.Histogram.t;
  size_after : Telemetry.Histogram.t;
}

let instruments tele =
  {
    tele;
    steps = Telemetry.counter tele "deriv_steps";
    size_before = Telemetry.histogram tele "deriv_size_before";
    size_after = Telemetry.histogram tele "deriv_size_after";
  }

let no_instruments = instruments Telemetry.disabled
let counters instr = [ instr.steps ]

(* One derivative step's worth of accounting.  Only reached when the
   registry is enabled, so the O(size) expression walks below never
   run on the disabled path. *)
let record instr n dt before after =
  Telemetry.Counter.incr instr.steps;
  Telemetry.Histogram.observe instr.size_before (Rse.size before);
  Telemetry.Histogram.observe instr.size_after (Rse.size after);
  if Telemetry.tracing instr.tele then
    Telemetry.emit instr.tele
      (Telemetry.instant "deriv_step"
         ([ ("focus", Telemetry.String (Rdf.Term.to_string n));
            ("triple", Telemetry.String (Format.asprintf "%a" Neigh.pp dt));
            ("size_before", Telemetry.Int (Rse.size before));
            ("size_after", Telemetry.Int (Rse.size after));
            ("nullable", Telemetry.Bool (Rse.nullable after));
            ("empty", Telemetry.Bool (Rse.equal after Rse.empty)) ]
         @
         if Telemetry.residuals instr.tele then
           [ ("before", Telemetry.String (Rse.to_string before));
             ("after", Telemetry.String (Rse.to_string after)) ]
         else []))

(* The ν check at neighbourhood exhaustion (the last line of the
   paper's walk tables): emitted only when all triples were consumed
   without pruning to ∅. *)
let record_nullable instr n residual verdict =
  if Telemetry.tracing instr.tele then
    Telemetry.emit instr.tele
      (Telemetry.instant "nullable_check"
         ([ ("focus", Telemetry.String (Rdf.Term.to_string n));
            ("size", Telemetry.Int (Rse.size residual));
            ("nullable", Telemetry.Bool verdict) ]
         @
         if Telemetry.residuals instr.tele then
           [ ("residual", Telemetry.String (Rse.to_string residual)) ]
         else []))

(* The step every matcher takes; [check_ref] entry points adapt onto it. *)
let step ?(ctors = Rse.smart_ctors) ~check dt e =
  let { Rse.mk_and; mk_or; mk_not } = ctors in
  let rec d (e : Rse.t) =
    match e with
    | Empty | Epsilon -> Rse.empty
    | Arc a -> if Neigh.arc_matches ~check a dt then Rse.epsilon else Rse.empty
    | Star inner -> mk_and (d inner) e
    | And (e1, e2) -> mk_or (mk_and (d e1) e2) (mk_and (d e2) e1)
    | Or (e1, e2) -> mk_or (d e1) (d e2)
    | Not inner -> mk_not (d inner)
    | Repeat (inner, m, n) ->
        mk_and (d inner)
          (Rse.repeat (max 0 (m - 1)) (Option.map pred n) inner)
  in
  d e

let deriv ?ctors ?(check_ref = no_refs) dt e =
  step ?ctors ~check:(Neigh.by_term check_ref) dt e

let deriv_graph ?ctors ?check_ref dts e =
  List.fold_left (fun e dt -> deriv ?ctors ?check_ref dt e) e dts

let matches ~check ?(instr = no_instruments) n dts e =
  (* Early exit on ∅ is sound only without negation: under ¬, ∅ can
     still become accepting. *)
  let can_prune = not (Rse.has_not e) in
  let rec consume e = function
    | [] ->
        let ok = Rse.nullable e in
        if Telemetry.tracing instr.tele then record_nullable instr n e ok;
        ok
    | dt :: rest ->
        let e' = step ~check dt e in
        if Telemetry.Counter.active instr.steps then record instr n dt e e';
        if can_prune && Rse.equal e' Rse.empty then false
        else consume e' rest
  in
  consume e dts

let matches_dts ?(check_ref = no_refs) ?instr n dts e =
  matches ~check:(Neigh.by_term check_ref) ?instr n dts e

type step = { consumed : Neigh.dtriple; after : Rse.t }
type trace = { initial : Rse.t; steps : step list; result : bool }

let matches_trace_dts ~check ?(instr = no_instruments) n dts e =
  let final, rev_steps =
    List.fold_left
      (fun (e, acc) dt ->
        let e' = step ~check dt e in
        if Telemetry.Counter.active instr.steps then record instr n dt e e';
        (e', { consumed = dt; after = e' } :: acc))
      (e, []) dts
  in
  let result = Rse.nullable final in
  if Telemetry.tracing instr.tele then record_nullable instr n final result;
  { initial = e; steps = List.rev rev_steps; result }

let pp_trace ppf t =
  Format.pp_open_vbox ppf 0;
  let remaining = ref (List.map (fun s -> s.consumed) t.steps) in
  let pp_remaining ppf dts =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Neigh.pp)
      dts
  in
  Format.fprintf ppf "%a \xe2\x89\x83 %a" Rse.pp t.initial pp_remaining
    !remaining;
  List.iter
    (fun s ->
      remaining := (match !remaining with [] -> [] | _ :: r -> r);
      Format.pp_print_cut ppf ();
      Format.fprintf ppf "\xe2\x87\x94 %a \xe2\x89\x83 %a" Rse.pp s.after
        pp_remaining !remaining)
    t.steps;
  Format.pp_print_cut ppf ();
  let final =
    match List.rev t.steps with [] -> t.initial | s :: _ -> s.after
  in
  Format.fprintf ppf "\xe2\x87\x94 \xce\xbd(%a) \xe2\x87\x94 %b" Rse.pp final
    t.result;
  Format.pp_close_box ppf ()
