type instruments = {
  tele : Telemetry.t;
  hits : Telemetry.Counter.t;
  misses : Telemetry.Counter.t;
  atoms : Telemetry.Counter.t;  (* gauges, added to as entries appear *)
  states : Telemetry.Counter.t;
  symbols : Telemetry.Counter.t;
}

let instruments tele =
  {
    tele;
    hits = Telemetry.counter tele "compiled_hits";
    misses = Telemetry.counter tele "compiled_misses";
    atoms = Telemetry.gauge tele "compiled_atoms";
    states = Telemetry.gauge tele "compiled_states";
    symbols = Telemetry.gauge tele "compiled_symbols";
  }

let no_instruments = instruments Telemetry.disabled
let counters instr = [ instr.hits; instr.misses ]

type t = {
  table : Hrse.table;
  atoms : Rse.arc array;  (* atom id -> the arc constraint it stands for *)
  start : Hrse.t;
  can_prune : bool;  (* negation-free: ∅ is a dead (rejecting) state *)
  symbols : (string, int) Hashtbl.t;  (* arc-class bitset -> symbol id *)
  mutable members : bool array array;  (* symbol id -> atom membership *)
  mutable memos : Hrse.memo array;
      (* symbol id -> its derivatives so far, kept for the automaton's
         life: a state's sub-expressions recur in later states, and
         each is derived once per symbol *)
  trans : (int * int, Hrse.t) Hashtbl.t;  (* (state id, symbol id) -> state *)
  states : (int, unit) Hashtbl.t;  (* ids of materialised DFA states *)
  dispatch : (bool * Rdf.Iri.t, int array) Hashtbl.t;
      (* (direction, predicate) -> atoms whose predicate set contains
         it: classification tests only these candidates' object
         constraints instead of every atom *)
  instr : instruments;
}

(* ------------------------------------------------------------------ *)
(* Compilation: intern the arcs as atoms, translate the expression     *)
(* ------------------------------------------------------------------ *)

let compile ?(instr = no_instruments) (e : Rse.t) =
  (* The alphabet: one atom per distinct arc constraint.  An arc that
     occurs twice (as in [a ‖ a]) is one atom, which both shrinks the
     classification bitset and lets hash-consing identify the
     sub-expressions built from it. *)
  let atoms = ref [] and n_atoms = ref 0 in
  let atom_id (a : Rse.arc) =
    match List.find_opt (fun (b, _) -> Rse.arc_equal a b) !atoms with
    | Some (_, i) -> i
    | None ->
        let i = !n_atoms in
        atoms := (a, i) :: !atoms;
        incr n_atoms;
        i
  in
  let table = Hrse.create () in
  let start = Hrse.of_rse table atom_id e in
  (* [!atoms] holds (arc, id) in reverse insertion order and ids were
     assigned consecutively, so reversing recovers index order. *)
  let atom_array = Array.of_list (List.rev_map fst !atoms) in
  let states = Hashtbl.create 64 in
  Hashtbl.replace states start.Hrse.id ();
  Telemetry.Counter.add instr.atoms (Array.length atom_array);
  Telemetry.Counter.incr instr.states;
  {
    table;
    atoms = atom_array;
    start;
    can_prune = not (Rse.has_not e);
    symbols = Hashtbl.create 16;
    members = [||];
    memos = [||];
    trans = Hashtbl.create 64;
    states;
    dispatch = Hashtbl.create 16;
    instr;
  }

(* ------------------------------------------------------------------ *)
(* Arc classes: classify a directed triple into a symbol               *)
(* ------------------------------------------------------------------ *)

(* Per-(direction, predicate) atom candidates, computed on first sight
   of a predicate and cached: atoms whose direction and predicate set
   accept the triple.  Classification then only evaluates the
   candidates' object constraints — on schemas with many predicates
   the bitset fill drops from O(atoms) predicate-set tests per triple
   to one table lookup plus the few candidates. *)
let candidates auto (dt : Neigh.dtriple) =
  let key = (Neigh.inverse dt, Rdf.Triple.predicate dt.triple) in
  match Hashtbl.find_opt auto.dispatch key with
  | Some c -> c
  | None ->
      let inverse, p = key in
      let acc = ref [] in
      for i = Array.length auto.atoms - 1 downto 0 do
        let a = auto.atoms.(i) in
        if Bool.equal a.Rse.inverse inverse && Value_set.pred_mem a.Rse.pred p
        then acc := i :: !acc
      done;
      let c = Array.of_list !acc in
      Hashtbl.replace auto.dispatch key c;
      c

(* The object half of an atom's test; direction and predicate were
   already decided by the dispatch table.  Candidates are in atom-id
   order, so reference checks happen in exactly the order the
   full [arc_matches] scan made them. *)
let atom_obj_matches ~check (a : Rse.arc) dt =
  match a.obj with
  | Rse.Values vo -> Value_set.obj_mem vo (Neigh.far dt)
  | Rse.Ref l -> check l dt

let classify auto ~check dt =
  let n = Array.length auto.atoms in
  let bits = Bytes.make n '0' in
  Array.iter
    (fun i ->
      if atom_obj_matches ~check auto.atoms.(i) dt then
        Bytes.set bits i '1')
    (candidates auto dt);
  let key = Bytes.unsafe_to_string bits in
  match Hashtbl.find_opt auto.symbols key with
  | Some s -> s
  | None ->
      let s = Hashtbl.length auto.symbols in
      Hashtbl.replace auto.symbols key s;
      Telemetry.Counter.incr auto.instr.symbols;
      let member = Array.init n (fun i -> key.[i] = '1') in
      auto.members <- Array.append auto.members [| member |];
      auto.memos <- Array.append auto.memos [| Hrse.memo () |];
      s

(* ------------------------------------------------------------------ *)
(* Lazy transitions                                                    *)
(* ------------------------------------------------------------------ *)

let step auto (state : Hrse.t) sym =
  match Hashtbl.find_opt auto.trans (state.Hrse.id, sym) with
  | Some s' ->
      Telemetry.Counter.incr auto.instr.hits;
      s'
  | None ->
      Telemetry.Counter.incr auto.instr.misses;
      let s' =
        Hrse.deriv ~memo:auto.memos.(sym) auto.table auto.members.(sym) state
      in
      Hashtbl.replace auto.trans (state.Hrse.id, sym) s';
      if not (Hashtbl.mem auto.states s'.Hrse.id) then begin
        Hashtbl.replace auto.states s'.Hrse.id ();
        Telemetry.Counter.incr auto.instr.states
      end;
      s'

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

(* The compiled engine's provenance events mirror the interpreted
   derivative matcher's: one [deriv_step] per consumed triple (here a
   DFA edge — states instead of expression sizes) and one
   [nullable_check] at neighbourhood exhaustion, so trace consumers
   see one vocabulary whichever engine ran. *)
let record_step tele n dt (state : Hrse.t) (state' : Hrse.t) =
  Telemetry.emit tele
    (Telemetry.instant "deriv_step"
       ([ ("focus", Telemetry.String (Rdf.Term.to_string n));
          ("triple", Telemetry.String (Format.asprintf "%a" Neigh.pp dt));
          ("state", Telemetry.Int state.Hrse.id);
          ("state_after", Telemetry.Int state'.Hrse.id);
          ("nullable", Telemetry.Bool state'.Hrse.nullable);
          ("empty", Telemetry.Bool (Hrse.is_empty state')) ]
       @
       if Telemetry.residuals tele then
         [ ("before", Telemetry.String (Format.asprintf "%a" Hrse.pp state));
           ("after", Telemetry.String (Format.asprintf "%a" Hrse.pp state'))
         ]
       else []))

let record_nullable tele n (state : Hrse.t) =
  Telemetry.emit tele
    (Telemetry.instant "nullable_check"
       ([ ("focus", Telemetry.String (Rdf.Term.to_string n));
          ("state", Telemetry.Int state.Hrse.id);
          ("nullable", Telemetry.Bool state.Hrse.nullable) ]
       @
       if Telemetry.residuals tele then
         [ ("residual", Telemetry.String (Format.asprintf "%a" Hrse.pp state))
         ]
       else []))

let matches ~check auto n dts =
  let tele = auto.instr.tele in
  let tracing = Telemetry.tracing tele in
  let rec consume (state : Hrse.t) = function
    | [] ->
        if tracing then record_nullable tele n state;
        state.Hrse.nullable
    | dt :: rest ->
        let state' = step auto state (classify auto ~check dt) in
        if tracing then record_step tele n dt state state';
        if auto.can_prune && Hrse.is_empty state' then false
        else consume state' rest
  in
  consume auto.start dts

let matches_dts ?(check_ref = Deriv.no_refs) auto n dts =
  matches ~check:(Neigh.by_term check_ref) auto n dts
