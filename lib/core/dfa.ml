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
  has_inverse : bool;  (* include incoming triples in neighbourhoods *)
  can_prune : bool;  (* negation-free: ∅ is a dead (rejecting) state *)
  symbols : (string, int) Hashtbl.t;  (* arc-class bitset -> symbol id *)
  mutable members : bool array array;  (* symbol id -> atom membership *)
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
  (* The alphabet: one atom per distinct arc constraint.  Duplicated
     arcs (e.g. the two copies [repeat] expands) share an atom, which
     both shrinks the classification bitset and lets hash-consing
     identify the sub-expressions built from them. *)
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
  let rec conv (e : Rse.t) =
    match e with
    | Rse.Empty -> Hrse.empty table
    | Rse.Epsilon -> Hrse.epsilon table
    | Rse.Arc a -> Hrse.atom table (atom_id a)
    | Rse.Star inner -> Hrse.star table (conv inner)
    | Rse.And (e1, e2) -> Hrse.and_ table (conv e1) (conv e2)
    | Rse.Or (e1, e2) -> Hrse.or_ table (conv e1) (conv e2)
    | Rse.Not inner -> Hrse.not_ table (conv inner)
  in
  let start = conv e in
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
    has_inverse = Rse.has_inverse e;
    can_prune = not (Rse.has_not e);
    symbols = Hashtbl.create 16;
    members = [||];
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
  let key = (dt.inverse, Rdf.Triple.predicate dt.triple) in
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
   order, so [check_ref] consultations happen in exactly the order the
   full [arc_matches] scan made them. *)
let atom_obj_matches ~check_ref (a : Rse.arc) (dt : Neigh.dtriple) =
  let far =
    if dt.inverse then Rdf.Triple.subject dt.triple
    else Rdf.Triple.obj dt.triple
  in
  match a.obj with
  | Rse.Values vo -> Value_set.obj_mem vo far
  | Rse.Ref l -> check_ref l far

let classify auto ~check_ref dt =
  let n = Array.length auto.atoms in
  let bits = Bytes.make n '0' in
  Array.iter
    (fun i ->
      if atom_obj_matches ~check_ref auto.atoms.(i) dt then
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
      s

(* ------------------------------------------------------------------ *)
(* Lazy transitions: hash-consed symbolic derivative                   *)
(* ------------------------------------------------------------------ *)

(* ∂symbol(e), where the symbol is the set of atoms the consumed
   triple matches.  Identical to Deriv.deriv with [arc_matches]
   replaced by bitset membership; memoised per hash-consed node within
   one transition computation (sub-expressions are shared, so the memo
   prevents re-deriving them). *)
let deriv auto member state =
  let tbl = auto.table in
  let memo : (int, Hrse.t) Hashtbl.t = Hashtbl.create 16 in
  let rec d (e : Hrse.t) =
    match Hashtbl.find_opt memo e.Hrse.id with
    | Some r -> r
    | None ->
        let r =
          match e.Hrse.node with
          | Hrse.Empty | Hrse.Epsilon -> Hrse.empty tbl
          | Hrse.Atom i ->
              if member.(i) then Hrse.epsilon tbl else Hrse.empty tbl
          | Hrse.Star inner -> Hrse.and_ tbl (d inner) e
          | Hrse.And es ->
              (* ∂(e₁ ‖ … ‖ eₖ) = ⋁ᵢ ∂eᵢ ‖ rest.  Duplicate conjuncts
                 (a bag) yield identical disjuncts; skip them. *)
              let rec splits acc before = function
                | [] -> acc
                | e :: rest ->
                    let acc =
                      match before with
                      | b :: _ when Hrse.equal b e -> acc
                      | _ ->
                          Hrse.and_all tbl (d e :: List.rev_append before rest)
                          :: acc
                    in
                    splits acc (e :: before) rest
              in
              Hrse.or_all tbl (splits [] [] es)
          | Hrse.Or es -> Hrse.or_all tbl (List.map d es)
          | Hrse.Not inner -> Hrse.not_ tbl (d inner)
        in
        Hashtbl.replace memo e.Hrse.id r;
        r
  in
  d state

let step auto (state : Hrse.t) sym =
  match Hashtbl.find_opt auto.trans (state.Hrse.id, sym) with
  | Some s' ->
      Telemetry.Counter.incr auto.instr.hits;
      s'
  | None ->
      Telemetry.Counter.incr auto.instr.misses;
      let s' = deriv auto auto.members.(sym) state in
      Hashtbl.replace auto.trans (state.Hrse.id, sym) s';
      if not (Hashtbl.mem auto.states s'.Hrse.id) then begin
        Hashtbl.replace auto.states s'.Hrse.id ();
        Telemetry.Counter.incr auto.instr.states
      end;
      s'

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

let no_refs _ _ = false

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

let matches_dts ?(check_ref = no_refs) auto n dts =
  let tele = auto.instr.tele in
  let tracing = Telemetry.tracing tele in
  let rec consume (state : Hrse.t) = function
    | [] ->
        if tracing then record_nullable tele n state;
        state.Hrse.nullable
    | dt :: rest ->
        let state' = step auto state (classify auto ~check_ref dt) in
        if tracing then record_step tele n dt state state';
        if auto.can_prune && Hrse.is_empty state' then false
        else consume state' rest
  in
  consume auto.start dts

let matches ?check_ref auto n g =
  let dts = Neigh.of_node ~include_inverse:auto.has_inverse n g in
  matches_dts ?check_ref auto n dts
