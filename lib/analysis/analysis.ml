(* Static analysis of shape expression schemas by derivative-space
   exploration.  See analysis.mli for the soundness contract and
   DESIGN.md §15 for the construction. *)

open Shex

type witness = { focus : Rdf.Term.t; graph : Rdf.Graph.t }
type emptiness = Satisfiable of witness | Empty | Unknown of string
type containment = Contained | Refuted of witness | Inconclusive of string
type compat_item = { label : Label.t; verdict : containment }

type compat = {
  items : compat_item list;
  removed : Label.t list;
  added : Label.t list;
}

type hygiene = {
  unreachable : Label.t list;
  unsatisfiable : Label.t list;
  roots : Label.t list;
}

(* ------------------------------------------------------------------ *)
(* Sides, atoms, letters                                               *)
(* ------------------------------------------------------------------ *)

(* Containment analyses two schemas at once; the same label string may
   name different shapes in each, so every [Ref] atom is tagged with
   the schema it resolves in.  [Values] atoms are side-free and shared. *)
type side = Lft | Rgt

let side_ix = function Lft -> 0 | Rgt -> 1
let side_equal a b = side_ix a = side_ix b

let ref_side_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> side_equal x y
  | None, Some _ | Some _, None -> false

type atom = { arc : Rse.arc; ref_side : side option }

(* How to realise a letter's object in a concrete witness graph. *)
type obj_template = Concrete of Rdf.Term.t | Fresh_node

(* What the letter's far node must (not) satisfy for the letter's
   [Ref]-atom bits to come true in a real graph. *)
type far_req = { must : (side * Label.t) list; must_not : (side * Label.t) list }

(* A letter of the analysis alphabet: an equivalence class of directed
   triples, identified by the set of atoms it matches, carrying one
   concrete template that realises it. *)
type letter = {
  bits : bool array;
  l_inverse : bool;
  l_pred : Rdf.Iri.t;
  l_obj : obj_template;
  l_req : far_req;
}

(* Per-(side, label) capabilities: can some node satisfy / fail the
   shape?  Computed as a greatest fixpoint, consistent with the
   coinductive reference semantics of §8. *)
type cap = { can_sat : bool; can_fail : bool }

type refut_info = Refut_focus | Refut_expr of int list

type env = {
  sides : (side * Schema.t) list;
  congruent : (string, unit) Hashtbl.t;
      (** labels defined structurally identically (transitively) in
          both schemas: their [Ref] atoms collapse onto [Lft], so a
          letter cannot claim a far node satisfies [l] under one
          schema while failing the identical [l] under the other *)
  assumed : (string, unit) Hashtbl.t;
      (** coinductively assumed containments [l1 ⊑ l2] (left label in
          S1, right label in S2): no letter may claim a far node
          satisfies [(Lft, l1)] while failing [(Rgt, l2)], because
          such a node would itself be a counterexample to an
          assumption still under simultaneous check *)
  atoms : atom array;
  tbl : Hrse.table;
  mutable letters : letter array;
  caps : (int * string, cap) Hashtbl.t;
  sat_paths : (int * string, int list) Hashtbl.t;
  refut_paths : (int * string, refut_info) Hashtbl.t;
  trans : (int * int, Hrse.t) Hashtbl.t;
  states_counter : Telemetry.Counter.t;
  max_states : int;
  max_work : int;
      (** per search, in {!Hrse.work} units: states alone do not bound
          a search's time, because derivatives of interleavings and
          negations can grow with every step *)
  obj_samples : Rdf.Term.t list;
  pred_samples : Rdf.Iri.t list;
  dirs : bool list;
}

let cap_key side l = (side_ix side, Label.to_string l)
let assume_key l1 l2 = Label.to_string l1 ^ "\x01" ^ Label.to_string l2

let get_cap env side l =
  match Hashtbl.find_opt env.caps (cap_key side l) with
  | Some c -> c
  | None -> { can_sat = true; can_fail = true }

let schema_of env side =
  snd (List.find (fun (s, _) -> side_equal s side) env.sides)

(* ------------------------------------------------------------------ *)
(* Sampling the object and predicate universes                         *)
(* ------------------------------------------------------------------ *)

let fresh_ns = "http://analysis.invalid/"
let fresh_far_iri = Rdf.Iri.of_string_exn (fresh_ns ^ "far")
let fresh_far = Rdf.Term.Iri fresh_far_iri
let fresh_pred = Rdf.Iri.of_string_exn (fresh_ns ^ "p")

let rec dedup eq = function
  | [] -> []
  | x :: rest -> x :: dedup eq (List.filter (fun y -> not (eq x y)) rest)

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

let datatype_rep (dt : Rdf.Xsd.primitive) =
  let lex =
    match dt with
    | String | Lang_string -> "v"
    | Boolean -> "true"
    | Decimal | Double | Float -> "1.5"
    | Integer | Long | Int | Short | Byte | Non_negative_integer
    | Positive_integer | Unsigned_long | Unsigned_int | Unsigned_short
    | Unsigned_byte ->
        "1"
    | Non_positive_integer -> "0"
    | Negative_integer -> "-1"
    | Date -> "2024-01-01"
    | Date_time -> "2024-01-01T00:00:00"
    | Time -> "12:00:00"
    | Any_uri -> "http://example.org/u"
  in
  match dt with
  | Rdf.Xsd.Lang_string -> Rdf.Term.Literal (Rdf.Literal.make ~lang:"en" lex)
  | _ -> Rdf.Term.Literal (Rdf.Literal.typed dt lex)

(* Value-space membership ([Term.value_equal]) means a numeric value
   can enter an [Obj_in] set wearing a different datatype; sample those
   cross-datatype representatives too so the letter alphabet separates
   "value-equal" from "well-typed". *)
let numeric_variants t acc =
  match t with
  | Rdf.Term.Literal l -> (
      match Rdf.Literal.xsd_primitive l with
      | Some
          ( Integer | Long | Int | Short | Byte | Non_negative_integer
          | Positive_integer | Non_positive_integer | Negative_integer
          | Unsigned_long | Unsigned_int | Unsigned_short | Unsigned_byte ) ->
          Rdf.Term.Literal
            (Rdf.Literal.typed Rdf.Xsd.Decimal (Rdf.Literal.lexical l ^ ".0"))
          :: acc
      | Some Rdf.Xsd.Decimal -> (
          match Rdf.Literal.as_int l with
          | Some n -> Rdf.Term.Literal (Rdf.Literal.integer n) :: acc
          | None -> acc)
      | _ -> acc)
  | Rdf.Term.Iri _ | Rdf.Term.Bnode _ -> acc

let stem_rep s acc =
  match Rdf.Iri.of_string (s ^ "x") with
  | Ok i -> Rdf.Term.Iri i :: acc
  | Error _ -> acc

let rec obj_sample_terms (vo : Value_set.obj) acc =
  match vo with
  | Value_set.Obj_any | Value_set.Obj_kind _ -> acc
  | Value_set.Obj_in ts -> List.rev_append ts acc
  | Value_set.Obj_datatype dt -> datatype_rep dt :: acc
  | Value_set.Obj_datatype_iri i ->
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:i "v") :: acc
  | Value_set.Obj_stem s -> stem_rep s acc
  | Value_set.Obj_or vs ->
      List.fold_left (fun acc v -> obj_sample_terms v acc) acc vs
  | Value_set.Obj_not v -> obj_sample_terms v acc

let rec pred_sample_iris (vp : Value_set.pred) acc =
  match vp with
  | Value_set.Pred i -> i :: acc
  | Value_set.Pred_in is -> List.rev_append is acc
  | Value_set.Pred_stem s -> (
      match Rdf.Iri.of_string (s ^ "x") with
      | Ok i -> i :: acc
      | Error _ -> acc)
  | Value_set.Pred_any -> acc
  | Value_set.Pred_compl ps ->
      List.fold_left (fun acc p -> pred_sample_iris p acc) acc ps

let kind_reps =
  [
    Rdf.Term.bnode "analysis0";
    Rdf.Term.str "analysis-fresh";
    Rdf.Term.int 7919;
  ]

(* ------------------------------------------------------------------ *)
(* Environment construction                                            *)
(* ------------------------------------------------------------------ *)

let focus_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Value_set.obj_equal x y
  | None, Some _ | Some _, None -> false

(* Labels whose definitions agree structurally in both schemas, and
   transitively reference only such labels.  ([Rse.equal] compares
   reference labels by name, so the fixpoint closes the loop.) *)
let compute_congruent sides =
  let tbl = Hashtbl.create 16 in
  (match sides with
  | [ (_, s1); (_, s2) ] ->
      List.iter
        (fun l ->
          match (Schema.find_shape s1 l, Schema.find_shape s2 l) with
          | Some a, Some b
            when Rse.equal a.Schema.expr b.Schema.expr
                 && focus_opt_equal a.Schema.focus b.Schema.focus ->
              Hashtbl.replace tbl (Label.to_string l) ()
          | _ -> ())
        (Schema.labels s1);
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun l ->
            if Hashtbl.mem tbl (Label.to_string l) then
              match Schema.find_shape s1 l with
              | Some sh ->
                  if
                    not
                      (Label.Set.for_all
                         (fun r -> Hashtbl.mem tbl (Label.to_string r))
                         (Rse.refs sh.Schema.expr))
                  then begin
                    Hashtbl.remove tbl (Label.to_string l);
                    changed := true
                  end
              | None -> ())
          (Schema.labels s1)
      done
  | _ -> ());
  tbl

let canon_side congruent side l =
  if Hashtbl.mem congruent (Label.to_string l) then Lft else side

(* Each search may also spend this much {!Hrse.work} per allowed
   state, so the state cap bounds its time too. *)
let work_per_state = 200

let make_env ?(tele = Telemetry.disabled) ?(max_states = 20_000)
    ?(extra_preds = []) ?(extra_objects = []) ?(assume = []) sides =
  let congruent = compute_congruent sides in
  let assumed = Hashtbl.create 8 in
  List.iter (fun (l1, l2) -> Hashtbl.replace assumed (assume_key l1 l2) ()) assume;
  let atoms = ref [] in
  let add_arc side (a : Rse.arc) =
    let rs =
      match a.Rse.obj with
      | Rse.Ref l -> Some (canon_side congruent side l)
      | Rse.Values _ -> None
    in
    if
      not
        (List.exists
           (fun at -> Rse.arc_equal at.arc a && ref_side_equal at.ref_side rs)
           !atoms)
    then atoms := { arc = a; ref_side = rs } :: !atoms
  in
  let objs = ref [] and preds = ref [] in
  List.iter
    (fun (side, schema) ->
      List.iter
        (fun (_, (sh : Schema.shape)) ->
          List.iter
            (fun (a : Rse.arc) ->
              add_arc side a;
              preds := pred_sample_iris a.Rse.pred !preds;
              match a.Rse.obj with
              | Rse.Values vo -> objs := obj_sample_terms vo !objs
              | Rse.Ref _ -> ())
            (Rse.arcs sh.Schema.expr);
          match sh.Schema.focus with
          | Some vo -> objs := obj_sample_terms vo !objs
          | None -> ())
        (Schema.shapes schema))
    sides;
  let objs = List.fold_left (fun acc t -> numeric_variants t acc) !objs !objs in
  let obj_samples =
    take 96 (dedup Rdf.Term.equal (kind_reps @ List.rev objs @ extra_objects))
  in
  let pred_samples =
    take 48 (dedup Rdf.Iri.equal (fresh_pred :: (List.rev !preds @ extra_preds)))
  in
  let atoms = Array.of_list (List.rev !atoms) in
  let dirs =
    false
    :: (if Array.exists (fun at -> at.arc.Rse.inverse) atoms then [ true ]
        else [])
  in
  {
    sides;
    congruent;
    assumed;
    atoms;
    tbl = Hrse.create ();
    letters = [||];
    caps = Hashtbl.create 16;
    sat_paths = Hashtbl.create 16;
    refut_paths = Hashtbl.create 16;
    trans = Hashtbl.create 256;
    states_counter =
      Telemetry.counter tele
        ~help:"states explored by static-analysis derivative searches"
        "analysis_states_explored";
    max_states;
    max_work = work_per_state * max_states;
    obj_samples;
    pred_samples;
    dirs;
  }

(* ------------------------------------------------------------------ *)
(* Letters                                                             *)
(* ------------------------------------------------------------------ *)

(* Closed-world verdict used for literal far nodes: a literal can
   carry no outgoing arcs, so (when the shape reads no incoming arcs)
   it conforms iff the focus constraint accepts it and the expression
   is nullable.  Shapes with inverse arcs would also see the incoming
   letter triple; we keep the empty-neighbourhood approximation there
   and rely on witness verification to gate any misclassification. *)
let literal_conforms env side l (t : Rdf.Term.t) =
  let schema = schema_of env side in
  match Schema.find_shape schema l with
  | None -> false
  | Some sh ->
      (match sh.Schema.focus with
      | None -> true
      | Some vo -> Value_set.obj_mem vo t)
      && Rse.nullable sh.Schema.expr

let classify_values env ~inverse ~pred obj_term bits =
  Array.iteri
    (fun i at ->
      match at.arc.Rse.obj with
      | Rse.Values vo ->
          if
            Bool.equal at.arc.Rse.inverse inverse
            && Value_set.pred_mem at.arc.Rse.pred pred
            && Value_set.obj_mem vo obj_term
          then bits.(i) <- true
      | Rse.Ref _ -> ())
    env.atoms

(* Enumerate the satisfy/fail assignments the current capabilities
   allow over a list of referenced (side, label) pairs, capped. *)
let ref_assignments env ref_labels =
  let choices =
    List.map
      (fun (s, l) ->
        let c = get_cap env s l in
        let opts =
          (if c.can_sat then [ true ] else [])
          @ if c.can_fail then [ false ] else []
        in
        ((s, l), if opts = [] then [ false ] else opts))
      ref_labels
  in
  let out = ref [] and count = ref 0 in
  let rec go assign = function
    | [] -> if !count < 64 then (out := List.rev assign :: !out; incr count)
    | (sl, opts) :: rest ->
        List.iter (fun v -> if !count < 64 then go ((sl, v) :: assign) rest) opts
  in
  go [] choices;
  List.rev !out

(* An assignment claiming a far node satisfies [(Lft, l1)] while
   failing [(Rgt, l2)] for an assumed containment l1 ⊑ l2 presupposes
   a counterexample to an assumption still under simultaneous check:
   infeasible under the coinduction, so the letter is never minted. *)
let assumption_infeasible env must must_not =
  Hashtbl.length env.assumed > 0
  && List.exists
       (fun (s1, l1) ->
         side_equal s1 Lft
         && List.exists
              (fun (s2, l2) ->
                side_equal s2 Rgt
                && Hashtbl.mem env.assumed (assume_key l1 l2))
              must_not)
       must

let build_letters env =
  Hashtbl.reset env.trans;
  let n = Array.length env.atoms in
  let seen = Hashtbl.create 97 in
  let acc = ref [] in
  let add bits inverse pred obj req =
    let key = String.init n (fun i -> if bits.(i) then '1' else '0') in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      acc :=
        { bits; l_inverse = inverse; l_pred = pred; l_obj = obj; l_req = req }
        :: !acc
    end
  in
  List.iter
    (fun inverse ->
      List.iter
        (fun pred ->
          (* Ref atoms this (direction, predicate) can reach. *)
          let ref_cands = ref [] in
          Array.iteri
            (fun i at ->
              match (at.arc.Rse.obj, at.ref_side) with
              | Rse.Ref l, Some s ->
                  if
                    Bool.equal at.arc.Rse.inverse inverse
                    && Value_set.pred_mem at.arc.Rse.pred pred
                  then ref_cands := (i, s, l) :: !ref_cands
              | _ -> ())
            env.atoms;
          let ref_cands = List.rev !ref_cands in
          let ref_labels =
            dedup
              (fun (s1, l1) (s2, l2) ->
                side_equal s1 s2 && Label.equal l1 l2)
              (List.map (fun (_, s, l) -> (s, l)) ref_cands)
          in
          let do_obj obj_term templ =
            let base = Array.make n false in
            classify_values env ~inverse ~pred obj_term base;
            if Rdf.Term.is_literal obj_term then begin
              List.iter
                (fun (i, s, l) ->
                  if literal_conforms env s l obj_term then base.(i) <- true)
                ref_cands;
              add base inverse pred templ { must = []; must_not = [] }
            end
            else
              List.iter
                (fun assign ->
                  let bits = Array.copy base in
                  let value s l =
                    List.exists
                      (fun ((s', l'), v) ->
                        v && side_equal s s' && Label.equal l l')
                      assign
                  in
                  List.iter
                    (fun (i, s, l) -> if value s l then bits.(i) <- true)
                    ref_cands;
                  let must =
                    List.filter_map
                      (fun (sl, v) -> if v then Some sl else None)
                      assign
                  and must_not =
                    List.filter_map
                      (fun (sl, v) -> if v then None else Some sl)
                      assign
                  in
                  if not (assumption_infeasible env must must_not) then
                    add bits inverse pred templ { must; must_not })
                (ref_assignments env ref_labels)
          in
          (* Fresh template first: it is the one the witness builder can
             mint unboundedly, so it should win bitset dedup ties. *)
          do_obj fresh_far Fresh_node;
          List.iter (fun t -> do_obj t (Concrete t)) env.obj_samples)
        env.pred_samples)
    env.dirs;
  env.letters <- Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Symbolic derivative and searches                                    *)
(* ------------------------------------------------------------------ *)

let atom_ix env side (a : Rse.arc) =
  let rs =
    match a.Rse.obj with
    | Rse.Ref l -> Some (canon_side env.congruent side l)
    | Rse.Values _ -> None
  in
  let rec find i =
    if i >= Array.length env.atoms then
      invalid_arg "Analysis: arc outside the compiled alphabet"
    else if
      Rse.arc_equal env.atoms.(i).arc a
      && ref_side_equal env.atoms.(i).ref_side rs
    then i
    else find (i + 1)
  in
  find 0

let conv env side e = Hrse.of_rse env.tbl (atom_ix env side) e

let step env (state : Hrse.t) li =
  match Hashtbl.find_opt env.trans (state.Hrse.id, li) with
  | Some s -> s
  | None ->
      let s' = Hrse.deriv env.tbl env.letters.(li).bits state in
      Hashtbl.replace env.trans (state.Hrse.id, li) s';
      s'

(* Validation only reads a node's incoming arcs when the expression
   under test mentions inverse arcs, so inverse letters are invisible
   (identity transitions) to inverse-free expressions. *)
let visible_letters env ~has_inv =
  let out = ref [] in
  Array.iteri
    (fun i lt -> if has_inv || not lt.l_inverse then out := i :: !out)
    env.letters;
  List.rev !out

type search = Reached of int list | Exhausted | Capped

exception Done

let explore env ~has_inv (start : Hrse.t) ~goal =
  if goal start then Reached []
  else begin
    let letters = visible_letters env ~has_inv in
    let visited = Hashtbl.create 256 in
    let parent = Hashtbl.create 256 in
    let q = Queue.create () in
    Hashtbl.replace visited start.Hrse.id ();
    Queue.add start q;
    let result = ref None and capped = ref false in
    let work0 = Hrse.work env.tbl in
    (try
       while not (Queue.is_empty q) do
         let s = Queue.pop q in
         List.iter
           (fun li ->
             let s' = step env s li in
             if not (Hashtbl.mem visited s'.Hrse.id) then begin
               Hashtbl.replace visited s'.Hrse.id ();
               Hashtbl.replace parent s'.Hrse.id (s.Hrse.id, li);
               Telemetry.Counter.incr env.states_counter;
               if goal s' then begin
                 result := Some s'.Hrse.id;
                 raise Done
               end;
               if Hashtbl.length visited > env.max_states then begin
                 capped := true;
                 raise Done
               end;
               Queue.add s' q
             end;
             if Hrse.work env.tbl - work0 > env.max_work then begin
               capped := true;
               raise Done
             end)
           letters
       done
     with Done -> ());
    match !result with
    | Some id ->
        let rec back id acc =
          if id = start.Hrse.id then acc
          else
            let p, li = Hashtbl.find parent id in
            back p (li :: acc)
        in
        Reached (back id [])
    | None -> if !capped then Capped else Exhausted
  end

(* Product search for containment: find a state pair with the left
   side nullable and the right side not.  Both sides consume the same
   letter, each through its own visibility filter. *)
let explore_product env ~has_inv1 ~has_inv2 (start1 : Hrse.t)
    (start2 : Hrse.t) ~collect =
  let goal (s1 : Hrse.t) (s2 : Hrse.t) = s1.Hrse.nullable && not s2.Hrse.nullable in
  let visited = Hashtbl.create 256 in
  let parent = Hashtbl.create 256 in
  let q = Queue.create () in
  let start_key = (start1.Hrse.id, start2.Hrse.id) in
  let goals = ref [] and n_goals = ref 0 and capped = ref false in
  Hashtbl.replace visited start_key ();
  if goal start1 start2 then begin
    goals := [ start_key ];
    incr n_goals
  end;
  Queue.add (start1, start2) q;
  let work0 = Hrse.work env.tbl in
  (try
     while not (Queue.is_empty q) && !n_goals < collect do
       let s1, s2 = Queue.pop q in
       Array.iteri
         (fun li lt ->
           let vis1 = has_inv1 || not lt.l_inverse
           and vis2 = has_inv2 || not lt.l_inverse in
           if vis1 || vis2 then begin
             let t1 = if vis1 then step env s1 li else s1
             and t2 = if vis2 then step env s2 li else s2 in
             let k = (t1.Hrse.id, t2.Hrse.id) in
             if not (Hashtbl.mem visited k) then begin
               Hashtbl.replace visited k ();
               Hashtbl.replace parent k ((s1.Hrse.id, s2.Hrse.id), li);
               Telemetry.Counter.incr env.states_counter;
               if goal t1 t2 then begin
                 goals := k :: !goals;
                 incr n_goals
               end;
               if Hashtbl.length visited > env.max_states then begin
                 capped := true;
                 raise Done
               end;
               Queue.add (t1, t2) q
             end;
             if Hrse.work env.tbl - work0 > env.max_work then begin
               capped := true;
               raise Done
             end
           end)
         env.letters
     done
   with Done -> ());
  let path_of k =
    let rec back k acc =
      if fst k = fst start_key && snd k = snd start_key then acc
      else
        let p, li = Hashtbl.find parent k in
        back p (li :: acc)
    in
    back k []
  in
  (List.rev_map path_of !goals, if !capped then `Capped else `Complete)

(* ------------------------------------------------------------------ *)
(* Capability fixpoint                                                 *)
(* ------------------------------------------------------------------ *)

let all_labels env =
  List.concat_map
    (fun (side, schema) ->
      List.map (fun l -> (side, l)) (Schema.labels schema))
    env.sides

let focus_candidates env = fresh_far :: env.obj_samples

let focus_sat env vo = List.exists (Value_set.obj_mem vo) (focus_candidates env)

let focus_rej env vo =
  List.exists (fun t -> not (Value_set.obj_mem vo t)) (focus_candidates env)

(* Greatest fixpoint: start every (side, label) at ⊤ = {can_sat;
   can_fail}, rebuild the letter alphabet from the current
   capabilities, re-derive each label's capabilities by search, and
   repeat until stable.  Capabilities only shrink, so this terminates
   in ≤ 2·|labels| + 1 rounds; starting at ⊤ matches the coinductive
   (greatest-fixpoint) reading of recursive shape references. *)
let compute_caps env =
  let labels = all_labels env in
  List.iter
    (fun (s, l) ->
      Hashtbl.replace env.caps (cap_key s l) { can_sat = true; can_fail = true })
    labels;
  let changed = ref true in
  let rounds = ref 0 and max_rounds = (2 * List.length labels) + 2 in
  while !changed && !rounds < max_rounds do
    incr rounds;
    changed := false;
    build_letters env;
    Hashtbl.reset env.sat_paths;
    Hashtbl.reset env.refut_paths;
    List.iter
      (fun (side, l) ->
        let schema = schema_of env side in
        let sh =
          match Schema.find_shape schema l with
          | Some sh -> sh
          | None -> assert false
        in
        let has_inv = Rse.has_inverse sh.Schema.expr in
        let key = cap_key side l in
        let f_ok =
          match sh.Schema.focus with
          | None -> true
          | Some vo -> focus_sat env vo
        and f_rej =
          match sh.Schema.focus with
          | None -> false
          | Some vo -> focus_rej env vo
        in
        let h = conv env side sh.Schema.expr in
        let sat =
          f_ok
          &&
          match explore env ~has_inv h ~goal:(fun s -> s.Hrse.nullable) with
          | Reached p ->
              Hashtbl.replace env.sat_paths key p;
              true
          | Capped -> true
          | Exhausted -> false
        in
        let expr_refut =
          f_ok
          &&
          match
            explore env ~has_inv h ~goal:(fun s -> not s.Hrse.nullable)
          with
          | Reached p ->
              Hashtbl.replace env.refut_paths key (Refut_expr p);
              true
          | Capped -> true
          | Exhausted -> false
        in
        if f_rej && not (Hashtbl.mem env.refut_paths key) then
          Hashtbl.replace env.refut_paths key Refut_focus;
        let fail = f_rej || expr_refut in
        let old = get_cap env side l in
        let nw =
          { can_sat = old.can_sat && sat; can_fail = old.can_fail && fail }
        in
        if nw.can_sat <> old.can_sat || nw.can_fail <> old.can_fail then
          changed := true;
        Hashtbl.replace env.caps key nw)
      labels
  done

(* ------------------------------------------------------------------ *)
(* Witness concretisation                                              *)
(* ------------------------------------------------------------------ *)

exception Give_up of string

type builder = {
  benv : env;
  mutable g : Rdf.Graph.t;
  mutable k : int;
  stack : (int * string, Rdf.Term.t) Hashtbl.t;
}

let fresh_node b =
  b.k <- b.k + 1;
  Rdf.Term.Iri (Rdf.Iri.of_string_exn (Printf.sprintf "%sn%d" fresh_ns b.k))

let max_depth = 12

(* Realise a letter path as concrete triples rooted at [node].  Far
   nodes are minted fresh; their shape requirements recurse through the
   recorded satisfaction/refutation paths, with an in-progress stack so
   coinductive cycles close back onto the ancestor node (the
   greatest-fixpoint reading: assuming the ancestor conforms is
   self-consistent).  Any residual conflict — node collisions, inverse
   arcs polluting a closed neighbourhood — is caught by the final
   Validate replay, never reported. *)
let rec attach b node path depth =
  if depth > max_depth then raise (Give_up "witness depth limit");
  List.iter
    (fun li ->
      let lt = b.benv.letters.(li) in
      let reuse =
        match (lt.l_obj, lt.l_req.must, lt.l_req.must_not) with
        | Fresh_node, [ (s, l) ], [] -> Hashtbl.find_opt b.stack (cap_key s l)
        | _ -> None
      in
      let obj =
        match (lt.l_obj, reuse) with
        | _, Some ancestor -> ancestor
        | Concrete t, None -> t
        | Fresh_node, None -> fresh_node b
      in
      let subject, object_ =
        if lt.l_inverse then (obj, node) else (node, obj)
      in
      (match Rdf.Triple.make_opt subject lt.l_pred object_ with
      | Some tr -> b.g <- Rdf.Graph.add tr b.g
      | None -> raise (Give_up "letter needs a literal subject"));
      if (not (Rdf.Term.is_literal obj)) && reuse = None then begin
        List.iter (fun (s, l) -> satisfy_at b s l obj (depth + 1)) lt.l_req.must;
        List.iter
          (fun (s, l) -> refute_at b s l obj (depth + 1))
          lt.l_req.must_not
      end)
    path

and satisfy_at b side l node depth =
  let key = cap_key side l in
  match Hashtbl.find_opt b.stack key with
  | Some n when Rdf.Term.equal n node -> ()
  | _ -> (
      let schema = schema_of b.benv side in
      let sh =
        match Schema.find_shape schema l with
        | Some sh -> sh
        | None -> raise (Give_up "unknown label")
      in
      (match sh.Schema.focus with
      | Some vo when not (Value_set.obj_mem vo node) ->
          raise (Give_up "focus constraint rejects a required far node")
      | Some _ | None -> ());
      match Hashtbl.find_opt b.benv.sat_paths key with
      | None -> raise (Give_up "no satisfaction path recorded")
      | Some p ->
          let saved = Hashtbl.find_opt b.stack key in
          Hashtbl.replace b.stack key node;
          attach b node p depth;
          (match saved with
          | None -> Hashtbl.remove b.stack key
          | Some n -> Hashtbl.replace b.stack key n))

and refute_at b side l node depth =
  let schema = schema_of b.benv side in
  let sh =
    match Schema.find_shape schema l with
    | Some sh -> sh
    | None -> raise (Give_up "unknown label")
  in
  match sh.Schema.focus with
  | Some vo when not (Value_set.obj_mem vo node) ->
      (* the node already fails the shape's focus constraint *)
      ()
  | Some _ | None -> (
      match Hashtbl.find_opt b.benv.refut_paths (cap_key side l) with
      | Some (Refut_expr p) -> attach b node p depth
      | Some Refut_focus ->
          raise (Give_up "refutation needs a focus-rejected node")
      | None -> raise (Give_up "no refutation path recorded"))

let choose_focus env (sh : Schema.shape) ?focus path =
  let needs_subject =
    List.exists (fun li -> not env.letters.(li).l_inverse) path
  in
  let candidates =
    match focus with Some t -> [ t ] | None -> focus_candidates env
  in
  List.find_opt
    (fun t ->
      (match sh.Schema.focus with
      | None -> true
      | Some vo -> Value_set.obj_mem vo t)
      && not (needs_subject && Rdf.Term.is_literal t))
    candidates

let concretise env side schema l ?focus path =
  match Schema.find_shape schema l with
  | None -> Error "unknown label"
  | Some sh -> (
      match choose_focus env sh ?focus path with
      | None -> Error "no usable focus node"
      | Some f -> (
          let b =
            { benv = env; g = Rdf.Graph.empty; k = 0; stack = Hashtbl.create 8 }
          in
          Hashtbl.replace b.stack (cap_key side l) f;
          try
            attach b f path 0;
            Ok { focus = f; graph = b.g }
          with Give_up msg -> Error msg))

let verified_sat schema l (w : witness) =
  let s = Validate.session schema w.graph in
  Validate.check_bool s w.focus l

(* ------------------------------------------------------------------ *)
(* Emptiness                                                           *)
(* ------------------------------------------------------------------ *)

let emptiness_of env side schema l =
  let key = cap_key side l in
  let c = get_cap env side l in
  if not c.can_sat then Empty
  else
    match Hashtbl.find_opt env.sat_paths key with
    | None -> Unknown "derivative-space search hit its state or work cap"
    | Some p -> (
        match concretise env side schema l p with
        | Error m -> Unknown ("witness construction failed: " ^ m)
        | Ok w ->
            if verified_sat schema l w then Satisfiable w
            else Unknown "candidate witness failed verification")

let shape_satisfiable ?(tele = Telemetry.disabled) ?max_states ?extra_preds
    ?extra_objects schema l =
  if not (Schema.mem schema l) then
    invalid_arg "Analysis.shape_satisfiable: unknown label";
  Telemetry.Span.time (Telemetry.span tele "analysis_emptiness") (fun () ->
      let env =
        make_env ~tele ?max_states ?extra_preds ?extra_objects
          [ (Lft, schema) ]
      in
      compute_caps env;
      emptiness_of env Lft schema l)

let probe_label = Label.of_string "http://analysis.invalid/probe"

let expr_satisfiable ?tele ?max_states ?extra_preds ?extra_objects schema expr
    =
  match
    Schema.make_shapes
      ((probe_label, { Schema.focus = None; expr }) :: Schema.shapes schema)
  with
  | Error m -> Unknown ("probe schema rejected: " ^ m)
  | Ok s ->
      shape_satisfiable ?tele ?max_states ?extra_preds ?extra_objects s
        probe_label

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let contains_in_env env s1 l1 s2 l2 =
  let sh1 =
    match Schema.find_shape s1 l1 with
    | Some sh -> sh
    | None -> invalid_arg "Analysis.contains: unknown label in S1"
  and sh2 =
    match Schema.find_shape s2 l2 with
    | Some sh -> sh
    | None -> invalid_arg "Analysis.contains: unknown label in S2"
  in
  let cap1 = get_cap env Lft l1 in
  if Label.equal l1 l2 && Hashtbl.mem env.congruent (Label.to_string l1) then
    (* Transitively identical definitions on both sides: containment is
       definitional, and the product search would otherwise walk the
       whole (diagonal) derivative space for nothing. *)
    Contained
  else if not cap1.can_sat then Contained (* S1 is empty: vacuous *)
  else begin
    let f1_ok t =
      match sh1.Schema.focus with
      | None -> true
      | Some vo -> Value_set.obj_mem vo t
    in
    (* A node accepted by S1's focus constraint but rejected by S2's
       refutes containment before any triple is consumed. *)
    let separator =
      match sh2.Schema.focus with
      | None -> None
      | Some vo2 ->
          List.find_opt
            (fun t -> f1_ok t && not (Value_set.obj_mem vo2 t))
            (focus_candidates env)
    in
    let has_inv1 = Rse.has_inverse sh1.Schema.expr
    and has_inv2 = Rse.has_inverse sh2.Schema.expr in
    let h1 = conv env Lft sh1.Schema.expr
    and h2 = conv env Rgt sh2.Schema.expr in
    let paths, completeness =
      explore_product env ~has_inv1 ~has_inv2 h1 h2 ~collect:24
    in
    let verify (w : witness) =
      let sess1 = Validate.session s1 w.graph
      and sess2 = Validate.session s2 w.graph in
      Validate.check_bool sess1 w.focus l1
      && not (Validate.check_bool sess2 w.focus l2)
    in
    let candidates =
      (match (separator, Hashtbl.find_opt env.sat_paths (cap_key Lft l1)) with
      | Some t, Some p -> [ (Some t, p) ]
      | _ -> [])
      @ List.map (fun p -> (None, p)) paths
    in
    let rec first_verified = function
      | [] -> None
      | (focus, p) :: rest -> (
          match concretise env Lft s1 l1 ?focus p with
          | Ok w when verify w -> Some w
          | Ok _ | Error _ -> first_verified rest)
    in
    match first_verified candidates with
    | Some w -> Refuted w
    | None -> (
        let no_separator = match separator with None -> true | Some _ -> false in
        match (paths, completeness) with
        | [], `Complete when no_separator -> Contained
        | [], `Capped -> Inconclusive "product search hit its state or work cap"
        | _ ->
            Inconclusive
              "counterexample candidates found but none survived \
               verification")
  end

(* Does any [Ref] atom occur in the scope of a [Not]?  The coinductive
   assumption discharge below is justified by an inductive failure
   witness for the right-hand side, which negation over references
   would break; such schemas fall back to the assumption-free search. *)
let rec refs_under_not ~neg (e : Rse.t) =
  match e with
  | Rse.Empty | Rse.Epsilon -> false
  | Rse.Arc a -> (
      match a.Rse.obj with Rse.Ref _ -> neg | Rse.Values _ -> false)
  | Rse.Star inner | Rse.Repeat (inner, _, _) -> refs_under_not ~neg inner
  | Rse.And (a, b) | Rse.Or (a, b) ->
      refs_under_not ~neg a || refs_under_not ~neg b
  | Rse.Not inner -> refs_under_not ~neg:true inner

let schema_refs_under_not s =
  List.exists
    (fun (_, (sh : Schema.shape)) -> refs_under_not ~neg:false sh.Schema.expr)
    (Schema.shapes s)

(* Check a set of containment pairs l1 ⊑ l2 simultaneously and
   coinductively, Amadio–Cardelli style: while a pair is assumed,
   letters presupposing a counterexample to it are never minted
   ([assumption_infeasible]), and the assumption set is shrunk to a
   fixpoint — any pair whose own search fails to come back [Contained]
   leaves the set and the survivors are re-checked against the smaller
   alphabet.  At the fixpoint the assumption set is exactly the set of
   [Contained] verdicts it produces, i.e. self-consistent.

   Soundness: [Refuted] verdicts carry a concrete graph verified by
   the real engine, so only [Contained] needs the coinductive
   argument.  Suppose some pair in the fixpoint set had a
   counterexample graph.  Its focus fails the right shape with an
   inductive (finite-depth) failure proof — this is where refs under
   negation are excluded — and the only letters its neighbourhood
   word could use beyond the searched alphabet are ones claiming a
   far object satisfies-left/fails-right for another fixpoint pair;
   that object is a counterexample to *that* pair with a strictly
   shallower right-failure proof.  The descent cannot continue
   forever, so some fixpoint pair has a counterexample within the
   searched alphabet — contradicting that its search was exhaustive
   with no goal. *)
let check_pairs ~tele ?max_states ?extra_preds ?extra_objects s1 s2 pairs =
  let run assume =
    let env =
      make_env ~tele ?max_states ?extra_preds ?extra_objects ~assume
        [ (Lft, s1); (Rgt, s2) ]
    in
    compute_caps env;
    List.map (fun (l1, l2) -> ((l1, l2), contains_in_env env s1 l1 s2 l2)) pairs
  in
  if schema_refs_under_not s1 || schema_refs_under_not s2 then run []
  else
    let pair_eq (a1, a2) (b1, b2) = Label.equal a1 b1 && Label.equal a2 b2 in
    let rec fix assume =
      let results = run assume in
      let contained =
        List.filter_map
          (fun (p, v) -> match v with Contained -> Some p | _ -> None)
          results
      in
      let assume' =
        List.filter (fun p -> List.exists (pair_eq p) contained) assume
      in
      if List.length assume' = List.length assume then results else fix assume'
    in
    fix pairs

let contains ?(tele = Telemetry.disabled) ?max_states ?extra_preds
    ?extra_objects s1 l1 s2 l2 =
  Telemetry.Span.time (Telemetry.span tele "analysis_containment") (fun () ->
      match
        check_pairs ~tele ?max_states ?extra_preds ?extra_objects s1 s2
          [ (l1, l2) ]
      with
      | [ (_, v) ] -> v
      | _ -> assert false)

let check_compat ?(tele = Telemetry.disabled) ?max_states ?extra_preds
    ?extra_objects s_old s_new =
  Telemetry.Span.time (Telemetry.span tele "analysis_compat") (fun () ->
      let old_ls = Schema.labels s_old and new_ls = Schema.labels s_new in
      let shared = List.filter (Schema.mem s_new) old_ls in
      let results =
        check_pairs ~tele ?max_states ?extra_preds ?extra_objects s_old s_new
          (List.map (fun l -> (l, l)) shared)
      in
      let items =
        List.map (fun ((l, _), verdict) -> { label = l; verdict }) results
      in
      let removed =
        List.filter (fun l -> not (Schema.mem s_new l)) old_ls
      and added = List.filter (fun l -> not (Schema.mem s_old l)) new_ls in
      { items; removed; added })

(* ------------------------------------------------------------------ *)
(* Hygiene                                                             *)
(* ------------------------------------------------------------------ *)

let hygiene ?roots schema =
  let labels = Schema.labels schema in
  let roots =
    match roots with
    | Some rs -> rs
    | None -> (
        match
          List.filter
            (fun l ->
              match Schema.find_shape schema l with
              | Some { Schema.focus = Some _; _ } -> true
              | Some { Schema.focus = None; _ } | None -> false)
            labels
        with
        | [] -> labels
        | with_focus -> with_focus)
  in
  let reach =
    List.fold_left
      (fun acc r ->
        if Schema.mem schema r then
          Label.Set.union acc (Schema.dependencies schema r)
        else acc)
      Label.Set.empty roots
  in
  let unreachable = List.filter (fun l -> not (Label.Set.mem l reach)) labels in
  let env = make_env [ (Lft, schema) ] in
  compute_caps env;
  let unsatisfiable =
    List.filter (fun l -> not (get_cap env Lft l).can_sat) labels
  in
  { unreachable; unsatisfiable; roots }

(* ------------------------------------------------------------------ *)
(* Pre-validation optimizer                                            *)
(* ------------------------------------------------------------------ *)

let rec disjuncts (e : Rse.t) =
  match e with Rse.Or (a, b) -> disjuncts a @ disjuncts b | e -> [ e ]

(* Sound subset test on object sets: [true] guarantees ⟦a⟧ ⊆ ⟦b⟧.
   Term-level reasoning is restricted to non-literals — value-space
   membership means a literal can belong to an [Obj_in] set under a
   different datatype, so literal subsumption is not decidable
   syntactically (the "1.0"^^decimal ∈ {1} trap). *)
let rec obj_subset a b =
  Value_set.obj_equal a b
  ||
  match (a, b) with
  | _, Value_set.Obj_any -> true
  | Value_set.Obj_stem s, Value_set.Obj_stem t ->
      String.length s >= String.length t
      && String.sub s 0 (String.length t) = t
  | Value_set.Obj_stem _, Value_set.Obj_kind (Iri_kind | Non_literal_kind) ->
      true
  | Value_set.Obj_kind Iri_kind, Value_set.Obj_kind Non_literal_kind -> true
  | Value_set.Obj_kind Bnode_kind, Value_set.Obj_kind Non_literal_kind -> true
  | ( (Value_set.Obj_datatype _ | Value_set.Obj_datatype_iri _),
      Value_set.Obj_kind Literal_kind ) ->
      true
  | Value_set.Obj_datatype dt, Value_set.Obj_datatype_iri i ->
      Rdf.Iri.equal (Rdf.Xsd.iri dt) i
  | Value_set.Obj_in ts, _ ->
      List.for_all
        (fun t -> (not (Rdf.Term.is_literal t)) && Value_set.obj_mem b t)
        ts
  | Value_set.Obj_or xs, _ -> List.for_all (fun x -> obj_subset x b) xs
  | _, Value_set.Obj_or ys -> List.exists (fun y -> obj_subset a y) ys
  | _ -> false

let dedup_terms_value ts = dedup Rdf.Term.value_equal ts

let rec norm_obj (vo : Value_set.obj) =
  match vo with
  | Value_set.Obj_any | Value_set.Obj_datatype _ | Value_set.Obj_datatype_iri _
  | Value_set.Obj_kind _ | Value_set.Obj_stem _ ->
      vo
  | Value_set.Obj_in ts -> Value_set.Obj_in (dedup_terms_value ts)
  | Value_set.Obj_not v -> (
      match norm_obj v with
      | Value_set.Obj_not inner -> inner
      | v -> Value_set.Obj_not v)
  | Value_set.Obj_or vs -> (
      let vs =
        List.concat_map
          (fun v ->
            match norm_obj v with Value_set.Obj_or ws -> ws | w -> [ w ])
          vs
      in
      if List.exists (function Value_set.Obj_any -> true | _ -> false) vs then
        Value_set.Obj_any
      else
        let terms =
          dedup_terms_value
            (List.concat_map
               (function Value_set.Obj_in ts -> ts | _ -> [])
               vs)
        in
        let others =
          dedup Value_set.obj_equal
            (List.filter
               (function Value_set.Obj_in _ -> false | _ -> true)
               vs)
        in
        (* Drop union members subsumed by a later member, then members
           subsumed by an earlier survivor. *)
        let forward =
          List.filteri
            (fun i v ->
              not
                (List.exists
                   (fun (j, w) -> j > i && obj_subset v w)
                   (List.mapi (fun j w -> (j, w)) others)))
            others
        in
        let others =
          List.rev
            (List.fold_left
               (fun kept v ->
                 if List.exists (fun w -> obj_subset v w) kept then kept
                 else v :: kept)
               [] forward)
        in
        (* An enumerated IRI already covered by a surviving stem (or any
           other member) is redundant: non-literal value equality is
           plain equality, so membership is preserved. *)
        let terms =
          List.filter
            (fun t ->
              Rdf.Term.is_literal t
              || not (List.exists (fun w -> Value_set.obj_mem w t) others))
            terms
        in
        match
          (if terms = [] then [] else [ Value_set.Obj_in terms ]) @ others
        with
        | [] -> vo
        | [ v ] -> v
        | parts -> Value_set.Obj_or parts)

let norm_pred (vp : Value_set.pred) =
  match vp with
  | Value_set.Pred_in is -> (
      match dedup Rdf.Iri.equal is with
      | [ i ] -> Value_set.Pred i
      | is -> Value_set.Pred_in is)
  | Value_set.Pred _ | Value_set.Pred_stem _ | Value_set.Pred_any
  | Value_set.Pred_compl _ ->
      vp

let norm_arc (a : Rse.arc) =
  let obj =
    match a.Rse.obj with
    | Rse.Values vo -> Rse.Values (norm_obj vo)
    | Rse.Ref _ as r -> r
  in
  Rse.arc ~inverse:a.Rse.inverse (norm_pred a.Rse.pred) obj

(* Merge same-predicate enumerated-value arcs across an Or spine:
   (p→{a}) | (p→{b}) = (p→{a,b}).  Only Obj_in⊎Obj_in is merged so the
   result stays inside the printable ShExC surface. *)
let merge_arc_disjuncts parts =
  let try_merge acc e =
    match e with
    | Rse.Arc
        ({ Rse.obj = Rse.Values (Value_set.Obj_in ts); _ } as a) ->
        let rec go = function
          | [] -> None
          | Rse.Arc
              ({ Rse.obj = Rse.Values (Value_set.Obj_in us); _ } as b)
            :: rest
            when Value_set.pred_equal a.Rse.pred b.Rse.pred
                 && Bool.equal a.Rse.inverse b.Rse.inverse ->
              Some
                (Rse.arc ~inverse:b.Rse.inverse b.Rse.pred
                   (Rse.Values
                      (Value_set.Obj_in (dedup_terms_value (us @ ts))))
                :: rest)
          | x :: rest -> Option.map (fun r -> x :: r) (go rest)
        in
        (match go acc with Some acc -> acc | None -> acc @ [ e ])
    | _ -> acc @ [ e ]
  in
  List.fold_left try_merge [] parts

let expr_empty env e =
  match
    explore env ~has_inv:(Rse.has_inverse e) (conv env Lft e)
      ~goal:(fun s -> s.Hrse.nullable)
  with
  | Exhausted -> true
  | Reached _ | Capped -> false

let rec opt_expr env (e : Rse.t) =
  match e with
  | Rse.Empty | Rse.Epsilon -> e
  | Rse.Arc a -> norm_arc a
  | Rse.Star inner -> (
      match inner with
      | Rse.Or _ -> (
          (* (ε|e)⋆ = e⋆ under bag semantics *)
          match
            List.filter
              (function Rse.Epsilon -> false | _ -> true)
              (disjuncts inner)
          with
          | [] -> Rse.epsilon
          | parts -> Rse.star (opt_expr env (Rse.or_all parts)))
      | _ -> Rse.star (opt_expr env inner))
  | Rse.Not inner -> Rse.not_ (opt_expr env inner)
  | Rse.Repeat (inner, m, n) -> Rse.repeat m n (opt_expr env inner)
  | Rse.And (a, b) -> Rse.and_ (opt_expr env a) (opt_expr env b)
  | Rse.Or _ -> (
      let parts = disjuncts e in
      (* Pruning decides on the original sub-expressions (whose arcs
         are in the compiled alphabet); emptiness under the
         all-capabilities letter alphabet over-approximates
         reachability, so Exhausted proves real emptiness. *)
      let kept =
        match
          List.filter
            (fun p ->
              match p with Rse.Epsilon -> true | _ -> not (expr_empty env p))
            parts
        with
        | [] -> [ List.hd parts ] (* never introduce ∅: keep one disjunct *)
        | kept -> kept
      in
      let kept = List.map (opt_expr env) kept in
      Rse.or_all (merge_arc_disjuncts kept))

let optimize_stats schema =
  let env = make_env [ (Lft, schema) ] in
  (* Letters with all capabilities at ⊤ over-approximate the real
     alphabet, which is the conservative direction for disjunct
     pruning (only Exhausted searches prune). *)
  build_letters env;
  let changed = ref 0 in
  let shapes' =
    List.map
      (fun (l, (sh : Schema.shape)) ->
        let expr' = opt_expr env sh.Schema.expr in
        let focus' = Option.map norm_obj sh.Schema.focus in
        if
          not
            (Rse.equal expr' sh.Schema.expr
            && focus_opt_equal focus' sh.Schema.focus)
        then incr changed;
        (l, { Schema.focus = focus'; expr = expr' }))
      (Schema.shapes schema)
  in
  match Schema.make_shapes shapes' with
  | Ok s -> (s, !changed)
  | Error _ -> (schema, 0)

let optimize schema = fst (optimize_stats schema)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let witness_turtle (w : witness) = Turtle.Write.to_string w.graph

let pp_emptiness ppf = function
  | Satisfiable w ->
      Format.fprintf ppf "satisfiable (witness: focus %a, %d triple%s)"
        Rdf.Term.pp w.focus
        (Rdf.Graph.cardinal w.graph)
        (if Rdf.Graph.cardinal w.graph = 1 then "" else "s")
  | Empty -> Format.pp_print_string ppf "empty"
  | Unknown m -> Format.fprintf ppf "unknown (%s)" m

let pp_containment ppf = function
  | Contained -> Format.pp_print_string ppf "contained"
  | Refuted w ->
      Format.fprintf ppf "refuted (counterexample: focus %a, %d triple%s)"
        Rdf.Term.pp w.focus
        (Rdf.Graph.cardinal w.graph)
        (if Rdf.Graph.cardinal w.graph = 1 then "" else "s")
  | Inconclusive m -> Format.fprintf ppf "inconclusive (%s)" m
