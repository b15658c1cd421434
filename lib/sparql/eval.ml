module Var_map = Map.Make (String)

module Solution = struct
  type t = Rdf.Term.t Var_map.t

  let empty = Var_map.empty
  let find v t = Var_map.find_opt v t
  let bindings t = Var_map.bindings t

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (v, term) ->
           Format.fprintf ppf "?%s \xe2\x86\xa6 %a" v Rdf.Term.pp term))
      (bindings t)

  let compatible m1 m2 =
    Var_map.for_all
      (fun v t ->
        match Var_map.find_opt v m2 with
        | None -> true
        | Some t' -> Rdf.Term.equal t t')
      m1

  let merge m1 m2 = Var_map.union (fun _ t _ -> Some t) m1 m2
end

(* ------------------------------------------------------------------ *)
(* Expression values                                                  *)
(* ------------------------------------------------------------------ *)

type value = V_term of Rdf.Term.t | V_int of int | V_bool of bool

exception Eval_error

let value_of_term t = V_term t

let as_numeric = function
  | V_int n -> float_of_int n
  | V_term (Rdf.Term.Literal l) -> (
      match Rdf.Literal.as_float l with
      | Some f -> f
      | None -> raise Eval_error)
  | V_term _ | V_bool _ -> raise Eval_error

let is_numeric_value = function
  | V_int _ -> true
  | V_term (Rdf.Term.Literal l) -> Rdf.Literal.as_float l <> None
  | V_term _ | V_bool _ -> false

(* Effective boolean value (SPARQL §17.2.2). *)
let ebv = function
  | V_bool b -> b
  | V_int n -> n <> 0
  | V_term (Rdf.Term.Literal l) -> (
      match Rdf.Literal.as_bool l with
      | Some b -> b
      | None -> (
          match Rdf.Literal.as_float l with
          | Some f -> f <> 0.0 && not (Float.is_nan f)
          | None ->
              if
                Rdf.Iri.equal (Rdf.Literal.datatype l)
                  (Rdf.Xsd.iri Rdf.Xsd.String)
              then Rdf.Literal.lexical l <> ""
              else raise Eval_error))
  | V_term _ -> raise Eval_error

let value_equal v1 v2 =
  if is_numeric_value v1 && is_numeric_value v2 then
    Float.equal (as_numeric v1) (as_numeric v2)
  else
    match (v1, v2) with
    | V_term t1, V_term t2 -> Rdf.Term.equal t1 t2
    | V_bool b1, V_bool b2 -> Bool.equal b1 b2
    | V_bool b, V_term (Rdf.Term.Literal l)
    | V_term (Rdf.Term.Literal l), V_bool b -> (
        match Rdf.Literal.as_bool l with
        | Some b' -> Bool.equal b b'
        | None -> raise Eval_error)
    | _ -> raise Eval_error

let value_compare v1 v2 =
  if is_numeric_value v1 && is_numeric_value v2 then
    Float.compare (as_numeric v1) (as_numeric v2)
  else
    match (v1, v2) with
    | V_term (Rdf.Term.Literal l1), V_term (Rdf.Term.Literal l2)
      when Rdf.Iri.equal (Rdf.Literal.datatype l1) (Rdf.Literal.datatype l2)
      ->
        String.compare (Rdf.Literal.lexical l1) (Rdf.Literal.lexical l2)
    | _ -> raise Eval_error

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Pattern evaluation                                                 *)
(* ------------------------------------------------------------------ *)

(* Sub-SELECT memo: keyed structurally by the select AST, valid while
   the physical graph is unchanged (graphs are immutable, so a stale
   entry can only belong to a different graph and is evicted). *)
let subselect_cache : (Ast.select, Rdf.Graph.t * Rdf.Term.t Var_map.t list)
    Hashtbl.t =
  Hashtbl.create 64

let subst_term_pat mu = function
  | Ast.Var v -> (
      match Solution.find v mu with
      | Some t -> Ast.Const t
      | None -> Ast.Var v)
  | Ast.Const _ as c -> c

let match_triple_pat g mu (tp : Ast.triple_pat) =
  let s = subst_term_pat mu tp.tp_s in
  let p = subst_term_pat mu tp.tp_p in
  let o = subst_term_pat mu tp.tp_o in
  let s_const = match s with Ast.Const t -> Some t | Ast.Var _ -> None in
  let p_const =
    match p with
    | Ast.Const (Rdf.Term.Iri i) -> Some i
    | Ast.Const _ -> None
    | Ast.Var _ -> None
  in
  let o_const = match o with Ast.Const t -> Some t | Ast.Var _ -> None in
  (* A constant non-IRI predicate can never match. *)
  match p with
  | Ast.Const t when not (Rdf.Term.is_iri t) -> []
  | _ ->
      let candidates = Rdf.Graph.match_pattern ?s:s_const ?p:p_const ?o:o_const g in
      List.filter_map
        (fun tr ->
          let bind pat term mu =
            match (pat, mu) with
            | _, None -> None
            | Ast.Const t, Some mu ->
                if Rdf.Term.equal t term then Some mu else None
            | Ast.Var v, Some mu -> (
                match Var_map.find_opt v mu with
                | Some t when not (Rdf.Term.equal t term) -> None
                | _ -> Some (Var_map.add v term mu))
          in
          Some mu
          |> bind s (Rdf.Triple.subject tr)
          |> bind p (Rdf.Term.Iri (Rdf.Triple.predicate tr))
          |> bind o (Rdf.Triple.obj tr))
        candidates

let rec eval_expr g mu = function
  | Ast.E_var v -> (
      match Solution.find v mu with
      | Some t -> value_of_term t
      | None -> raise Eval_error)
  | Ast.E_const t -> value_of_term t
  | Ast.E_int n -> V_int n
  | Ast.E_bool b -> V_bool b
  | Ast.E_and (e1, e2) ->
      (* SPARQL ties error-handling into && : false && error = false *)
      let b1 = try Some (ebv (eval_expr g mu e1)) with Eval_error -> None in
      let b2 = try Some (ebv (eval_expr g mu e2)) with Eval_error -> None in
      (match (b1, b2) with
      | Some false, _ | _, Some false -> V_bool false
      | Some true, Some true -> V_bool true
      | _ -> raise Eval_error)
  | Ast.E_or (e1, e2) ->
      let b1 = try Some (ebv (eval_expr g mu e1)) with Eval_error -> None in
      let b2 = try Some (ebv (eval_expr g mu e2)) with Eval_error -> None in
      (match (b1, b2) with
      | Some true, _ | _, Some true -> V_bool true
      | Some false, Some false -> V_bool false
      | _ -> raise Eval_error)
  | Ast.E_not e -> V_bool (not (ebv (eval_expr g mu e)))
  | Ast.E_cmp (op, e1, e2) -> (
      let v1 = eval_expr g mu e1 and v2 = eval_expr g mu e2 in
      match op with
      | Ast.Eq -> V_bool (value_equal v1 v2)
      | Ast.Ne -> V_bool (not (value_equal v1 v2))
      | Ast.Le -> V_bool (value_compare v1 v2 <= 0)
      | Ast.Ge -> V_bool (value_compare v1 v2 >= 0))
  | Ast.E_is_iri e -> (
      match eval_expr g mu e with
      | V_term t -> V_bool (Rdf.Term.is_iri t)
      | _ -> raise Eval_error)
  | Ast.E_is_literal e -> (
      match eval_expr g mu e with
      | V_term t -> V_bool (Rdf.Term.is_literal t)
      | _ -> raise Eval_error)
  | Ast.E_is_blank e -> (
      match eval_expr g mu e with
      | V_term t -> V_bool (Rdf.Term.is_bnode t)
      | _ -> raise Eval_error)
  | Ast.E_datatype e -> (
      match eval_expr g mu e with
      | V_term (Rdf.Term.Literal l) ->
          V_term (Rdf.Term.Iri (Rdf.Literal.datatype l))
      | _ -> raise Eval_error)
  | Ast.E_bound v -> V_bool (Solution.find v mu <> None)
  | Ast.E_not_exists p -> V_bool (eval_pattern g mu p = [])
  | Ast.E_regex (e, prefix) -> (
      match eval_expr g mu e with
      | V_term (Rdf.Term.Literal l) ->
          V_bool (starts_with ~prefix (Rdf.Literal.lexical l))
      | V_term (Rdf.Term.Iri i) ->
          V_bool (starts_with ~prefix (Rdf.Iri.to_string i))
      | _ -> raise Eval_error)

and filter_holds g mu e =
  match ebv (eval_expr g mu e) with
  | b -> b
  | exception Eval_error -> false

and eval_pattern g mu = function
  | Ast.Bgp pats ->
      List.fold_left
        (fun mus tp -> List.concat_map (fun mu -> match_triple_pat g mu tp) mus)
        [ mu ] pats
  | Ast.Join (p1, p2) ->
      List.concat_map (fun mu1 -> eval_pattern g mu1 p2) (eval_pattern g mu p1)
  | Ast.Filter (e, p) ->
      List.filter (fun mu' -> filter_holds g mu' e) (eval_pattern g mu p)
  | Ast.Union (p1, p2) -> eval_pattern g mu p1 @ eval_pattern g mu p2
  | Ast.Optional (p1, p2) ->
      List.concat_map
        (fun mu1 ->
          match eval_pattern g mu1 p2 with [] -> [ mu1 ] | ext -> ext)
        (eval_pattern g mu p1)
  | Ast.Sub_select sel ->
      (* Bottom-up: evaluate independently, then merge compatibly with
         the outer solution.  Independence means the sub-SELECT's
         solutions do not depend on [mu], so they are memoised — a
         Join re-enters this branch once per outer solution. *)
      List.filter_map
        (fun nu ->
          if Solution.compatible mu nu then Some (Solution.merge mu nu)
          else None)
        (eval_select_memo g sel)

and eval_select_memo g sel =
  match Hashtbl.find_opt subselect_cache sel with
  | Some (g', sols) when g' == g -> sols
  | _ ->
      let sols = eval_select g sel in
      Hashtbl.replace subselect_cache sel (g, sols);
      sols

and eval_select g sel =
  let raw = eval_pattern g Solution.empty sel.Ast.sel_where in
  let solutions =
    if sel.Ast.sel_group_by = [] && sel.Ast.sel_aggs = [] then
      (* plain projection *)
      List.filter
        (fun mu -> List.for_all (fun e -> filter_holds g mu e) sel.Ast.sel_having)
        raw
      |> List.map (fun mu ->
             Var_map.filter (fun v _ -> List.mem v sel.Ast.sel_vars) mu)
    else begin
      (* group, aggregate, filter by HAVING, project *)
      let key mu =
        List.map (fun v -> Var_map.find_opt v mu) sel.Ast.sel_group_by
      in
      let groups = Hashtbl.create 16 in
      List.iter
        (fun mu ->
          let k = key mu in
          let prev = Option.value (Hashtbl.find_opt groups k) ~default:[] in
          Hashtbl.replace groups k (mu :: prev))
        raw;
      Hashtbl.fold
        (fun k members acc ->
          let base =
            List.fold_left2
              (fun m v t ->
                match t with Some t -> Var_map.add v t m | None -> m)
              Var_map.empty sel.Ast.sel_group_by k
          in
          let with_aggs =
            List.fold_left
              (fun m (agg, v) ->
                match agg with
                | Ast.Count_star ->
                    Var_map.add v
                      (Rdf.Term.Literal
                         (Rdf.Literal.integer (List.length members)))
                      m)
              base sel.Ast.sel_aggs
          in
          if List.for_all (fun e -> filter_holds g with_aggs e) sel.Ast.sel_having
          then
            Var_map.filter
              (fun v _ ->
                List.mem v sel.Ast.sel_vars
                || List.exists (fun (_, av) -> av = v) sel.Ast.sel_aggs)
              with_aggs
            :: acc
          else acc)
        groups []
    end
  in
  if sel.Ast.sel_distinct then
    List.sort_uniq (Var_map.compare Rdf.Term.compare) solutions
  else solutions

let select = eval_select
let ask g p = eval_pattern g Solution.empty p <> []

let run g = function
  | Ast.Ask p -> `Boolean (ask g p)
  | Ast.Select_q sel -> `Solutions (eval_select g sel)
