(* Concrete-syntax rendering of the SPARQL fragment, in the style of
   the paper's Example 4.  Output is valid SPARQL 1.1 (NOT EXISTS
   included). *)

let term_text t = Rdf.Term.to_string t

let term_pat_text = function
  | Ast.Var v -> "?" ^ v
  | Ast.Const t -> term_text t

let cmp_text = function
  | Ast.Eq -> "="
  | Ast.Ne -> "!="
  | Ast.Le -> "<="
  | Ast.Ge -> ">="

(* An XPath regex matching [s] literally. *)
let regex_quote s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if String.contains "\\.?*+(){}[]|^$" c then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let rec expr_text = function
  | Ast.E_var v -> "?" ^ v
  | Ast.E_const t -> term_text t
  | Ast.E_int n -> string_of_int n
  | Ast.E_bool b -> string_of_bool b
  | Ast.E_and (e1, e2) ->
      Printf.sprintf "(%s && %s)" (expr_text e1) (expr_text e2)
  | Ast.E_or (e1, e2) ->
      Printf.sprintf "(%s || %s)" (expr_text e1) (expr_text e2)
  | Ast.E_not e -> Printf.sprintf "(!%s)" (expr_text e)
  | Ast.E_cmp (op, e1, e2) ->
      Printf.sprintf "(%s %s %s)" (expr_text e1) (cmp_text op) (expr_text e2)
  | Ast.E_is_iri e -> Printf.sprintf "isIRI(%s)" (expr_text e)
  | Ast.E_is_literal e -> Printf.sprintf "isLiteral(%s)" (expr_text e)
  | Ast.E_is_blank e -> Printf.sprintf "isBlank(%s)" (expr_text e)
  | Ast.E_datatype e -> Printf.sprintf "datatype(%s)" (expr_text e)
  | Ast.E_bound v -> Printf.sprintf "bound(?%s)" v
  | Ast.E_not_exists p -> Printf.sprintf "NOT EXISTS %s" (block 1 p)
  | Ast.E_regex (e, prefix) ->
      (* The anchored, quoted prefix, written as a string literal. *)
      Printf.sprintf "regex(str(%s), \"%s\")" (expr_text e)
        (Rdf.Literal.escape ("^" ^ regex_quote prefix))

and indent depth = String.make (2 * depth) ' '

and pattern_lines depth = function
  | Ast.Bgp pats ->
      List.map
        (fun (tp : Ast.triple_pat) ->
          Printf.sprintf "%s%s %s %s ." (indent depth)
            (term_pat_text tp.tp_s) (term_pat_text tp.tp_p)
            (term_pat_text tp.tp_o))
        pats
  | Ast.Join (p1, p2) -> pattern_lines depth p1 @ pattern_lines depth p2
  | Ast.Filter (e, p) ->
      pattern_lines depth p
      @ [ Printf.sprintf "%sFILTER %s" (indent depth) (expr_text e) ]
  | Ast.Union (p1, p2) ->
      [ indent depth ^ "{" ]
      @ pattern_lines (depth + 1) p1
      @ [ indent depth ^ "} UNION {" ]
      @ pattern_lines (depth + 1) p2
      @ [ indent depth ^ "}" ]
  | Ast.Optional (p1, p2) ->
      pattern_lines depth p1
      @ [ indent depth ^ "OPTIONAL " ^ block depth p2 ]
  | Ast.Sub_select sel -> select_lines depth sel

and block depth p =
  String.concat "\n"
    (("{" :: pattern_lines (depth + 1) p) @ [ indent depth ^ "}" ])

and select_lines depth sel =
  let head =
    let vars = List.map (fun v -> "?" ^ v) sel.Ast.sel_vars in
    let aggs =
      List.map
        (fun (Ast.Count_star, v) -> Printf.sprintf "(COUNT(*) AS ?%s)" v)
        sel.Ast.sel_aggs
    in
    String.concat " " (vars @ aggs)
  in
  let group =
    if sel.Ast.sel_group_by = [] then []
    else
      [ Printf.sprintf "%sGROUP BY %s" (indent (depth + 1))
          (String.concat " "
             (List.map (fun v -> "?" ^ v) sel.Ast.sel_group_by)) ]
  in
  (* SPARQL 1.1 allows one HAVING clause, with one or more
     conditions. *)
  let having =
    if sel.Ast.sel_having = [] then []
    else
      [ Printf.sprintf "%sHAVING %s" (indent (depth + 1))
          (String.concat " " (List.map expr_text sel.Ast.sel_having)) ]
  in
  [ Printf.sprintf "%s{ SELECT %s%s {" (indent depth)
      (if sel.Ast.sel_distinct then "DISTINCT " else "")
      head ]
  @ pattern_lines (depth + 2) sel.Ast.sel_where
  @ [ indent (depth + 1) ^ "}" ]
  @ group @ having
  @ [ indent depth ^ "}" ]

let pattern_to_string p = String.concat "\n" (pattern_lines 1 p)

let query_to_string = function
  | Ast.Ask p -> Printf.sprintf "ASK {\n%s\n}" (pattern_to_string p)
  | Ast.Select_q sel ->
      (* Top-level select renders like a subselect without the braces. *)
      let lines = select_lines 0 sel in
      let body = String.concat "\n" lines in
      (* strip the outer "{ " and trailing "}" decorations *)
      let body =
        if String.length body > 2 && String.sub body 0 2 = "{ " then
          String.sub body 2 (String.length body - 4)
        else body
      in
      body
