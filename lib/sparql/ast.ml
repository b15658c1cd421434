(* Abstract syntax of the SPARQL fragment used by the §3 translation:
   basic graph patterns, FILTER expressions (with the builtins of
   Example 4: isLiteral, isIRI, isBlank, datatype, bound), OPTIONAL,
   UNION, NOT EXISTS, and sub-SELECTs with GROUP BY / HAVING and
   COUNT aggregates. *)

type var = string

type term_pat = Var of var | Const of Rdf.Term.t

type triple_pat = { tp_s : term_pat; tp_p : term_pat; tp_o : term_pat }

type cmp = Eq | Ne | Le | Ge

type expr =
  | E_var of var
  | E_const of Rdf.Term.t
  | E_int of int
  | E_bool of bool
  | E_and of expr * expr
  | E_or of expr * expr
  | E_not of expr
  | E_cmp of cmp * expr * expr
  | E_is_iri of expr
  | E_is_literal of expr
  | E_is_blank of expr
  | E_datatype of expr
  | E_bound of var
  | E_not_exists of pattern
  | E_regex of expr * string  (** [regex(e, "^prefix")] — anchored-prefix only *)

and pattern =
  | Bgp of triple_pat list
  | Join of pattern * pattern
  | Filter of expr * pattern
  | Union of pattern * pattern
  | Optional of pattern * pattern
  | Sub_select of select

and aggregate = Count_star

and select = {
  sel_vars : var list;  (** projected variables *)
  sel_aggs : (aggregate * var) list;  (** e.g. [(COUNT( * ) AS ?c)] *)
  sel_where : pattern;
  sel_group_by : var list;
  sel_having : expr list;
  sel_distinct : bool;
}

type query = Ask of pattern | Select_q of select

(* Convenience constructors. *)

let v name : term_pat = Var name
let c term : term_pat = Const term
let triple tp_s tp_p tp_o = { tp_s; tp_p; tp_o }
let bgp pats = Bgp pats

let select ?(distinct = false) ?(group_by = []) ?(having = []) ?(aggs = [])
    vars where =
  { sel_vars = vars;
    sel_aggs = aggs;
    sel_where = where;
    sel_group_by = group_by;
    sel_having = having;
    sel_distinct = distinct }

let rec join_all = function
  | [] -> Bgp []
  | [ p ] -> p
  | p :: rest -> Join (p, join_all rest)

let conj_all = function
  | [] -> E_bool true
  | e :: rest -> List.fold_left (fun acc e -> E_and (acc, e)) e rest
