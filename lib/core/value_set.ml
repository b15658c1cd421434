type pred =
  | Pred of Rdf.Iri.t
  | Pred_in of Rdf.Iri.t list
  | Pred_stem of string
  | Pred_any
  | Pred_compl of pred list

type kind = Iri_kind | Bnode_kind | Literal_kind | Non_literal_kind

type obj =
  | Obj_any
  | Obj_in of Rdf.Term.t list
  | Obj_datatype of Rdf.Xsd.primitive
  | Obj_datatype_iri of Rdf.Iri.t
  | Obj_kind of kind
  | Obj_stem of string
  | Obj_or of obj list
  | Obj_not of obj

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rec pred_mem vp p =
  match vp with
  | Pred i -> Rdf.Iri.equal i p
  | Pred_in is -> List.exists (fun i -> Rdf.Iri.equal i p) is
  | Pred_stem stem -> starts_with ~prefix:stem (Rdf.Iri.to_string p)
  | Pred_any -> true
  | Pred_compl vps -> not (List.exists (fun vp -> pred_mem vp p) vps)

let kind_mem k (o : Rdf.Term.t) =
  match (k, o) with
  | Iri_kind, Iri _ -> true
  | Bnode_kind, Bnode _ -> true
  | Literal_kind, Literal _ -> true
  | Non_literal_kind, (Iri _ | Bnode _) -> true
  | (Iri_kind | Bnode_kind | Literal_kind | Non_literal_kind), _ -> false

let rec obj_mem vo (o : Rdf.Term.t) =
  match vo with
  | Obj_any -> true
  (* Value-space membership (SPARQL-aligned): "01"^^xsd:integer is in
     {1}.  [obj_equal] below stays syntactic — it is an AST identity
     used for normalisation and hash-consing, not set membership. *)
  | Obj_in terms -> List.exists (Rdf.Term.value_equal o) terms
  | Obj_datatype dt -> (
      match o with
      | Literal l -> Rdf.Literal.has_datatype l dt
      | Iri _ | Bnode _ -> false)
  | Obj_datatype_iri dt -> (
      match o with
      | Literal l -> Rdf.Iri.equal (Rdf.Literal.datatype l) dt
      | Iri _ | Bnode _ -> false)
  | Obj_kind k -> kind_mem k o
  | Obj_stem stem -> (
      match o with
      | Iri i -> starts_with ~prefix:stem (Rdf.Iri.to_string i)
      | Bnode _ | Literal _ -> false)
  | Obj_or vs -> List.exists (fun v -> obj_mem v o) vs
  | Obj_not v -> not (obj_mem v o)

let pred_iri s = Pred (Rdf.Iri.of_string_exn s)
let obj_terms terms = Obj_in terms
let xsd_integer = Obj_datatype Rdf.Xsd.Integer
let xsd_string = Obj_datatype Rdf.Xsd.String

let rec pred_equal a b =
  match (a, b) with
  | Pred x, Pred y -> Rdf.Iri.equal x y
  | Pred_in xs, Pred_in ys ->
      List.length xs = List.length ys && List.for_all2 Rdf.Iri.equal xs ys
  | Pred_stem x, Pred_stem y -> String.equal x y
  | Pred_any, Pred_any -> true
  | Pred_compl xs, Pred_compl ys ->
      List.length xs = List.length ys && List.for_all2 pred_equal xs ys
  | (Pred _ | Pred_in _ | Pred_stem _ | Pred_any | Pred_compl _), _ -> false

let rec obj_equal a b =
  match (a, b) with
  | Obj_any, Obj_any -> true
  | Obj_in xs, Obj_in ys ->
      List.length xs = List.length ys && List.for_all2 Rdf.Term.equal xs ys
  | Obj_datatype x, Obj_datatype y -> x = y
  | Obj_datatype_iri x, Obj_datatype_iri y -> Rdf.Iri.equal x y
  | Obj_kind x, Obj_kind y -> x = y
  | Obj_stem x, Obj_stem y -> String.equal x y
  | Obj_or xs, Obj_or ys ->
      List.length xs = List.length ys && List.for_all2 obj_equal xs ys
  | Obj_not x, Obj_not y -> obj_equal x y
  | ( ( Obj_any | Obj_in _ | Obj_datatype _ | Obj_datatype_iri _ | Obj_kind _
      | Obj_stem _ | Obj_or _ | Obj_not _ ),
      _ ) ->
      false

(* Structural total orders consistent with [pred_equal]/[obj_equal].
   [Rse]'s ACI normalisation sorts and deduplicates with these, and the
   analysis visited-set relies on compare=0 coinciding with the
   equality used everywhere else — a polymorphic [Stdlib.compare]
   would silently diverge the moment any constituent type gains a
   cached field or non-canonical representation. *)

let pred_rank = function
  | Pred _ -> 0
  | Pred_in _ -> 1
  | Pred_stem _ -> 2
  | Pred_any -> 3
  | Pred_compl _ -> 4

let rec pred_compare a b =
  match (a, b) with
  | Pred x, Pred y -> Rdf.Iri.compare x y
  | Pred_in xs, Pred_in ys -> List.compare Rdf.Iri.compare xs ys
  | Pred_stem x, Pred_stem y -> String.compare x y
  | Pred_any, Pred_any -> 0
  | Pred_compl xs, Pred_compl ys -> List.compare pred_compare xs ys
  | (Pred _ | Pred_in _ | Pred_stem _ | Pred_any | Pred_compl _), _ ->
      Int.compare (pred_rank a) (pred_rank b)

let kind_rank = function
  | Iri_kind -> 0
  | Bnode_kind -> 1
  | Literal_kind -> 2
  | Non_literal_kind -> 3

let obj_rank = function
  | Obj_any -> 0
  | Obj_in _ -> 1
  | Obj_datatype _ -> 2
  | Obj_datatype_iri _ -> 3
  | Obj_kind _ -> 4
  | Obj_stem _ -> 5
  | Obj_or _ -> 6
  | Obj_not _ -> 7

let rec obj_compare a b =
  match (a, b) with
  | Obj_any, Obj_any -> 0
  | Obj_in xs, Obj_in ys -> List.compare Rdf.Term.compare xs ys
  | Obj_datatype x, Obj_datatype y -> Stdlib.compare x y
  | Obj_datatype_iri x, Obj_datatype_iri y -> Rdf.Iri.compare x y
  | Obj_kind x, Obj_kind y -> Int.compare (kind_rank x) (kind_rank y)
  | Obj_stem x, Obj_stem y -> String.compare x y
  | Obj_or xs, Obj_or ys -> List.compare obj_compare xs ys
  | Obj_not x, Obj_not y -> obj_compare x y
  | ( ( Obj_any | Obj_in _ | Obj_datatype _ | Obj_datatype_iri _ | Obj_kind _
      | Obj_stem _ | Obj_or _ | Obj_not _ ),
      _ ) ->
      Int.compare (obj_rank a) (obj_rank b)

let pred_members = function
  | Pred i -> Some [ i ]
  | Pred_in is -> Some is
  | Pred_stem _ | Pred_any | Pred_compl _ -> None

let pred_disjoint a b =
  match (pred_members a, pred_members b) with
  | Some xs, Some ys ->
      not (List.exists (fun x -> List.exists (Rdf.Iri.equal x) ys) xs)
  | _ -> (
      (* Stems are disjoint when neither is a prefix of the other;
         anything involving Pred_any overlaps. *)
      match (a, b) with
      | Pred_stem x, Pred_stem y ->
          not (starts_with ~prefix:x y || starts_with ~prefix:y x)
      | Pred_stem stem, Pred i | Pred i, Pred_stem stem ->
          not (starts_with ~prefix:stem (Rdf.Iri.to_string i))
      | Pred_stem stem, Pred_in is | Pred_in is, Pred_stem stem ->
          not
            (List.exists
               (fun i -> starts_with ~prefix:stem (Rdf.Iri.to_string i))
               is)
      (* Pred_compl excluded-sets: a complement is disjoint from any
         set it wholly excludes. *)
      | Pred_compl vps, other | other, Pred_compl vps -> (
          match pred_members other with
          | Some is ->
              List.for_all
                (fun i -> List.exists (fun vp -> pred_mem vp i) vps)
                is
          | None -> List.exists (fun vp -> pred_equal vp other) vps)
      | _ -> false)

let rec pp_pred ppf = function
  | Pred i -> Rdf.Iri.pp ppf i
  | Pred_in is ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Rdf.Iri.pp)
        is
  | Pred_stem s -> Format.fprintf ppf "<%s~>" s
  | Pred_any -> Format.pp_print_string ppf "."
  | Pred_compl vps ->
      Format.fprintf ppf "!{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_pred)
        vps

let rec pp_obj ppf = function
  | Obj_any -> Format.pp_print_string ppf "."
  | Obj_in [ t ] -> Rdf.Term.pp ppf t
  | Obj_in terms ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Rdf.Term.pp)
        terms
  | Obj_datatype dt -> Format.fprintf ppf "xsd:%s" (Rdf.Xsd.name dt)
  | Obj_datatype_iri i -> Rdf.Iri.pp ppf i
  | Obj_kind Iri_kind -> Format.pp_print_string ppf "IRI"
  | Obj_kind Bnode_kind -> Format.pp_print_string ppf "BNODE"
  | Obj_kind Literal_kind -> Format.pp_print_string ppf "LITERAL"
  | Obj_kind Non_literal_kind -> Format.pp_print_string ppf "NONLITERAL"
  | Obj_stem s -> Format.fprintf ppf "<%s~>" s
  | Obj_or vs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " OR ")
           pp_obj)
        vs
  | Obj_not v -> Format.fprintf ppf "NOT %a" pp_obj v
