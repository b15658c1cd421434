type obj_spec =
  | Values of Value_set.obj
  | Ref of Label.t

type arc = { pred : Value_set.pred; obj : obj_spec; inverse : bool }

type t =
  | Empty
  | Epsilon
  | Arc of arc
  | Star of t
  | And of t * t
  | Or of t * t
  | Not of t
  | Repeat of t * int * int option

let empty = Empty
let epsilon = Epsilon

let arc ?(inverse = false) pred obj = Arc { pred; obj; inverse }
let arc_v ?inverse pred vo = arc ?inverse pred (Values vo)
let arc_ref ?inverse pred l = arc ?inverse pred (Ref l)

let obj_spec_equal a b =
  match (a, b) with
  | Values x, Values y -> Value_set.obj_equal x y
  | Ref x, Ref y -> Label.equal x y
  | (Values _ | Ref _), _ -> false

let arc_equal a b =
  Value_set.pred_equal a.pred b.pred
  && obj_spec_equal a.obj b.obj
  && Bool.equal a.inverse b.inverse

(* Structural comparators, kept in lock-step with [equal]/[arc_equal]:
   the ACI sort/dedup below and every ordered container over RSEs
   require compare=0 ⇔ equal.  The polymorphic [Stdlib.compare] used
   to stand here; it happened to agree while every leaf was plain
   first-order data, but any representation change (cached hash,
   interned id) would have broken the coincidence silently. *)
let obj_spec_compare a b =
  match (a, b) with
  | Values x, Values y -> Value_set.obj_compare x y
  | Ref x, Ref y -> Label.compare x y
  | Values _, Ref _ -> -1
  | Ref _, Values _ -> 1

(* Each comparator returns at once on physically equal arguments:
   derivatives share subterms, so the ACI sorts keep meeting a subtree
   and itself. *)
let arc_compare (a : arc) (b : arc) =
  if a == b then 0
  else
    let c = Value_set.pred_compare a.pred b.pred in
    if c <> 0 then c
    else
      let c = obj_spec_compare a.obj b.obj in
      if c <> 0 then c else Bool.compare a.inverse b.inverse

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Empty, Empty | Epsilon, Epsilon -> true
  | Arc x, Arc y -> arc_equal x y
  | Star x, Star y -> equal x y
  | And (x1, x2), And (y1, y2) | Or (x1, x2), Or (y1, y2) ->
      equal x1 y1 && equal x2 y2
  | Not x, Not y -> equal x y
  | Repeat (x, m, n), Repeat (y, m', n') ->
      m = m' && Option.equal Int.equal n n' && equal x y
  | (Empty | Epsilon | Arc _ | Star _ | And _ | Or _ | Not _ | Repeat _), _ ->
      false

let rank = function
  | Empty -> 0
  | Epsilon -> 1
  | Arc _ -> 2
  | Star _ -> 3
  | And _ -> 4
  | Or _ -> 5
  | Not _ -> 6
  | Repeat _ -> 7

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Empty, Empty | Epsilon, Epsilon -> 0
    | Arc x, Arc y -> arc_compare x y
    | Star x, Star y | Not x, Not y -> compare x y
    | And (x1, x2), And (y1, y2) | Or (x1, x2), Or (y1, y2) ->
        let c = compare x1 y1 in
        if c <> 0 then c else compare x2 y2
    | Repeat (x, m, n), Repeat (y, m', n') ->
        let c = compare x y in
        if c <> 0 then c
        else
          let c = Int.compare m m' in
          if c <> 0 then c else Option.compare Int.compare n n'
    | (Empty | Epsilon | Arc _ | Star _ | And _ | Or _ | Not _ | Repeat _), _
      ->
        Int.compare (rank a) (rank b)

(* Simplification rules of §4 plus the standard star/complement laws,
   strengthened with ACI normalisation in the style of Owens, Reppy &
   Turon (2009): ‖ and | spines are flattened, conjuncts sorted
   (commutativity) and disjuncts deduplicated (idempotence — ‖ is a
   bag operator and keeps duplicates).  Without this, the Or-of-And
   expansion of ∂t(e₁ ‖ e₂) duplicates whole subtrees and derivative
   sizes explode exponentially (experiment E5 measures exactly that
   with the raw constructors). *)

let star = function
  | Empty | Epsilon -> Epsilon
  | Star _ as e -> e
  | e -> Star e

let rec flatten_and acc = function
  | And (e1, e2) -> flatten_and (flatten_and acc e2) e1
  | Epsilon -> acc
  | e -> e :: acc

let rec rebuild node = function
  | [] -> assert false
  | [ e ] -> e
  | e :: rest -> node e (rebuild node rest)

let and_ e1 e2 =
  match (e1, e2) with
  | Empty, _ | _, Empty -> Empty
  | Epsilon, e | e, Epsilon -> e
  | e1, e2 -> (
      let parts = flatten_and (flatten_and [] e2) e1 in
      if List.exists (function Empty -> true | _ -> false) parts then Empty
      else
        match List.sort compare parts with
        | [] -> Epsilon
        | parts -> rebuild (fun a b -> And (a, b)) parts)

let rec flatten_or acc = function
  | Or (e1, e2) -> flatten_or (flatten_or acc e2) e1
  | Empty -> acc
  | e -> e :: acc

(* Multiset intersection / difference on compare-sorted lists. *)
let rec bag_inter xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> []
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then x :: bag_inter xs' ys'
      else if c < 0 then bag_inter xs' ys
      else bag_inter xs ys'

let rec bag_diff xs ys =
  match (xs, ys) with
  | xs, [] -> xs
  | [], _ -> []
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then bag_diff xs' ys'
      else if c < 0 then x :: bag_diff xs' ys
      else bag_diff xs ys'

(* The conjunct bag of an expression, sorted.  ε is the empty bag. *)
let conjuncts e = List.sort compare (flatten_and [] e)

let of_conjuncts = function
  | [] -> Epsilon
  | parts -> rebuild (fun a b -> And (a, b)) parts

(* |: flatten, drop ∅, deduplicate (idempotence), and factor the
   common part of the disjuncts' conjunct bags out of the alternative:
   (C ‖ X) | (C ‖ Y) = C ‖ (X | Y).  Factoring is what keeps
   derivatives of counting shapes (e⁺, e{m,n} over many predicates)
   polynomial: the pending-vs-satisfied variants of a constraint
   differ in one conjunct and would otherwise multiply across
   constraints. *)
let rec or_ e1 e2 =
  match (e1, e2) with
  | Empty, e | e, Empty -> e
  | e1, e2 -> (
      match List.sort_uniq compare (flatten_or (flatten_or [] e2) e1) with
      | [] -> Empty
      | [ e ] -> e
      | parts -> (
          (* ε has an empty conjunct bag and would always force the
             common factor to ∅, so it is split off first. *)
          let eps, rest =
            List.partition (function Epsilon -> true | _ -> false) parts
          in
          let core =
            match rest with
            | [] -> Epsilon
            | [ e ] -> e
            | rest ->
                let bags = List.map conjuncts rest in
                let common =
                  match bags with
                  | [] -> []
                  | b :: bs -> List.fold_left bag_inter b bs
                in
                if common = [] then rebuild (fun a b -> Or (a, b)) rest
                else
                  let residuals =
                    List.sort_uniq compare
                      (List.map
                         (fun bag -> of_conjuncts (bag_diff bag common))
                         bags)
                  in
                  let alternative =
                    match residuals with
                    | [] -> Epsilon
                    | r0 :: rs -> List.fold_left or_ r0 rs
                  in
                  and_ (of_conjuncts common) alternative
          in
          match (eps, core) with
          | [], _ -> core
          | _, (Epsilon | Star _ | Repeat (_, 0, _)) ->
              core (* already nullable *)
          | _, core -> Or (Epsilon, core)))

let not_ = function Not e -> e | e -> Not e

(* Ablation variant: ACI normalisation without distributive factoring
   (experiment E5 separates the contribution of each). *)
let or_aci e1 e2 =
  match (e1, e2) with
  | Empty, e | e, Empty -> e
  | e1, e2 -> (
      match List.sort_uniq compare (flatten_or (flatten_or [] e2) e1) with
      | [] -> Empty
      | parts -> rebuild (fun a b -> Or (a, b)) parts)

let and_all es = List.fold_left and_ Epsilon es
let or_all = function [] -> Empty | e :: es -> List.fold_left or_ e es

let opt e = or_ e Epsilon

(* e{m,n} is one node whatever its bounds.  The degenerate bounds keep
   their own forms, so an expression reads the same however its
   cardinality was written. *)
let repeat m n e =
  if m < 0 then invalid_arg "Rse.repeat: negative minimum";
  (match n with
  | Some n when n < m -> invalid_arg "Rse.repeat: max < min"
  | _ -> ());
  match (m, n, e) with
  | _, Some 0, _ | _, _, Epsilon | 0, _, Empty -> Epsilon
  | _, _, Empty -> Empty
  | 1, Some 1, e -> e
  | 0, None, e -> star e
  | 0, Some 1, e -> opt e
  | m, n, e -> Repeat (e, m, n)

let plus e = repeat 1 None e

let rec size = function
  | Empty | Epsilon | Arc _ -> 1
  | Star e | Not e | Repeat (e, _, _) -> 1 + size e
  | And (e1, e2) | Or (e1, e2) -> 1 + size e1 + size e2

let rec nullable = function
  | Empty -> false
  | Epsilon -> true
  | Arc _ -> false
  | Star _ -> true
  | And (e1, e2) -> nullable e1 && nullable e2
  | Or (e1, e2) -> nullable e1 || nullable e2
  | Not e -> not (nullable e)
  | Repeat (e, m, _) -> m = 0 || nullable e

let rec refs = function
  | Empty | Epsilon -> Label.Set.empty
  | Arc { obj = Ref l; _ } -> Label.Set.singleton l
  | Arc { obj = Values _; _ } -> Label.Set.empty
  | Star e | Not e | Repeat (e, _, _) -> refs e
  | And (e1, e2) | Or (e1, e2) -> Label.Set.union (refs e1) (refs e2)

let has_ref e = not (Label.Set.is_empty (refs e))

let rec refs_under_not = function
  | Empty | Epsilon | Arc _ -> Label.Set.empty
  | Not e -> refs e
  | Star e | Repeat (e, _, _) -> refs_under_not e
  | And (e1, e2) | Or (e1, e2) ->
      Label.Set.union (refs_under_not e1) (refs_under_not e2)

let rec has_inverse = function
  | Empty | Epsilon -> false
  | Arc a -> a.inverse
  | Star e | Not e | Repeat (e, _, _) -> has_inverse e
  | And (e1, e2) | Or (e1, e2) -> has_inverse e1 || has_inverse e2

let rec has_not = function
  | Empty | Epsilon | Arc _ -> false
  | Not _ -> true
  | Star e | Repeat (e, _, _) -> has_not e
  | And (e1, e2) | Or (e1, e2) -> has_not e1 || has_not e2

let rec arcs = function
  | Empty | Epsilon -> []
  | Arc a -> [ a ]
  | Star e | Not e | Repeat (e, _, _) -> arcs e
  | And (e1, e2) | Or (e1, e2) -> arcs e1 @ arcs e2

let mentioned_preds ~inverse e =
  List.filter_map
    (fun (a : arc) -> if Bool.equal a.inverse inverse then Some a.pred else None)
    (arcs e)
  |> List.fold_left
       (fun acc p ->
         if List.exists (Value_set.pred_equal p) acc then acc else p :: acc)
       []
  |> List.rev

let with_extra pred e =
  and_ e (star (arc ~inverse:false pred (Values Value_set.Obj_any)))

let open_up e =
  let extra ~inverse =
    match mentioned_preds ~inverse e with
    | [] when not inverse -> Some (star (arc ~inverse Value_set.Pred_any (Values Value_set.Obj_any)))
    | [] -> None
    | preds ->
        Some
          (star
             (arc ~inverse (Value_set.Pred_compl preds)
                (Values Value_set.Obj_any)))
  in
  let e = match extra ~inverse:false with Some x -> and_ e x | None -> e in
  if has_inverse e then
    match extra ~inverse:true with Some x -> and_ e x | None -> e
  else e

let pp_obj_spec ppf = function
  | Values vo -> Value_set.pp_obj ppf vo
  | Ref l -> Format.fprintf ppf "@@%a" Label.pp l

let pp_arc ppf a =
  if a.inverse then Format.pp_print_string ppf "^";
  Format.fprintf ppf "%a\xe2\x86\x92%a" Value_set.pp_pred a.pred pp_obj_spec
    a.obj

(* Precedence: Or (lowest) < And < Star/Not < atoms.  Parenthesise a
   subexpression whenever its precedence is at most the context's. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if prec >= p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Empty -> Format.pp_print_string ppf "\xe2\x88\x85"
  | Epsilon -> Format.pp_print_string ppf "\xce\xb5"
  | Arc a -> pp_arc ppf a
  | Star ((Empty | Epsilon) as e) -> Format.fprintf ppf "%a*" (pp_prec 3) e
  | Star e -> Format.fprintf ppf "(%a)*" (pp_prec 0) e
  | Not ((Empty | Epsilon) as e) ->
      Format.fprintf ppf "\xc2\xac%a" (pp_prec 3) e
  | Not e -> Format.fprintf ppf "\xc2\xac(%a)" (pp_prec 0) e
  | Repeat (e, m, n) ->
      Format.fprintf ppf "(%a){%d,%s}" (pp_prec 0) e m
        (match n with Some n -> string_of_int n | None -> "*")
  | And (e1, e2) ->
      paren 2 (fun ppf ->
          Format.fprintf ppf "%a \xe2\x80\x96 %a" (pp_prec 1) e1 (pp_prec 1)
            e2)
  | Or (e1, e2) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a | %a" (pp_prec 0) e1 (pp_prec 0) e2)

let pp ppf e = pp_prec 0 ppf e
let to_string e = Format.asprintf "%a" pp e

type ctors = {
  mk_and : t -> t -> t;
  mk_or : t -> t -> t;
  mk_not : t -> t;
}

module Raw = struct
  let star e = Star e
  let and_ e1 e2 = And (e1, e2)
  let or_ e1 e2 = Or (e1, e2)
  let not_ e = Not e
end

let smart_ctors = { mk_and = and_; mk_or = or_; mk_not = not_ }
let aci_ctors = { mk_and = and_; mk_or = or_aci; mk_not = not_ }
let raw_ctors = { mk_and = Raw.and_; mk_or = Raw.or_; mk_not = Raw.not_ }
