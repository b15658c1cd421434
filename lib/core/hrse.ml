type t = { id : int; node : node; nullable : bool }

and node =
  | Empty
  | Epsilon
  | Atom of int
  | Star of t
  | And of t list
  | Or of t list
  | Not of t
  | Repeat of t * int * int option

(* Structural key of a candidate node with children replaced by their
   ids.  Keys contain only integers, so polymorphic equality is
   exact. *)
type key =
  | KEmpty
  | KEpsilon
  | KAtom of int
  | KStar of int
  | KAnd of int list
  | KOr of int list
  | KNot of int
  | KRepeat of int * int * int  (* body id, min, max (−1 = unbounded) *)

(* The generic [Hashtbl.hash] reads only the first ten ids of a list,
   and the conjuncts of an interleaving's derivatives share their
   smallest ids, so every [And] over them would land in one bucket.
   The hash reads the whole list instead. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal (a : key) b = a = b

  let hash_ids tag ids =
    Hashtbl.hash (List.fold_left (fun h i -> (h * 31) + i) tag ids)

  let hash = function
    | KEmpty -> 0
    | KEpsilon -> 1
    | KAtom i -> Hashtbl.hash (2, i)
    | KStar i -> Hashtbl.hash (3, i)
    | KNot i -> Hashtbl.hash (4, i)
    | KRepeat (i, m, n) -> Hashtbl.hash (7, i, m, n)
    | KAnd ids -> hash_ids 5 ids
    | KOr ids -> hash_ids 6 ids
end)

type table = {
  tbl : t Key_tbl.t;
  mutable next : int;
  mutable work : int;  (** key words looked up so far, hits included *)
}

let intern table key node nullable =
  let width = match key with KAnd ids | KOr ids -> List.length ids | _ -> 1 in
  table.work <- table.work + width;
  match Key_tbl.find_opt table.tbl key with
  | Some e -> e
  | None ->
      let e = { id = table.next; node; nullable } in
      table.next <- table.next + 1;
      Key_tbl.replace table.tbl key e;
      e

let create () =
  let table = { tbl = Key_tbl.create 256; next = 0; work = 0 } in
  (* ∅ and ε first, so their ids are stable (0 and 1) and ε sorts
     before every composite — the invariant the ε-handling in [mk_or]
     relies on. *)
  ignore (intern table KEmpty Empty false);
  ignore (intern table KEpsilon Epsilon true);
  table

let cardinal table = Key_tbl.length table.tbl
let work table = table.work

let empty table = intern table KEmpty Empty false
let epsilon table = intern table KEpsilon Epsilon true
let atom table i =
  if i < 0 then invalid_arg "Hrse.atom: negative index";
  intern table (KAtom i) (Atom i) false

let equal a b = a == b
let compare a b = Int.compare a.id b.id
let hash e = e.id
let is_empty e = match e.node with Empty -> true | _ -> false

let ids es = List.map (fun e -> e.id) es

let star table e =
  match e.node with
  | Empty | Epsilon -> epsilon table
  | Star _ -> e
  | _ -> intern table (KStar e.id) (Star e) true

(* The conjunct bag of an expression: ε is the empty bag, And spines
   flatten (children of an interned And are never themselves And). *)
let conjuncts e =
  match e.node with Epsilon -> [] | And es -> es | _ -> [ e ]

let mk_and table parts =
  (* [parts]: fully flattened conjunct bag. *)
  if List.exists (fun e -> is_empty e) parts then empty table
  else
    match List.sort compare parts with
    | [] -> epsilon table
    | [ e ] -> e
    | parts ->
        intern table (KAnd (ids parts))
          (And parts)
          (List.for_all (fun e -> e.nullable) parts)

let and_all table es = mk_and table (List.concat_map conjuncts es)
let and_ table e1 e2 = and_all table [ e1; e2 ]

let disjuncts e =
  match e.node with Empty -> [] | Or es -> es | _ -> [ e ]

(* Multiset intersection / difference on id-sorted conjunct lists. *)
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

let intern_or table parts =
  (* [parts]: sorted, deduplicated, ≥ 2, no ∅. *)
  intern table (KOr (ids parts))
    (Or parts)
    (List.exists (fun e -> e.nullable) parts)

(* |: flatten, drop ∅, deduplicate (idempotence), then factor the
   common part of the disjuncts' conjunct bags out of the alternative:
   (C ‖ X) | (C ‖ Y) = C ‖ (X | Y) — the same normalisation as
   [Rse.or_], which is what keeps derivatives of counting shapes
   polynomial.  ε is split off first (its conjunct bag is empty and
   would force the common factor to nothing); it is dropped
   afterwards when the factored core is already nullable. *)
let rec mk_or table parts =
  match List.sort_uniq compare parts with
  | [] -> empty table
  | [ e ] -> e
  | parts -> (
      let eps, rest =
        List.partition (fun e -> match e.node with Epsilon -> true | _ -> false) parts
      in
      let core =
        match rest with
        | [] -> epsilon table
        | [ e ] -> e
        | rest ->
            let bags = List.map conjuncts rest in
            let common =
              match bags with
              | [] -> []
              | b :: bs -> List.fold_left bag_inter b bs
            in
            if common = [] then intern_or table rest
            else
              let residuals =
                List.sort_uniq compare
                  (List.map (fun bag -> mk_and table (bag_diff bag common)) bags)
              in
              let alternative =
                match residuals with
                | [] -> epsilon table
                | r0 :: rs ->
                    List.fold_left
                      (fun acc r -> mk_or table (disjuncts acc @ disjuncts r))
                      r0 rs
              in
              and_all table [ mk_and table common; alternative ]
      in
      match eps with
      | [] -> core
      | _ ->
          (* ε | e ≡ e when ν(e): the empty neighbourhood is already
             accepted.  (Rse.or_ only detects the syntactic cases ε and
             e⋆; the precomputed ν lets us drop ε whenever it is
             redundant, which gives a slightly tighter normal form.) *)
          if core.nullable then core
          else
            mk_or_with_eps table (epsilon table) core)

and mk_or_with_eps table eps core =
  match core.node with
  | Empty -> eps
  | Or es -> intern_or table (List.sort_uniq compare (eps :: es))
  | _ -> intern_or table (List.sort_uniq compare [ eps; core ])

let or_all table es = mk_or table (List.concat_map disjuncts es)
let or_ table e1 e2 = or_all table [ e1; e2 ]

let not_ table e =
  match e.node with
  | Not inner -> inner
  | _ -> intern table (KNot e.id) (Not e) (not e.nullable)

(* The same degenerate bounds as [Rse.repeat]. *)
let repeat table m n e =
  match (m, n, e.node) with
  | _, Some 0, _ | _, _, Epsilon | 0, _, Empty -> epsilon table
  | _, _, Empty -> empty table
  | 1, Some 1, _ -> e
  | 0, None, _ -> star table e
  | 0, Some 1, _ -> or_ table e (epsilon table)
  | m, n, _ ->
      intern table
        (KRepeat (e.id, m, Option.value n ~default:(-1)))
        (Repeat (e, m, n))
        (m = 0 || e.nullable)

let of_rse table atom_of e =
  let rec conv (e : Rse.t) =
    match e with
    | Rse.Empty -> empty table
    | Rse.Epsilon -> epsilon table
    | Rse.Arc a -> atom table (atom_of a)
    | Rse.Star inner -> star table (conv inner)
    | Rse.And (e1, e2) -> and_ table (conv e1) (conv e2)
    | Rse.Or (e1, e2) -> or_ table (conv e1) (conv e2)
    | Rse.Not inner -> not_ table (conv inner)
    | Rse.Repeat (inner, m, n) -> repeat table m n (conv inner)
  in
  conv e

module Int_tbl = Hashtbl.Make (Int)

type memo = t Int_tbl.t

let memo () = Int_tbl.create 16

(* [Deriv.deriv] with arc matching replaced by atom membership,
   memoised per node: derivatives share sub-expressions, so the memo
   keeps each from being derived twice — within one call, or across
   calls when the caller keeps one memo per (table, member vector). *)
let deriv ?memo:kept table member e =
  let memo = match kept with Some m -> m | None -> memo () in
  let rec d e =
    match Int_tbl.find_opt memo e.id with
    | Some r -> r
    | None ->
        let r =
          match e.node with
          | Empty | Epsilon -> empty table
          | Atom i -> if member.(i) then epsilon table else empty table
          | Star inner -> and_ table (d inner) e
          | And es ->
              (* ∂(e₁ ‖ … ‖ eₖ) = ⋁ᵢ ∂eᵢ ‖ rest.  Duplicate conjuncts
                 (a bag) yield identical disjuncts, and a split whose
                 ∂eᵢ is ∅ is ∅, which [or_all] drops: skip both. *)
              let rec splits acc before = function
                | [] -> acc
                | e :: rest ->
                    let acc =
                      match before with
                      | b :: _ when equal b e -> acc
                      | _ ->
                          let de = d e in
                          if is_empty de then acc
                          else
                            and_all table (de :: List.rev_append before rest)
                            :: acc
                    in
                    splits acc (e :: before) rest
              in
              or_all table (splits [] [] es)
          | Or es -> or_all table (List.map d es)
          | Not inner -> not_ table (d inner)
          | Repeat (inner, m, n) ->
              and_ table (d inner)
                (repeat table (max 0 (m - 1)) (Option.map pred n) inner)
        in
        Int_tbl.replace memo e.id r;
        r
  in
  d e

let rec size e =
  match e.node with
  | Empty | Epsilon | Atom _ -> 1
  | Star e | Not e | Repeat (e, _, _) -> 1 + size e
  | And es | Or es ->
      List.length es - 1 + List.fold_left (fun acc e -> acc + size e) 0 es

let rec pp_prec prec ppf e =
  let paren p body =
    if prec >= p then Format.fprintf ppf "(%t)" body else body ppf
  in
  let pp_nary op p es =
    paren p (fun ppf ->
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf " %s " op)
          (pp_prec p) ppf es)
  in
  match e.node with
  | Empty -> Format.pp_print_string ppf "\xe2\x88\x85"
  | Epsilon -> Format.pp_print_string ppf "\xce\xb5"
  | Atom i -> Format.fprintf ppf "#%d" i
  | Star e -> Format.fprintf ppf "(%a)*" (pp_prec 0) e
  | Not e -> Format.fprintf ppf "\xc2\xac(%a)" (pp_prec 0) e
  | Repeat (e, m, n) ->
      Format.fprintf ppf "(%a){%d,%s}" (pp_prec 0) e m
        (match n with Some n -> string_of_int n | None -> "*")
  | And es -> pp_nary "\xe2\x80\x96" 2 es
  | Or es -> pp_nary "|" 1 es

let pp ppf e = pp_prec 0 ppf e
