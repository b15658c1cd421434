type t =
  | Iri of Iri.t
  | Bnode of Bnode.t
  | Literal of Literal.t

let iri s = Iri (Iri.of_string_exn s)
let bnode s = Bnode (Bnode.of_string s)
let str s = Literal (Literal.string s)
let int n = Literal (Literal.integer n)
let is_iri = function Iri _ -> true | Bnode _ | Literal _ -> false
let is_bnode = function Bnode _ -> true | Iri _ | Literal _ -> false
let is_literal = function Literal _ -> true | Iri _ | Bnode _ -> false

let subject_ok = function
  | Iri _ | Bnode _ -> true
  | Literal _ -> false


let as_literal = function
  | Literal l -> Some l
  | Iri _ | Bnode _ -> None

let equal a b =
  match (a, b) with
  | Iri x, Iri y -> Iri.equal x y
  | Bnode x, Bnode y -> Bnode.equal x y
  | Literal x, Literal y -> Literal.equal x y
  | (Iri _ | Bnode _ | Literal _), _ -> false

(* Two numeric literals compare in the value space ("01"^^xsd:integer
   equals "1"^^xsd:integer); everything else falls back to term
   equality — exactly the relation SPARQL's [=] decides on RDF terms,
   with booleans (no [as_float] view) staying syntactic either way. *)
let value_equal a b =
  match (a, b) with
  | Literal x, Literal y -> (
      match (Literal.as_float x, Literal.as_float y) with
      | Some fx, Some fy -> Float.equal fx fy
      | (Some _ | None), _ -> Literal.equal x y)
  | (Iri _ | Bnode _ | Literal _), _ -> equal a b

(* IRIs < blank nodes < literals, then the component order. *)
let compare a b =
  let rank = function Iri _ -> 0 | Bnode _ -> 1 | Literal _ -> 2 in
  match (a, b) with
  | Iri x, Iri y -> Iri.compare x y
  | Bnode x, Bnode y -> Bnode.compare x y
  | Literal x, Literal y -> Literal.compare x y
  | _ -> Int.compare (rank a) (rank b)

(* Mix the constructor tag into the component hash arithmetically: no
   tuple allocation, no second [Hashtbl.hash] pass over an already
   mixed value.  This sits on the memo/DFA hot path. *)
let hash = function
  | Iri i -> (Iri.hash i * 0x1000193) land max_int
  | Bnode b -> ((Bnode.hash b * 0x1000193) + 1) land max_int
  | Literal l -> ((Literal.hash l * 0x1000193) + 2) land max_int

let pp ppf = function
  | Iri i -> Iri.pp ppf i
  | Bnode b -> Bnode.pp ppf b
  | Literal l -> Literal.pp ppf l

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
