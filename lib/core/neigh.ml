(* [dir] is far id · 2 + 1 if incoming, with far id -1 for none. *)
type dtriple = { triple : Rdf.Triple.t; dir : int }

let pack far inverse = (far lsl 1) lor Bool.to_int inverse
let out triple = { triple; dir = pack (-1) false }
let inc triple = { triple; dir = pack (-1) true }
let inverse dt = dt.dir land 1 = 1
let far_id dt = dt.dir asr 1

let far dt =
  if inverse dt then Rdf.Triple.subject dt.triple else Rdf.Triple.obj dt.triple

type ref_check = Label.t -> dtriple -> bool

let by_term check_ref : ref_check = fun l dt -> check_ref l (far dt)

(* [List.map out outs @ tail] without the copy [@] makes. *)
let[@tail_mod_cons] rec outs_onto tail = function
  | [] -> tail
  | tr :: trs -> out tr :: outs_onto tail trs

(* Both stores list a node's arcs in Triple.compare order (the
   structural indexes hold sets; canonical columnar ids sort like
   terms), so [of_node] and [of_id] produce the exact same list
   over the same triples — the ordering the byte-identity guarantees
   lean on. *)
let of_node ?(include_inverse = false) n g =
  outs_onto
    (if include_inverse then List.map inc (Rdf.Graph.in_triples n g) else [])
    (Rdf.Graph.out_triples n g)

(* Both runs are built back to front straight from the slice rows, the
   outgoing one onto the incoming one, each row with its far id. *)
let of_id ~include_inverse id c =
  Rdf.Columnar.fold_out
    (fun triple far acc -> { triple; dir = pack far false } :: acc)
    c id
    (if include_inverse then
       Rdf.Columnar.fold_in
         (fun triple far acc -> { triple; dir = pack far true } :: acc)
         c id []
     else [])

let of_columnar ?(include_inverse = false) n c =
  of_id ~include_inverse (Rdf.Interner.find_id (Rdf.Columnar.interner c) n) c

let arc_matches ~check (a : Rse.arc) dt =
  Bool.equal a.inverse (inverse dt)
  && Value_set.pred_mem a.pred (Rdf.Triple.predicate dt.triple)
  &&
  match a.obj with
  | Rse.Values vo -> Value_set.obj_mem vo (far dt)
  | Rse.Ref l -> check l dt

let pp ppf dt =
  if inverse dt then Format.fprintf ppf "^%a" Rdf.Triple.pp dt.triple
  else Rdf.Triple.pp ppf dt.triple

let equal a b =
  Bool.equal (inverse a) (inverse b) && Rdf.Triple.equal a.triple b.triple

let compare a b =
  let c = Bool.compare (inverse a) (inverse b) in
  if c <> 0 then c else Rdf.Triple.compare a.triple b.triple
