type dtriple = { triple : Rdf.Triple.t; inverse : bool }

let out triple = { triple; inverse = false }
let inc triple = { triple; inverse = true }

let focus_other_end _n dt =
  if dt.inverse then Rdf.Triple.subject dt.triple
  else Rdf.Triple.obj dt.triple

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
   outgoing one onto the incoming one. *)
let of_id ~include_inverse id c =
  Rdf.Columnar.fold_out
    (fun tr acc -> out tr :: acc)
    c id
    (if include_inverse then
       Rdf.Columnar.fold_in (fun tr acc -> inc tr :: acc) c id []
     else [])

let of_columnar ?(include_inverse = false) n c =
  of_id ~include_inverse (Rdf.Interner.find_id (Rdf.Columnar.interner c) n) c

let arc_matches ~check_ref (a : Rse.arc) dt =
  Bool.equal a.inverse dt.inverse
  && Value_set.pred_mem a.pred (Rdf.Triple.predicate dt.triple)
  &&
  let far =
    if dt.inverse then Rdf.Triple.subject dt.triple
    else Rdf.Triple.obj dt.triple
  in
  match a.obj with
  | Rse.Values vo -> Value_set.obj_mem vo far
  | Rse.Ref l -> check_ref l far

let pp ppf dt =
  if dt.inverse then Format.fprintf ppf "^%a" Rdf.Triple.pp dt.triple
  else Rdf.Triple.pp ppf dt.triple

let equal a b =
  Bool.equal a.inverse b.inverse && Rdf.Triple.equal a.triple b.triple

let compare a b =
  let c = Bool.compare a.inverse b.inverse in
  if c <> 0 then c else Rdf.Triple.compare a.triple b.triple
