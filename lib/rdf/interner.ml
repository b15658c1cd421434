module Tbl = Hashtbl.Make (Term)

type t = {
  mutable terms : Term.t array;  (* id -> term; length ≥ len *)
  mutable len : int;
  ids : int Tbl.t;  (* term -> id *)
}

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  { terms = [||]; len = 0; ids = Tbl.create capacity }

let cardinal t = t.len

let grow t =
  let cap = Array.length t.terms in
  if t.len >= cap then begin
    let cap' = max 16 (2 * cap) in
    (* The filler is only a placeholder; slots ≥ len are never read. *)
    let fresh = Array.make cap' t.terms.(0) in
    Array.blit t.terms 0 fresh 0 t.len;
    t.terms <- fresh
  end

(* [Tbl.find], not [find_opt]: a hit allocates nothing. *)
let find_id t term =
  match Tbl.find t.ids term with id -> id | exception Not_found -> -1

let intern t term =
  match Tbl.find t.ids term with
  | id -> id
  | exception Not_found ->
      let id = t.len in
      if id = 0 then t.terms <- Array.make 16 term else grow t;
      t.terms.(id) <- term;
      t.len <- id + 1;
      Tbl.add t.ids term id;
      id

let find t term = Tbl.find_opt t.ids term

let resolve t id =
  if id < 0 || id >= t.len then
    invalid_arg (Printf.sprintf "Interner.resolve: unknown id %d" id)
  else t.terms.(id)

let iteri f t =
  for id = 0 to t.len - 1 do
    f id t.terms.(id)
  done

let sorted t =
  let rec go i =
    i + 1 >= t.len
    || (Term.compare t.terms.(i) t.terms.(i + 1) < 0 && go (i + 1))
  in
  go 0

(* A copy of the table, its ids remapped: no term is hashed again. *)
let compact t =
  let n = t.len in
  let order = Array.init n Fun.id in
  (* Merge sort: fewer Term.compare calls than heap sort, for an
     auxiliary array of n/2 words. *)
  Array.stable_sort (fun a b -> Term.compare t.terms.(a) t.terms.(b)) order;
  let remap = Array.make n 0 in
  Array.iteri (fun new_id old_id -> remap.(old_id) <- new_id) order;
  let ids = Tbl.copy t.ids in
  Tbl.filter_map_inplace (fun _ id -> Some remap.(id)) ids;
  ({ terms = Array.map (fun old_id -> t.terms.(old_id)) order; len = n; ids },
   remap)
