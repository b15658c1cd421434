type t = {
  mutable terms : Term.t array;  (* id -> term; length ≥ len *)
  mutable len : int;
  ids : (Term.t, int) Hashtbl.t;  (* term -> id *)
}

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  { terms = [||]; len = 0; ids = Hashtbl.create capacity }

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

let intern t term =
  match Hashtbl.find_opt t.ids term with
  | Some id -> id
  | None ->
      let id = t.len in
      if id = 0 then t.terms <- Array.make 16 term else grow t;
      t.terms.(id) <- term;
      t.len <- id + 1;
      Hashtbl.replace t.ids term id;
      id

let find t term = Hashtbl.find_opt t.ids term

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

let compact t =
  let n = t.len in
  let order = Array.init n Fun.id in
  (* Merge sort: fewer Term.compare calls than heap sort, for an
     auxiliary array of n/2 words. *)
  Array.stable_sort (fun a b -> Term.compare t.terms.(a) t.terms.(b)) order;
  let remap = Array.make n 0 in
  let compacted = create ~capacity:(2 * n) () in
  Array.iteri
    (fun new_id old_id ->
      remap.(old_id) <- new_id;
      ignore (intern compacted t.terms.(old_id)))
    order;
  (compacted, remap)
