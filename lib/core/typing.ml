type t = Label.Set.t Rdf.Term.Map.t

let empty = Rdf.Term.Map.empty
let is_empty = Rdf.Term.Map.is_empty

let add n l t =
  Rdf.Term.Map.update n
    (function
      | None -> Some (Label.Set.singleton l)
      | Some set -> Some (Label.Set.add l set))
    t

let singleton n l = add n l empty

(* A binary counter of maps over runs of consecutive nodes, newest first.
   [union] of ordered, disjoint maps splits only along their facing
   spines, so n pushes cost O(n) and hold O(log n) maps. *)
type ascending = (int * t) list

let ascending = []
let join older newer = Rdf.Term.Map.union (fun _ s _ -> Some s) older newer

let rec carry = function
  | (k, newer) :: (k', older) :: runs when k = k' ->
      carry ((2 * k, join older newer) :: runs)
  | runs -> runs

let push n ls runs =
  if Label.Set.is_empty ls then runs
  else carry ((1, Rdf.Term.Map.singleton n ls) :: runs)

let of_ascending runs =
  List.fold_left (fun acc (_, older) -> join older acc) empty runs

let combine t1 t2 =
  Rdf.Term.Map.union (fun _ s1 s2 -> Some (Label.Set.union s1 s2)) t1 t2

let labels_of n t =
  match Rdf.Term.Map.find_opt n t with
  | None -> Label.Set.empty
  | Some set -> set

let mem n l t = Label.Set.mem l (labels_of n t)
let nodes t = Rdf.Term.Map.fold (fun n _ acc -> n :: acc) t [] |> List.rev
let cardinal t = Rdf.Term.Map.fold (fun _ s acc -> acc + Label.Set.cardinal s) t 0

let to_list t =
  Rdf.Term.Map.fold
    (fun n set acc ->
      Label.Set.fold (fun l acc -> (n, l) :: acc) set acc)
    t []
  |> List.rev

let equal t1 t2 = Rdf.Term.Map.equal Label.Set.equal t1 t2

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  let first = ref true in
  Rdf.Term.Map.iter
    (fun n set ->
      if !first then first := false else Format.pp_print_cut ppf ();
      Format.fprintf ppf "%a \xe2\x86\xa6 {%a}" Rdf.Term.pp n
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Label.pp)
        (Label.Set.elements set))
    t;
  Format.pp_close_box ppf ()
