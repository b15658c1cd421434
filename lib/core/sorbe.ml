type interval = { min : int; max : int option }
type constr = { arc : Rse.arc; card : interval }
type t = constr list

type instruments = {
  tele : Telemetry.t;
  matches_run : Telemetry.Counter.t;
  updates : Telemetry.Counter.t;
}

let instruments tele =
  {
    tele;
    matches_run = Telemetry.counter tele "sorbe_matches";
    updates = Telemetry.counter tele "sorbe_counter_updates";
  }

let no_instruments = instruments Telemetry.disabled
let counters instr = [ instr.matches_run; instr.updates ]

let arc_equal (a : Rse.arc) (b : Rse.arc) =
  Value_set.pred_equal a.pred b.pred
  && Bool.equal a.inverse b.inverse
  &&
  match (a.obj, b.obj) with
  | Rse.Values x, Rse.Values y -> Value_set.obj_equal x y
  | Rse.Ref x, Rse.Ref y -> Label.equal x y
  | (Rse.Values _ | Rse.Ref _), _ -> false

let add_interval i1 i2 =
  { min = i1.min + i2.min;
    max = (match (i1.max, i2.max) with
          | Some m1, Some m2 -> Some (m1 + m2)
          | None, _ | _, None -> None) }

(* Merge a new constraint into an accumulated list: same arc → sum the
   intervals; different arc → predicates must be provably disjoint. *)
let merge acc c =
  let rec go = function
    | [] -> Some [ c ]
    | c' :: rest ->
        if arc_equal c'.arc c.arc then
          Some ({ c' with card = add_interval c'.card c.card } :: rest)
        else if Value_set.pred_disjoint c'.arc.pred c.arc.pred then
          Option.map (fun rest' -> c' :: rest') (go rest)
        else None
  in
  go acc

let of_rse e =
  let rec collect (e : Rse.t) acc =
    match e with
    | Epsilon -> Some acc
    | Arc a -> merge acc { arc = a; card = { min = 1; max = Some 1 } }
    | Star (Arc a) -> merge acc { arc = a; card = { min = 0; max = None } }
    | And (Arc a, Star (Arc a')) when arc_equal a a' ->
        merge acc { arc = a; card = { min = 1; max = None } }
    | Or (Arc a, Epsilon) | Or (Epsilon, Arc a) ->
        merge acc { arc = a; card = { min = 0; max = Some 1 } }
    | And (e1, e2) -> (
        match collect e1 acc with
        | Some acc -> collect e2 acc
        | None -> None)
    | Empty | Star _ | Or _ | Not _ -> None
  in
  (* [merge] appends at the tail, so the accumulator is already in
     encounter order. *)
  collect e []

let to_rse t =
  Rse.and_all
    (List.map
       (fun c ->
         Rse.repeat c.card.min c.card.max
           (Rse.arc ~inverse:c.arc.inverse c.arc.pred c.arc.obj))
       t)

let has_inverse t = List.exists (fun c -> c.arc.inverse) t

let matches_dts ?(check_ref = fun _ _ -> false) ?(instr = no_instruments) n dts
    t =
  Telemetry.Counter.incr instr.matches_run;
  let counting = Telemetry.Counter.active instr.updates in
  let counts = Array.make (List.length t) 0 in
  let constrs = Array.of_list t in
  let obj_ok (arc : Rse.arc) far =
    match arc.obj with
    | Rse.Values vo -> Value_set.obj_mem vo far
    | Rse.Ref l -> check_ref l far
  in
  let attribute (dt : Neigh.dtriple) =
    let p = Rdf.Triple.predicate dt.triple in
    let far =
      if dt.inverse then Rdf.Triple.subject dt.triple
      else Rdf.Triple.obj dt.triple
    in
    let rec find i =
      if i >= Array.length constrs then false
      else
        let c = constrs.(i) in
        if
          Bool.equal c.arc.inverse dt.inverse
          && Value_set.pred_mem c.arc.pred p
        then
          if obj_ok c.arc far then begin
            counts.(i) <- counts.(i) + 1;
            if counting then Telemetry.Counter.incr instr.updates;
            true
          end
          else false (* the only possible owner rejects the object *)
        else find (i + 1)
    in
    find 0
  in
  let result =
    List.for_all attribute dts
    && Array.for_all2
         (fun count c ->
           count >= c.card.min
           && match c.card.max with None -> true | Some m -> count <= m)
         counts constrs
  in
  if Telemetry.tracing instr.tele then
    Telemetry.emit instr.tele
      (Telemetry.instant "sorbe_match"
         [ ("focus", Telemetry.String (Rdf.Term.to_string n));
           ("triples", Telemetry.Int (List.length dts));
           ("constraints", Telemetry.Int (Array.length constrs));
           ("ok", Telemetry.Bool result) ]);
  result

let matches ?check_ref ?instr n g t =
  let dts = Neigh.of_node ~include_inverse:(has_inverse t) n g in
  matches_dts ?check_ref ?instr n dts t

let pp_interval ppf i =
  match i.max with
  | Some m -> Format.fprintf ppf "{%d,%d}" i.min m
  | None -> Format.fprintf ppf "{%d,*}" i.min

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " \xe2\x80\x96 ")
    (fun ppf c ->
      Format.fprintf ppf "%a%a" Rse.pp
        (Rse.arc ~inverse:c.arc.inverse c.arc.pred c.arc.obj)
        pp_interval c.card)
    ppf t
