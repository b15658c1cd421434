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

(* Append a constraint whose predicates are provably disjoint from
   every constraint so far. *)
let add acc c =
  if
    List.for_all
      (fun c' -> Value_set.pred_disjoint c'.arc.pred c.arc.pred)
      acc
  then Some (acc @ [ c ])
  else None

let of_rse e =
  let rec collect (e : Rse.t) acc =
    let counted arc min max = add acc { arc; card = { min; max } } in
    match e with
    | Epsilon -> Some acc
    | Arc a -> counted a 1 (Some 1)
    | Star (Arc a) -> counted a 0 None
    | Repeat (Arc a, m, n) -> counted a m n
    | Or (Arc a, Epsilon) | Or (Epsilon, Arc a) -> counted a 0 (Some 1)
    | And (e1, e2) -> Option.bind (collect e1 acc) (collect e2)
    | Empty | Star _ | Or _ | Not _ | Repeat _ -> None
  in
  collect e []

let matches ~check ?(instr = no_instruments) n dts t =
  Telemetry.Counter.incr instr.matches_run;
  let counting = Telemetry.Counter.active instr.updates in
  let counts = Array.make (List.length t) 0 in
  let constrs = Array.of_list t in
  let obj_ok (arc : Rse.arc) dt =
    match arc.obj with
    | Rse.Values vo -> Value_set.obj_mem vo (Neigh.far dt)
    | Rse.Ref l -> check l dt
  in
  let attribute (dt : Neigh.dtriple) =
    let p = Rdf.Triple.predicate dt.triple and inverse = Neigh.inverse dt in
    let rec find i =
      if i >= Array.length constrs then false
      else
        let c = constrs.(i) in
        if
          Bool.equal c.arc.inverse inverse
          && Value_set.pred_mem c.arc.pred p
        then
          if obj_ok c.arc dt then begin
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

let matches_dts ?(check_ref = fun _ _ -> false) ?instr n dts t =
  matches ~check:(Neigh.by_term check_ref) ?instr n dts t

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
