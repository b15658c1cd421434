type shape = { focus : Value_set.obj option; expr : Rse.t }

type t = { order : Label.t list; map : shape Label.Map.t; strata : Strata.t }

let make_shapes rule_list =
  let rec build order map = function
    | [] -> Ok (List.rev order, map)
    | (l, (shape : shape)) :: rest ->
        if Label.Map.mem l map then
          Error (Format.asprintf "duplicate shape label %a" Label.pp l)
        else build (l :: order) (Label.Map.add l shape map) rest
  in
  match build [] Label.Map.empty rule_list with
  | Error _ as e -> e
  | Ok (order, map) ->
      let undefined =
        List.fold_left
          (fun acc (_, (shape : shape)) ->
            Label.Set.fold
              (fun l acc ->
                if Label.Map.mem l map then acc else Label.Set.add l acc)
              (Rse.refs shape.expr) acc)
          Label.Set.empty rule_list
      in
      if not (Label.Set.is_empty undefined) then
        Error
          (Format.asprintf "reference to undefined shape label(s): %a"
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                Label.pp)
             (Label.Set.elements undefined))
      else
        (* Negated references are allowed only across strata: a
           negation inside a recursive cycle has no well-defined
           fixpoint. *)
        Result.map
          (fun strata -> { order; map; strata })
          (Strata.compute
             (List.map (fun (l, (s : shape)) -> (l, s.expr)) rule_list))

let make rules =
  make_shapes (List.map (fun (l, e) -> (l, { focus = None; expr = e })) rules)

let make_exn rules =
  match make rules with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schema.make_exn: " ^ msg)

let find_shape t l = Label.Map.find_opt l t.map

let find t l =
  Option.map (fun (s : shape) -> s.expr) (Label.Map.find_opt l t.map)

let find_exn t l =
  match find t l with
  | Some e -> e
  | None -> invalid_arg (Format.asprintf "Schema.find_exn: %a" Label.pp l)

let labels t = t.order

let rules t =
  List.map (fun l -> (l, (Label.Map.find l t.map).expr)) t.order

let shapes t = List.map (fun l -> (l, Label.Map.find l t.map)) t.order
let mem t l = Label.Map.mem l t.map

let dependencies t l =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | l :: rest ->
        if Label.Set.mem l visited then go visited rest
        else
          let visited = Label.Set.add l visited in
          let next =
            match find t l with
            | None -> []
            | Some e -> Label.Set.elements (Rse.refs e)
          in
          go visited (next @ rest)
  in
  go Label.Set.empty [ l ]

let stratum t l = Strata.stratum t.strata l

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  let first = ref true in
  List.iter
    (fun (l, e) ->
      if !first then first := false else Format.pp_print_cut ppf ();
      Format.fprintf ppf "%a \xe2\x86\xa6 %a" Label.pp l Rse.pp e)
    (rules t);
  Format.pp_close_box ppf ()
