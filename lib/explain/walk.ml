open Shex

let pp_verdict ppf (outcome : Validate.outcome) =
  if outcome.Validate.ok then Format.pp_print_string ppf "PASS"
  else
    match outcome.Validate.explain with
    | Some ex -> Format.fprintf ppf "FAIL: %a" Explain.pp ex
    | None -> Format.pp_print_string ppf "FAIL"

let pp_check ppf ~session n l =
  Format.fprintf ppf "@[<v>check %a@@%a@," Rdf.Term.pp n Label.pp l;
  (match Schema.find_shape (Validate.schema session) l with
  | None -> ()
  | Some { Schema.focus = Some vo; _ } when not (Value_set.obj_mem vo n) ->
      Format.fprintf ppf "  node constraint %a refuses the focus node@,"
        Value_set.pp_obj vo
  | Some _ ->
      (* The session's derivative walk, references answered by its
         settled verdicts — the table form of Examples 8-12. *)
      Option.iter
        (Format.fprintf ppf "  @[<v>%a@]@," Deriv.pp_trace)
        (Validate.trace session n l));
  let outcome = Validate.check session n l in
  Format.fprintf ppf "  %a@]" pp_verdict outcome

let pp_report ppf ~session associations =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (n, l) ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_check ppf ~session n l)
    associations;
  Format.pp_close_box ppf ()
