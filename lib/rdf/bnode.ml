type t = string

let of_string s = s
let label t = t

let counter = ref 0

let fresh () =
  let n = !counter in
  incr counter;
  Printf.sprintf "gen%d" n

let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let pp ppf t = Format.fprintf ppf "_:%s" t
