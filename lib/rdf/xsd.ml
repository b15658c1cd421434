type primitive =
  | String
  | Boolean
  | Decimal
  | Integer
  | Long
  | Int
  | Short
  | Byte
  | Non_negative_integer
  | Positive_integer
  | Non_positive_integer
  | Negative_integer
  | Unsigned_long
  | Unsigned_int
  | Unsigned_short
  | Unsigned_byte
  | Double
  | Float
  | Date
  | Date_time
  | Time
  | Any_uri
  | Lang_string

let xsd_ns = "http://www.w3.org/2001/XMLSchema#"
let rdf_ns = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

let name = function
  | String -> "string"
  | Boolean -> "boolean"
  | Decimal -> "decimal"
  | Integer -> "integer"
  | Long -> "long"
  | Int -> "int"
  | Short -> "short"
  | Byte -> "byte"
  | Non_negative_integer -> "nonNegativeInteger"
  | Positive_integer -> "positiveInteger"
  | Non_positive_integer -> "nonPositiveInteger"
  | Negative_integer -> "negativeInteger"
  | Unsigned_long -> "unsignedLong"
  | Unsigned_int -> "unsignedInt"
  | Unsigned_short -> "unsignedShort"
  | Unsigned_byte -> "unsignedByte"
  | Double -> "double"
  | Float -> "float"
  | Date -> "date"
  | Date_time -> "dateTime"
  | Time -> "time"
  | Any_uri -> "anyURI"
  | Lang_string -> "langString"

let all =
  [ String; Boolean; Decimal; Integer; Long; Int; Short; Byte;
    Non_negative_integer; Positive_integer; Non_positive_integer;
    Negative_integer; Unsigned_long; Unsigned_int; Unsigned_short;
    Unsigned_byte; Double; Float; Date; Date_time; Time; Any_uri;
    Lang_string ]

(* Built once: every datatype test of a value set asks for one. *)
let iris =
  List.map
    (fun dt ->
      let ns = if dt = Lang_string then rdf_ns else xsd_ns in
      (dt, Iri.of_string_exn (ns ^ name dt)))
    all

let iri dt = List.assq dt iris

let by_iri =
  let table = Hashtbl.create 32 in
  List.iter (fun (dt, i) -> Hashtbl.replace table (Iri.to_string i) dt) iris;
  table

let of_iri i = Hashtbl.find_opt by_iri (Iri.to_string i)

let is_digit c = c >= '0' && c <= '9'

let rec all_digits s i =
  i >= String.length s || (is_digit s.[i] && all_digits s (i + 1))

(* integer := [+-]? digit+ *)
let valid_integer_lexical s =
  let n = String.length s in
  let start = if n > 0 && (s.[0] = '+' || s.[0] = '-') then 1 else 0 in
  n > start && all_digits s start

(* decimal := [+-]? (digit+ ('.' digit* )? | '.' digit+) *)
let valid_decimal_lexical s =
  let n = String.length s in
  let start = if n > 0 && (s.[0] = '+' || s.[0] = '-') then 1 else 0 in
  if n <= start then false
  else
    let seen_digit = ref false and seen_dot = ref false and ok = ref true in
    for i = start to n - 1 do
      match s.[i] with
      | '0' .. '9' -> seen_digit := true
      | '.' -> if !seen_dot then ok := false else seen_dot := true
      | _ -> ok := false
    done;
    !ok && !seen_digit

(* double := decimal ([eE] [+-]? digit+)? | INF | -INF | NaN *)
let valid_double_lexical s =
  match s with
  | "INF" | "-INF" | "+INF" | "NaN" -> true
  | _ -> (
      match
        let lower = String.lowercase_ascii s in
        String.index_opt lower 'e'
      with
      | None -> valid_decimal_lexical s
      | Some i ->
          let mantissa = String.sub s 0 i in
          let exponent = String.sub s (i + 1) (String.length s - i - 1) in
          valid_decimal_lexical mantissa && valid_integer_lexical exponent)

let parse_integer s =
  if valid_integer_lexical s then
    (* int_of_string rejects a leading '+', so strip it. *)
    let s = if s.[0] = '+' then String.sub s 1 (String.length s - 1) else s in
    int_of_string_opt s
  else None

let parse_decimal s =
  match s with
  | "INF" | "+INF" -> Some infinity
  | "-INF" -> Some neg_infinity
  | "NaN" -> Some nan
  | _ -> if valid_double_lexical s then float_of_string_opt s else None

let in_int_range s lo hi =
  match parse_integer s with Some v -> v >= lo && v <= hi | None -> false

(* Unsigned long exceeds OCaml's int on 32-bit platforms only; on the
   64-bit platforms we target, max_int covers 2^63-1 but not 2^64-1, so
   we accept the lexical space and check the sign. *)
let valid_unsigned_long s =
  valid_integer_lexical s && (match parse_integer s with
  | Some v -> v >= 0
  | None -> s.[0] <> '-')

let valid_date s =
  (* YYYY-MM-DD with optional timezone (Z | ±hh:mm). *)
  let n = String.length s in
  let digit i = i < n && is_digit s.[i] in
  let date_ok =
    n >= 10 && digit 0 && digit 1 && digit 2 && digit 3 && s.[4] = '-'
    && digit 5 && digit 6 && s.[7] = '-' && digit 8 && digit 9
  in
  let tz_ok from =
    from = n
    || (from + 1 = n && s.[from] = 'Z')
    || (from + 6 = n
       && (s.[from] = '+' || s.[from] = '-')
       && digit (from + 1) && digit (from + 2) && s.[from + 3] = ':'
       && digit (from + 4) && digit (from + 5))
  in
  date_ok && tz_ok 10

let valid_time_part s from =
  (* hh:mm:ss with optional fractional seconds, starting at [from]. *)
  let n = String.length s in
  let digit i = i < n && is_digit s.[i] in
  if
    not
      (digit from && digit (from + 1)
      && from + 2 < n && s.[from + 2] = ':'
      && digit (from + 3) && digit (from + 4)
      && from + 5 < n && s.[from + 5] = ':'
      && digit (from + 6) && digit (from + 7))
  then None
  else
    let i = from + 8 in
    if i < n && s.[i] = '.' then
      let rec frac j = if digit j then frac (j + 1) else j in
      let j = frac (i + 1) in
      if j = i + 1 then None else Some j
    else Some i

let valid_time s =
  match valid_time_part s 0 with
  | None -> false
  | Some i ->
      let n = String.length s in
      let digit k = k < n && is_digit s.[k] in
      i = n
      || (i + 1 = n && s.[i] = 'Z')
      || (i + 6 = n
         && (s.[i] = '+' || s.[i] = '-')
         && digit (i + 1) && digit (i + 2) && s.[i + 3] = ':'
         && digit (i + 4) && digit (i + 5))

let valid_date_time s =
  (* The date part must be exactly 10 chars: a timezone is only allowed
     after the time component. *)
  match String.index_opt s 'T' with
  | None -> false
  | Some i ->
      i = 10
      && valid_date (String.sub s 0 10)
      && valid_time (String.sub s (i + 1) (String.length s - i - 1))

let valid_lexical dt s =
  match dt with
  | String | Lang_string | Any_uri -> true
  | Boolean -> (
      match s with "true" | "false" | "1" | "0" -> true | _ -> false)
  | Decimal -> valid_decimal_lexical s
  | Integer -> valid_integer_lexical s
  | Long -> in_int_range s min_int max_int && valid_integer_lexical s
  | Int -> in_int_range s (-2147483648) 2147483647
  | Short -> in_int_range s (-32768) 32767
  | Byte -> in_int_range s (-128) 127
  | Non_negative_integer -> (
      valid_integer_lexical s
      && match parse_integer s with Some v -> v >= 0 | None -> s.[0] <> '-')
  | Positive_integer -> (
      valid_integer_lexical s
      && match parse_integer s with Some v -> v > 0 | None -> s.[0] <> '-')
  | Non_positive_integer -> (
      valid_integer_lexical s
      && match parse_integer s with Some v -> v <= 0 | None -> s.[0] = '-')
  | Negative_integer -> (
      valid_integer_lexical s
      && match parse_integer s with Some v -> v < 0 | None -> s.[0] = '-')
  | Unsigned_long -> valid_unsigned_long s
  | Unsigned_int -> in_int_range s 0 4294967295
  | Unsigned_short -> in_int_range s 0 65535
  | Unsigned_byte -> in_int_range s 0 255
  | Double | Float -> valid_double_lexical s
  | Date -> valid_date s
  | Date_time -> valid_date_time s
  | Time -> valid_time s

let is_numeric = function
  | Decimal | Integer | Long | Int | Short | Byte | Non_negative_integer
  | Positive_integer | Non_positive_integer | Negative_integer
  | Unsigned_long | Unsigned_int | Unsigned_short | Unsigned_byte | Double
  | Float ->
      true
  | String | Boolean | Date | Date_time | Time | Any_uri | Lang_string ->
      false

let derived_from_integer = function
  | Integer | Long | Int | Short | Byte | Non_negative_integer
  | Positive_integer | Non_positive_integer | Negative_integer
  | Unsigned_long | Unsigned_int | Unsigned_short | Unsigned_byte ->
      true
  | String | Boolean | Decimal | Double | Float | Date | Date_time | Time
  | Any_uri | Lang_string ->
      false
