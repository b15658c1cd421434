(** A minimal, dependency-free JSON representation.

    Used for ShExJ schema interchange ({!Shexc.Shexj}) and for
    machine-readable validation reports ({!Shex.Report}).  Covers RFC
    8259: objects, arrays, strings (with escape handling), numbers,
    booleans and null.  Object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(** {1 Construction helpers} *)

val int : int -> t

val find : string -> t -> t option
(** [find key (Object …)] — [None] on missing key or non-object. *)

val find_string : string -> t -> string option
val find_int : string -> t -> int option
val find_list : string -> t -> t list option

val as_int : t -> int option

(** {1 Printing} *)

val to_string : ?minify:bool -> t -> string
(** Render; default is 2-space pretty-printing, [~minify:true] is
    single-line. *)

val pp : Format.formatter -> t -> unit

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path content] writes [content] to a temporary
    file in [path]'s directory and renames it over [path], so readers
    never observe a truncated file even if the writer is interrupted
    mid-run.  On error the temporary file is removed and the previous
    [path] (if any) is untouched. *)

val to_file : ?minify:bool -> string -> t -> unit
(** [to_file path t] — {!to_string} rendered through
    {!write_file_atomic}. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Parse a JSON document.  Errors carry 1-based line/column. *)

val of_string_exn : string -> t
