(** The one JSON codec (parser + printer): every JSON text the libraries
    write — protocol messages, graphs, WAL records, metrics and traces —
    is a {!t} printed by {!to_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Parse_error} with a formatted message. *)

val to_string : t -> string
(** Compact serialization; strings are escaped per RFC 8259.  Integral
    floats below 1e15 print without a fraction; other finite floats in
    the fewest of 15, 16 or 17 significant digits that parse back to the
    same double.  JSON has no non-finite numbers: [nan] prints as
    [null], [±infinity] as [±1e308]. *)

val parse : string -> t
(** @raise Parse_error on malformed input or trailing characters; it
    raises nothing else. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects too. *)

val member_exn : string -> t -> t
(** @raise Parse_error when absent. *)

val to_int : t -> int
(** Accepts [Int] and integral [Float]. @raise Parse_error otherwise. *)

val to_float : t -> float
(** Accepts [Int] and [Float]. @raise Parse_error otherwise. *)

val to_str : t -> string
val to_list : t -> t list
val to_bool : t -> bool
