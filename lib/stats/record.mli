(** Line records: the flat text format of the persistent store's
    payloads.

    A record is a sequence of [key<kv>value] items joined by an [item]
    separator: measurements are one ["key value"] line per field
    ([~item:'\n' ~kv:' ']), a serve-sweep point is one line of
    ["key=value"] tokens ([~item:' ' ~kv:'=']).  Floats are written with
    [%h] (hex mantissa), so every finite value, negative zero and the
    infinities round-trip bit-exactly — a warm store hit must render the
    same bytes as the run that produced it.

    Reading is strict: an item without [kv] (or with an empty key), a key
    given twice, a missing key or an unparsable value makes the whole
    record an [Error]; empty items (a trailing separator) are skipped. *)

(** {1 Writing} *)

type writer

val writer : item:char -> kv:char -> Buffer.t -> writer
(** Appends items to the buffer, separated (not terminated) by [item]. *)

val add_string : writer -> string -> string -> unit

val add_int : writer -> string -> int -> unit

val add_float : writer -> string -> float -> unit
(** [%h]: bit-exact. *)

val add_bool : writer -> string -> bool -> unit

val add_opt_int : writer -> string -> int option -> unit
(** ["none"] for [None]. *)

val add_ints : writer -> string -> int list -> unit
(** Space-separated, so only for records whose [item] is not [' ']. *)

(** {1 Reading} *)

type t

exception Malformed of string
(** Raised by the getters below, and by a decoder's own checks, inside
    {!decode}. *)

val decode : item:char -> kv:char -> string -> (t -> 'a) -> ('a, string) result
(** Splits the string into items and runs the decoder over them.  Never
    raises: {!Malformed} and any exception of the decoder become
    [Error]. *)

val string : t -> string -> string

val int : t -> string -> int

val float : t -> string -> float

val bool : t -> string -> bool

val opt_int : t -> string -> int option

val ints : t -> string -> int list
