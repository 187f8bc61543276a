(** Serialization of documents back to XML text.

    Values render as character data: NUMERIC as decimal, STRING escaped
    verbatim, TEXT as its dictionary terms joined by spaces (the Boolean
    IR model does not retain word order or multiplicity). The serialized
    byte count is what Table 1 reports as "file size". *)

val to_string : Document.t -> string
val to_file : string -> Document.t -> unit

val serialized_size : Document.t -> int
(** Byte count of {!to_string} without materializing the string twice. *)

val escape : string -> string
(** XML-escapes [&], [<], [>] and double quotes. *)
