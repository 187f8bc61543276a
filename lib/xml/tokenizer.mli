(** Tokenization of free text into index terms.

    Implements the usual IR pipeline for the Boolean model: lowercase,
    split on non-alphanumeric characters, drop very short tokens and
    stopwords, intern the rest into the global {!Dictionary}. *)

val tokenize : string -> Dictionary.term list
(** Distinct terms of the text, unordered (duplicates removed). *)

val text_value : string -> Value.t
(** [text_value s] is [Value.text_of_terms (tokenize s)]. *)
