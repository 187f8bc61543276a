(** Textual syntax for twig queries, used by the CLI and the examples.

    Grammar (whitespace-insensitive):
    {v
    query    ::= relpath
    relpath  ::= step+
    step     ::= ("/" | "//") nametest pred*
    nametest ::= NAME | "*"
    pred     ::= "[" body "]"
    body     ::= valuepred                  value predicate on the step
               | branch valuepred?         existential branch, optionally
                                            ending in a value predicate
    branch   ::= NAME-or-step relpath?     a leading NAME means /NAME
    valuepred::= ">" INT | ">=" INT | "<" INT | "<=" INT | "=" INT
               | "in" INT ".." INT
               | "contains" "(" chars ")"
               | "ftcontains" "(" word ("," word)* ")"
    v}

    Example: [//paper[year > 2000][abstract ftcontains(synopsis, xml)]
    /title[contains(Tree)]]. *)

exception Parse_error of string

val parse : string -> Twig_query.t
(** @raise Parse_error with a message and byte position. *)

val parse_result : string -> (Twig_query.t, string) result
(** {!parse} for untrusted input: [Error msg] on a {!Parse_error}, and
    [Error "unparsable"] on any other exception the input provokes. *)
