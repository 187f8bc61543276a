(** XPath-style linear path expressions labelling twig-query edges.

    The paper's query model supports the child and descendant axes and
    wildcards (Sec. 2); a path expression is a non-empty sequence of
    steps, e.g. [//paper/title] or [/regions//item/*]. *)

type test =
  | Tag of Xc_xml.Label.t
  | Wildcard

type axis =
  | Child       (** [/]  — one containment edge *)
  | Descendant  (** [//] — one or more containment edges *)

type step = {
  axis : axis;
  test : test;
}

type t = step list
(** Non-empty list; evaluated left to right from the context element. *)

val child : string -> step
val desc : string -> step

val length : t -> int
val matches_test : test -> Xc_xml.Label.t -> bool
val equal : t -> t -> bool

val hash : t -> int
(** A hash over every step, consistent with {!equal}. *)

val pp : Format.formatter -> t -> unit
(** Renders in XPath syntax, e.g. [//paper/title]. *)
