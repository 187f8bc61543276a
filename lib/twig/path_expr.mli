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

val of_steps : step list -> t
(** @raise Invalid_argument on the empty list. *)

val length : t -> int
val matches_test : test -> Xc_xml.Label.t -> bool
val equal : t -> t -> bool

type id = int
(** A hash-consed expression identity: dense, process-stable, equal ids
    iff equal expressions. Serving-side tables (the batched estimation
    engine's transition-matrix registry) key on it, so hot paths hash
    ints instead of step lists. *)

val intern : t -> id
(** Idempotent: the same expression always gets the same id. The intern
    table is global and mutex-guarded (safe to call from any domain;
    intended for compile phases, not per-estimate loops). *)

val of_id : id -> t
(** The expression behind an id. @raise Invalid_argument on an id no
    {!intern} call returned. *)

val interned_count : unit -> int
(** Distinct expressions interned so far. *)

val pp : Format.formatter -> t -> unit
(** Renders in XPath syntax, e.g. [//paper/title]. *)
