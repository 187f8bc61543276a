(** Value predicates attachable to twig-query nodes (Sec. 2).

    Each predicate class targets one value type: range predicates target
    NUMERIC values, substring predicates STRING values, and keyword
    predicates TEXT values. *)

type t =
  | Range of int * int
      (** [Range (l, h)] — inclusive numeric range [l, h]. *)
  | Contains of string
      (** [contains(qs)] — SQL-LIKE-style substring match. {!pp} quotes
          a needle the bare syntax cannot carry (edge whitespace, a
          [')'], a leading ['"']). *)
  | Ft_contains of Xc_xml.Dictionary.term list
      (** [ftcontains(t1,...,tk)] — conjunctive exact term matches. *)
  | Ft_any of Xc_xml.Dictionary.term list
      (** [ftany(t1,...,tk)] — disjunctive term match (at least one
          term present). One of the additional Boolean-model predicates
          the paper's framework supports (Sec. 2). *)
  | Ft_excludes of Xc_xml.Dictionary.term list
      (** [ftexcludes(t1,...,tk)] — negation (none of the terms
          present); applies to TEXT values only. *)

val matches : t -> Xc_xml.Value.t -> bool
(** Exact Boolean semantics against a concrete element value; a
    predicate never matches a value of the wrong type. *)

val vtype : t -> Xc_xml.Value.vtype
(** The value type the predicate applies to. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
