(** Twig queries: node- and edge-labelled trees of query variables
    (Sec. 2).

    The root variable [q0] always binds to the document root. Every
    other variable is reached from its parent variable through a
    {!Path_expr} edge, and may carry {!Predicate}s on its own value.
    The query's selectivity is the number of {e binding tuples}:
    assignments of document elements to all variables satisfying every
    structural and value constraint. *)

type node = {
  qid : int;                            (** dense id, root = 0 *)
  preds : Predicate.t list;             (** value predicates on this variable *)
  edges : (Path_expr.t * node) list;    (** outgoing structural constraints *)
}

type t = {
  root : node;
  n_nodes : int;
}

type query_class =
  | Cstruct   (** no value predicates *)
  | Cnumeric
  | Cstring
  | Ctext
  | Cmixed    (** predicates of several types *)

val make : (Predicate.t list * (Path_expr.t * node) list) -> t
(** Builds a query from the root's predicates and edges, assigning
    dense [qid]s in preorder. *)

val node : ?preds:Predicate.t list -> ?edges:(Path_expr.t * node) list ->
  unit -> node
(** Builds an interior/leaf query node ([qid] is patched by {!make}). *)

val linear : ?preds:Predicate.t list -> Path_expr.t -> t
(** Single-edge query [q0 --expr--> q1] with predicates on [q1]. *)

val classify : t -> query_class
(** Class of the query by the value predicates it contains. *)

val n_predicates : t -> int
val iter_nodes : (node -> unit) -> t -> unit
val pp : Format.formatter -> t -> unit
(** XPath-ish rendering with bracketed branches and predicates, in the
    syntax {!Twig_parse.parse} reads back. *)

val class_name : query_class -> string
