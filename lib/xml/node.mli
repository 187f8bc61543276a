(** Element nodes of an XML document tree.

    A node carries an interned label, an optional typed value, and an
    ordered array of children. Node identifiers are assigned in preorder
    when a {!Document} is created, so that per-node tables elsewhere in
    the system can be plain arrays. *)

type t = {
  label : Label.t;
  value : Value.t;
  mutable children : t array;
  mutable id : int;  (** preorder index, assigned by {!Document.create} *)
}

val make : ?value:Value.t -> ?children:t list -> string -> t
(** [make tag ~value ~children] builds a node with label [tag]. *)

val make_l : ?value:Value.t -> ?children:t list -> Label.t -> t
(** Same with an already-interned label. *)

val leaf : string -> Value.t -> t
(** A value-bearing node without children. *)

val add_child : t -> t -> unit
(** Appends a child (O(n) per call; generators batch with [make]). *)

val iter : (t -> unit) -> t -> unit
(** Preorder traversal. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Preorder fold. *)

val size : t -> int
(** Number of element nodes in the subtree. *)

val height : t -> int
(** Length of the longest root-to-leaf path (single node = 1). *)

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering, for debugging. *)
