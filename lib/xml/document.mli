(** XML documents: a rooted node tree with preorder identifiers and an
    element index built once, when the document is created.

    The index is read-only after {!create}, so a document can be shared
    by several domains. *)

type index
(** Each label's elements in preorder, and each element's position
    among them; read it through {!elements} and {!rank}. *)

type t = {
  root : Node.t;
  nodes : Node.t array;  (** all nodes, indexed by [Node.id] (preorder) *)
  height : int;          (** longest root-to-leaf path, root alone = 1 *)
  parents : int array;
      (** [parents.(id)] is the id of the element's parent; the root's
          is -1. A parent's id is smaller than its children's. *)
  index : index;
}

val create : Node.t -> t
(** Assigns preorder identifiers to every node of the tree rooted at the
    argument, snapshots the node array and builds the parent and
    per-label index in O(n). The tree must not be mutated afterwards. *)

val n_elements : t -> int
(** Total number of element nodes. *)

val elements : t -> Label.t -> int array
(** Ids of the elements with this label, in preorder; empty for a label
    no element carries. The array is the index's own: do not mutate. *)

val rank : t -> int -> int
(** [rank d id] is the element's position in its label's array:
    [(elements d l).(rank d id) = id], where [l] is its label. *)

val label_path : t -> Node.t -> Label.t list
(** Root-to-node list of labels, inclusive, read off {!field-parents}
    in O(depth). *)

val value_counts : t -> (Value.vtype * int) list
(** How many elements carry each value type (Null included). *)
