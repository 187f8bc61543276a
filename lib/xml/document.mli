(** XML documents: a rooted node tree with preorder identifiers and a
    path summary built once, when the document is created.

    The path summary (Arion et al.'s path summary, and the starting
    partition of the reference synopsis, Sec. 4.3) has one {e path node}
    per distinct root-to-element label path. Path nodes are numbered
    [0 .. n_paths - 1] by first encounter in preorder; the root
    element's path node is 0, and a path node's parent always has a
    smaller number than the node itself. The summary costs three ints
    per element and, per path node, a label, a parent and two arrays.
    [Twig_eval] resolves queries over it, [Reference] starts its
    refinement from its path ids, and [Workload] reads designated
    value paths off it.

    The summary is read-only after {!create}, like the rest of the
    document, so a document can be shared by several domains. *)

type summary = {
  path_of : int array;
      (** [path_of.(id)]: the path node of element [id] *)
  path_rank : int array;
      (** [path_rank.(id)]: the element's position in its path node's
          {!field-elements}: [elements.(path_of.(id)).(path_rank.(id)) = id] *)
  label : Label.t array;  (** [label.(p)]: the last label of path node [p] *)
  parent : int array;
      (** [parent.(p)]: the path node one label shorter; -1 for the
          root element's *)
  children : int array array;
      (** [children.(p)]: the path nodes whose parent is [p], ascending *)
  elements : int array array;
      (** [elements.(p)]: the elements on path node [p], in preorder *)
}
(** Every array is the summary's own: do not mutate. *)

type t = {
  root : Node.t;
  nodes : Node.t array;  (** all nodes, indexed by [Node.id] (preorder) *)
  height : int;          (** longest root-to-leaf path, root alone = 1 *)
  parents : int array;
      (** [parents.(id)] is the id of the element's parent; the root's
          is -1. A parent's id is smaller than its children's. *)
  summary : summary;
}

val create : Node.t -> t
(** Assigns preorder identifiers to every node of the tree rooted at the
    argument, snapshots the node array and builds the parent array and
    the path summary in O(n). The tree must not be mutated afterwards. *)

val n_elements : t -> int
(** Total number of element nodes. *)

val n_paths : t -> int
(** Number of path nodes: distinct root-to-element label paths. *)

val path_labels : t -> int -> Label.t list
(** Root-to-node labels of a path node, inclusive, in O(depth). *)

val label_path : t -> Node.t -> Label.t list
(** Root-to-node list of labels, inclusive: the {!path_labels} of the
    element's path node. *)

val designated : t -> Label.t list list option -> bool array
(** [designated d paths]: for each path node, whether its {!path_labels}
    is one of [paths]; every path node's is when [paths] is [None]. *)

val value_counts : t -> (Value.vtype * int) list
(** How many elements carry each value type (Null included). *)
