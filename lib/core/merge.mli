(** The node-merge operation (Sec. 4.1).

    [merge(S,u,v)] replaces two label- and type-compatible clusters with
    a single cluster [w] whose extent is the union: counts add, child
    edge counts combine weighted by extent sizes, parent edge counts
    add, and value summaries fuse. Self-edges arising when [u] is a
    parent or child of [v] (or of itself) are remapped onto [w]. *)

val compatible : Synopsis.Builder.node -> Synopsis.Builder.node -> bool
(** Same label, same value type, and matching value-summary presence. *)

val saved_bytes :
  Synopsis.Builder.t -> Synopsis.Builder.node -> Synopsis.Builder.node -> int
(** Structural bytes the merge would save ([|S|_str − |S′|_str]):
    one node plus every deduplicated child and parent edge. The merged
    child count comes from {!Delta.merged_children}'s gather, in a
    fresh scratch. *)

val saved_bytes_with :
  Synopsis.Builder.t -> Synopsis.Builder.node -> Synopsis.Builder.node ->
  merged_children:int -> int
(** {!saved_bytes} with the merged node's distinct-child count already
    known (from {!Delta.merge_delta_counted}'s gather), skipping the
    gather. *)

val apply : Synopsis.Builder.t -> int -> int -> Synopsis.Builder.node
(** Performs the merge and returns the new node. The two source nodes
    are removed from the synopsis; the root is re-targeted if it was one
    of them. @raise Invalid_argument if the nodes are incompatible. *)
