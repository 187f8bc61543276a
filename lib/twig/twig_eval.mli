(** Exact twig-query evaluation over a document — the ground truth
    against which synopsis estimates are scored.

    The evaluator computes, for every query variable in postorder, a
    per-element array of binding-tuple counts for the subtree rooted at
    that variable, pulling each array back through the edge's path
    expression in one O(n) pass per step (descendant steps exploit the
    preorder numbering: every child has a larger id than its parent).
    Total cost is O(|Q| · n) — feasible at the paper's 200k-element
    scale. Counts are floats; they are exact integers until they exceed
    2^53, far beyond any workload here. *)

val selectivity : Xc_xml.Document.t -> Twig_query.t -> float
(** Number of binding tuples of the query on the document. *)

val matches_path : Xc_xml.Document.t -> Path_expr.t -> int -> int -> bool
(** [matches_path doc expr src dst] — does element [dst] lie in the
    result of evaluating [expr] from element [src]? (Test helper;
    O(n·steps).) *)
