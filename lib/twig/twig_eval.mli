(** Exact twig-query evaluation over a document — the ground truth
    against which synopsis estimates are scored.

    The evaluator reads the path summary that
    {!Xc_xml.Document.create} builds. It first resolves the query top
    down over the summary: each query variable, and each intermediate
    step of each edge, gets the path nodes its incoming path can reach,
    so [/], [//] and [*] expand over path nodes, not over elements. A
    domain is the elements of those path nodes, path node by path node,
    each in preorder, and a variable's binding-tuple counts are a dense
    vector over its domain. The summary is a superset filter: a child
    path node says that {e some} element of its parent path node has
    such a child, not that each one does. So the counts are then pulled
    back up each branch one step at a time, and stay exact: a child step adds an element's
    count to its parent, a descendant step to each ancestor up to the
    highest one the target domain holds. Branches multiply pointwise,
    and a predicate is tested only on the domain's elements whose count
    is not 0 after that. A child step costs the elements its source
    holds; a descendant step costs that times the depth it walks up,
    capped at O(n): once the walk would exceed the document's size, the
    step sums every subtree in one reverse preorder scan instead. Each
    step also allocates one cell per element of its target domain, and
    resolving it costs O(path nodes); a wildcard names only the path
    nodes below its source, not every element.

    Counts are floats; they are exact integers until they exceed 2^53,
    far beyond any workload here, so the summation order does not change
    a result. The evaluator keeps no state between calls: several
    domains may evaluate on one document at once. *)

val selectivity : Xc_xml.Document.t -> Twig_query.t -> float
(** Number of binding tuples of the query on the document. *)
