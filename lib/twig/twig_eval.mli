(** Exact twig-query evaluation over a document — the ground truth
    against which synopsis estimates are scored.

    The evaluator reads the element index that
    {!Xc_xml.Document.create} builds (parents, and the preorder-sorted
    elements of each label). A query variable's binding-tuple counts
    are a sparse vector over the elements its incoming step's test
    names; a wildcard names every element. Each branch is pulled back
    through its path expression one step at a time: a child step adds
    an element's count to its parent, a descendant step to each
    ancestor, and each step keeps only the elements the previous step's
    test admits. Branches multiply pointwise, so a variable's support
    is the intersection of its branches' before any predicate is
    tested. A child step costs the elements its source holds; a
    descendant step costs that times the depth it walks up, capped at
    O(n): once [|source| * (height - 1)] exceeds the document's size,
    the step sums every subtree in one reverse preorder scan instead.
    Each step also allocates and reads one cell per element its target
    test names; only wildcards touch every element.

    Counts are floats; they are exact integers until they exceed 2^53,
    far beyond any workload here, so the summation order does not change
    a result. The evaluator keeps no state between calls: several
    domains may evaluate on one document at once. *)

val selectivity : Xc_xml.Document.t -> Twig_query.t -> float
(** Number of binding tuples of the query on the document. *)
