(** Precomputed path-expression transition matrices (the serving-side
    reach store).

    A transition matrix fixes one path expression against one sealed
    synopsis and stores, in CSR form over synopsis node indices, the
    full reach relation: row [u] is the node-weight distribution
    {!Estimate.reach_dist} would compute from source [u] — every row of
    every matrix is built through {!Estimate.step_reach}, so the stored
    floats are {b bit-identical} to what the step-by-step estimator
    produces. Single child steps come straight from the sealed child
    CSR (one expand + label filter), descendant steps apply the
    height-bounded breadth-first closure, and multi-step expressions
    compose step by step, each row staying sparse throughout.

    Once built, serving reads a row — a contiguous slice of the [idx]/
    [w] arrays — instead of re-walking the synopsis frontier, which is
    what turns {!Plan.Batch}'s inner loop into plain array traversals.

    Matrices are immutable after {!build}; sharing one across domains
    is safe. *)

type t

val build : Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> t
(** Materialize the reach relation of the expression over every source
    node of the synopsis. Cost is one {!Estimate.reach_dist} per node;
    callers ({!Plan.Batch}) build each distinct interned expression
    once per synopsis and reuse it for every query and pass. *)

val expr : t -> Xc_twig.Path_expr.t
val n_rows : t -> int

val nnz : t -> int
(** Stored (source, target) entries — the matrix's memory footprint in
    cells. *)

val row : t -> int -> Estimate.dist
(** Row [u] as a fresh dist (copies the slice); for tests and
    diagnostics. Serving loops read {!off}/{!idx}/{!weights} in place. *)

val off : t -> Synopsis.Sealed.ba_i
(** The physical CSR buffers, unboxed: row [u] spans
    [idx.{off.{u}} .. idx.{off.{u+1}-1}] (target node indices,
    ascending) with matching {!weights}. The batch kernels stream these
    slices directly. Treat as read-only. *)

val idx : t -> Synopsis.Sealed.ba_i
val weights : t -> Synopsis.Sealed.ba_f

val root_row : Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> Estimate.dist
(** The distribution from the virtual document node
    ({!Estimate.root_reach_dist}) — the "row" used when the expression
    labels a root edge. *)
