(** Selectivity estimation over a sealed XCluster synopsis (Sec. 5).

    Estimation enumerates query embeddings — mappings from query
    variables to synopsis nodes satisfying the edge path expressions —
    and combines edge counts with predicate selectivities under the
    generalized {e path-value independence} assumption:
    [sel(u\[p\]/c) = |u| · σ_p(u) · count(u,c)].

    The hot loops run over the sealed form's CSR index arrays
    ({!Synopsis.Sealed}): a frontier is a pair of parallel arrays sorted
    by node index, one expansion step is a linear sweep over contiguous
    adjacency rows, and every float fold runs in ascending index (= sid)
    order. {!selectivity_builder} is the same algorithm over the mutable
    builder graph in the same canonical order, so the two agree bit for
    bit — the differential-testing anchor and the bench [seal] target's
    builder-side timing.

    Descendant steps expand the synopsis graph breadth-first with the
    expansion depth capped at the document height, which keeps the
    computation convergent on cyclic synopses (recursion such as XMark's
    [parlist]//[listitem] creates cycles once merged).

    Every reach step sums into one sparse accumulator ({!acc}): n cells
    and n flags, allocated once per owner on first use, plus the list of
    cells a step touched. Gathering a step's result sorts that list
    (or, past n/16 entries, reads it off the flags: at most 16 cells
    per touched one) and resets only those cells, so a step costs what
    it touches, not the synopsis's node count. {!selectivity} and {!explain} own one per
    call; {!Plan.Batch} owns one per engine and lends it to
    {!Transition.ensure}. Per-cell summation order is fixed (sources
    ascending, row edges ascending, depths in order), so a reused
    accumulator and a fresh one give the same bits. *)

val selectivity : Synopsis.Sealed.t -> Xc_twig.Twig_query.t -> float
(** Estimated number of binding tuples. *)

val selectivity_builder : Synopsis.Builder.t -> Xc_twig.Twig_query.t -> float
(** The hashtable-graph estimator, iterating in the sealed path's
    canonical ascending-sid order: bit-identical to {!selectivity} on
    the frozen image of the same builder. Construction-time callers can
    estimate without freezing; everything else should freeze once and
    use {!selectivity}. *)

val predicate_selectivity : Synopsis.Sealed.t -> int -> Xc_twig.Predicate.t -> float
(** [predicate_selectivity syn idx p] — σ_p(u): the predicate's
    selectivity at the synopsis node with index [idx], estimated from
    the node's value summary; 0 when the predicate's type is
    incompatible with the node's value type. *)

val predicate_selectivity_typed :
  Xc_xml.Value.vtype -> Synopsis.Sealed.t -> int -> Xc_twig.Predicate.t -> float
(** {!predicate_selectivity} with the predicate's value type supplied by
    the caller — {!Plan} pre-binds it at compile time so repeated
    estimates skip the per-call type dispatch. The float result is
    identical to {!predicate_selectivity}. *)

type dist = {
  d_idx : int array;  (** node indices, ascending *)
  d_w : float array;  (** matching weights *)
}
(** A node-weight distribution over sealed node indices — what one
    path-expression expansion produces and what the estimator folds
    over. {!Transition} stores these verbatim as matrix rows, which
    keeps compiled estimates bit-identical to uncached ones (same
    arrays, same fold order). *)

val reach : Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> int -> (int * float) list
(** [(v, count)] pairs keyed by sid, ascending: the expected number of
    elements of cluster [v] reached per element of the source cluster
    (also given by sid) via the path expression. Exposed for tests and
    diagnostics. @raise Not_found when the source sid is absent. *)

type acc
(** The sparse accumulator one owner reuses across reach steps. Not
    thread-safe: one writer at a time. *)

val accumulator : Synopsis.Sealed.t -> acc
(** An accumulator for the synopsis; its n-cell arrays are allocated on
    first use. Passing it with another synopsis raises
    [Invalid_argument]. *)

val mark : acc -> Synopsis.Sealed.t -> int -> unit
(** [mark a syn c] adds cell [c] to the touched set without adding to
    its sum. *)

val marked : acc -> int array
(** The touched cells in ascending order; resets them. *)

val reach_dist : acc -> Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> int -> dist
(** {!reach} in index space: source and results are node indices. A
    child step composes the distribution with the sealed child CSR,
    keeping the targets its label test admits; a descendant step
    applies the height-bounded breadth-first closure. {!Transition}
    builds its matrix rows through this function, hence through the
    exact float operations the oracle runs. *)

val docnode_step : Synopsis.Sealed.t -> Xc_twig.Path_expr.step -> dist
(** The first step taken from the virtual document node (what
    {!root_reach_dist} starts from): a child step selects the root
    cluster, a descendant step every matching cluster weighted by
    extent. *)

val root_reach_dist : acc -> Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> dist
(** Distribution for a path expression taken from the virtual document
    node (the root variable q0): a leading child step selects the root
    cluster, a leading descendant step every matching cluster, weighted
    by extent. Empty on the empty expression. *)

type explanation = {
  query_node : int;                   (** [Twig_query.qid] *)
  bindings : (int * string * float) list;
      (** (synopsis sid, label, expected elements bound) per cluster the
          variable can embed onto, descending by count *)
}

val explain : Synopsis.Sealed.t -> Xc_twig.Twig_query.t -> explanation list
(** The query's embeddings, per variable: which clusters each variable
    maps onto and how many elements are expected to bind there. This is
    the information an optimizer would inspect when it distrusts an
    estimate; the CLI exposes it as [estimate --explain]. *)
