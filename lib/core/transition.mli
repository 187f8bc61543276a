(** Path-expression transition matrices with rows built on demand (the
    serving-side reach store).

    A transition matrix fixes one path expression against one sealed
    synopsis and stores, in CSR form over synopsis node indices, the
    reach relation from the sources {!Plan.Batch} has asked about: row
    [u] is the node-weight distribution {!Estimate.reach_dist} computes
    from source [u]. A matrix starts empty and {!ensure} builds one row
    at a time, through {!Estimate.reach_dist} itself, so every stored
    float is {b bit-identical} to what the step-by-step estimator
    produces. A row is a pure function of [u], so the order in which
    rows are built changes nothing. A one-query compile therefore
    builds only the rows of the synopsis nodes the query reaches, not
    one row per node.

    Serving reads a row — a contiguous slice of the {!idx}/{!weights}
    buffers between its {!spans} bounds — instead of re-walking the
    synopsis frontier, which is what turns {!Plan.Batch}'s inner loop
    into plain array traversals.

    Rows are built through the caller's {!Estimate.acc} ({!Plan.Batch}
    lends the one it owns), so building a row costs the cells its reach
    touches, not the synopsis's node count, and allocates no n-cell
    temporary.

    {!ensure} is the only writer, and compilation its only caller: every
    row a prepared batch reads is built before its sweep starts, so the
    sweep only reads. Growing the buffers
    copies the built prefix into new ones and leaves the old ones as
    they were, so buffers fetched before a growth keep serving the rows
    built by then. Not thread-safe while building: callers serialize
    {!ensure} (the batch engine's callers serialize every call). *)

type t

val create : Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> t
(** An empty matrix of the expression over the synopsis: no row built. *)

val ensure : t -> Estimate.acc -> int -> unit
(** [ensure t a u] builds row [u] unless it is built: one
    {!Estimate.reach_dist} from [u] through [a], appended to the
    buffers. *)

val expr : t -> Xc_twig.Path_expr.t

val rows_built : t -> int
(** Rows built so far; at most the synopsis's node count. *)

val nnz : t -> int
(** Stored (source, target) entries of the built rows — the matrix's
    memory footprint in cells. *)

val row : t -> int -> Estimate.dist
(** Built row [u] as a fresh dist (a copy of its slice); for tests and
    diagnostics. Serving loops read {!spans}/{!idx}/{!weights} in
    place. @raise Invalid_argument when row [u] is not built. *)

val spans : t -> int array
(** Row bounds, interleaved: a built row [u] spans
    [idx.{spans.(2u)} .. idx.{spans.(2u+1) - 1}] (target node indices,
    ascending) with matching {!weights}; [spans.(2u) = -1] while row
    [u] is not built. The array is allocated once and a row's bounds
    never change after it is built. Treat as read-only. *)

val idx : t -> Synopsis.Sealed.ba_i
(** The current target buffer. Fetch it after {!ensure}-ing the rows
    to be read: a later growth replaces it (the old buffer stays
    valid for the rows built before). Treat as read-only. *)

val weights : t -> Synopsis.Sealed.ba_f
(** The current weight buffer, as {!idx}. *)

val root_row : Estimate.acc -> Synopsis.Sealed.t -> Xc_twig.Path_expr.t -> Estimate.dist
(** The distribution from the virtual document node
    ({!Estimate.root_reach_dist}) — the "row" used when the expression
    labels a root edge. *)
