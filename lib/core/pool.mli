(** The candidate-merge pool of XCLUSTERBUILD (Sec. 4.3, Fig. 6).

    The pool is a marginal-loss priority queue over candidate node
    merges, built bottom-up by level (shortest distance to a leaf):
    pairs are only considered among label/type-compatible nodes whose
    level is at most the current threshold, matching the intuition that
    parents merge well once their children have merged.

    Two efficiency heuristics bound the quadratic pair space (both
    documented in DESIGN.md): per-group pair generation falls back to
    count-nearest-neighbour pairing when a group is large ({!pair_cap}),
    and the pool keeps only the {!hm} best candidates.

    Construction performance (DESIGN.md Sec. 8): compatible peers come
    from the Builder's incrementally maintained group index, so neither
    {!build} nor {!push_neighbors} scans the node table. Candidate
    scoring is a pure read over the builder, run on the calling thread
    with one child-edge gather scratch per scoring batch, so builds on
    distinct builders may run on distinct threads at once. Candidates
    carry a total order — marginal-loss priority, then the (u, v) sid
    pair — independent of evaluation order and hashtable layout.
    Diagnostics ([pool.cand_evals], [pool.scanned], [pool.rescored],
    the [pool.score] timer, ...) report into [Xc_util.Metrics.global]. *)

type cand = {
  u : int;
  v : int;
  delta : float;
  saved : int;
}

type t = cand Xc_util.Heap.t

val hm : int
(** Maximum pool size: 10 000, the paper's H_m. *)

val hl : int
(** Replenish threshold: {!Build} rebuilds the pool once it holds at
    most this many candidates — 5 000, the paper's H_l. *)

val pair_cap : int
(** Most pairs a group contributes exhaustively (4 000); a larger group
    pairs each node with its [neighbor_k] count-nearest peers instead. *)

type config = {
  neighbor_k : int;   (** neighbours per node when a group is too large *)
  structural_only : bool;  (** TREESKETCH-style Δ (ablation) *)
}

val default_config : config

val group_key : Synopsis.Builder.node -> int * int * int
(** Nodes are mergeable only within the same group:
    (label, value type, value-summary kind). Alias of
    {!Synopsis.Builder.group_key}, the key of the Builder's incremental
    group index. *)

val build : config -> Synopsis.Builder.t -> levels:Synopsis.Levels.t ->
  level:int -> t
(** Builds a fresh pool of candidates among nodes with level ≤ [level],
    keeping the {!hm} best by marginal loss. *)

val build_frontier : config -> Synopsis.Builder.t ->
  levels:Synopsis.Levels.t -> frontier:int list -> t
(** The localized form of {!build} for incremental repair
    ({!Update}): candidates pair each {e dirty} node (a sid in
    [frontier]; duplicates and since-removed sids are ignored) with its
    [neighbor_k] count-nearest group members, with no level threshold —
    repair starts from the perturbed clusters, wherever they sit in the
    bottom-up order. Touches only the frontier nodes' groups, never the
    node table, so its cost scales with the perturbation, not the
    synopsis. Deterministic: the frontier is processed in ascending sid
    order and each neighbourhood push is itself deterministic. *)

val push_neighbors : config -> Synopsis.Builder.t -> t ->
  levels:Synopsis.Levels.t -> level:int -> Synopsis.Builder.node -> unit
(** After a merge produced a new node, pushes candidates pairing it with
    up to [neighbor_k] count-nearest group members (the paper's
    "recompute losses in the neighborhood" step, in lazy form). Touches
    only the node's group — never the full node table. *)

val pop_valid : config -> Synopsis.Builder.t -> t -> cand option
(** Pops the best candidate whose two nodes still exist (stale entries
    referring to already-merged nodes are discarded) and whose score is
    current: entries whose endpoints survive but whose neighborhood
    changed since scoring (detected by a [saved_bytes] drift) are
    rescored and reinserted rather than returned. The returned
    candidate's [saved] therefore always equals
    [Merge.saved_bytes] on the current graph. *)
