(** Incremental synopsis maintenance: apply subtree insert/delete deltas
    from a document update stream to a {!Synopsis.Builder}, then repair
    the budgets locally instead of rebuilding from scratch.

    The lifecycle this module enables (DESIGN.md Sec. 12):

    {v
      reference/build ──> Builder ──freeze──> Sealed (generation 1)
                            │ ▲
                 Update.apply │ (localized repair)
                            ▼ │
                          Builder ──freeze──> Sealed (generation 2) ──> Registry.swap
    v}

    A mutation names its insertion (or deletion) point by the
    root-inclusive label path of the {e parent} element — e.g.
    [\[site; open_auctions\]] for an XMark auction — and carries the
    inserted (or deleted) subtree as an {!Xc_xml.Node.t}. The path is
    resolved against the synopsis deterministically: starting at the
    root cluster, each step picks the child cluster with the matching
    label, preferring the largest extent (ties broken by smallest sid).
    Below the parent, an inserted or deleted element resolves to a
    cluster of its own label {e and} value type (clusters are typed,
    Sec. 3), so every value summary stays of its node's kind.
    This is the synopsis-side analogue of the path-partition maintenance
    of DescribeX-style summaries: an update touches only the clusters on
    and below its resolution path.

    Applying a batch is a three-step process:

    + {b map}: every subtree element is resolved to a cluster (novel
      labels allocate fresh clusters); the pass only {e accumulates}
      per-cluster count deltas, per-edge total-children deltas and
      added values — nothing is written, so a malformed batch is
      rejected with the builder untouched.
    + {b write}: counts and edge averages are recomputed from the
      accumulated totals (edge averages are stored as
      total/parent-count, so a parent whose count changed has {e all}
      its outgoing averages rescaled); clusters whose extent reaches
      zero are unlinked and removed. Value summaries fuse in a detailed
      summary of the inserted values;
      deletions leave the summary untouched (a documented
      approximation — selectivity fractions stay, the count rescale
      handles magnitude).
    + {b repair}: the set of perturbed clusters — count-changed,
      created, their parents, and summary-changed — forms the {e dirty
      frontier} handed to {!Build.phase1_repair} and
      {!Build.phase2_repair}, which re-establish the construction
      budgets by seeding the merge pool and compression heap from the
      frontier only (widening to a full pass only when locality is
      insufficient, counted under [update.repair_widened] /
      [update.compress_widened]).

    Metrics: [update.apply] / [update.repair] timers,
    [update.mutations], [update.created], [update.removed],
    [update.skipped_branches] counters. *)

type mutation =
  | Insert of { parent : Xc_xml.Label.t list; subtree : Xc_xml.Node.t }
      (** Insert [subtree] as a new child of the element cluster named
          by the root-inclusive label path [parent]. *)
  | Delete of { parent : Xc_xml.Label.t list; subtree : Xc_xml.Node.t }
      (** Delete one occurrence of [subtree] from under [parent].
          Deletion is clamped: subtree branches that do not resolve to
          a live cluster are skipped (and counted), never negative. *)

type stats = {
  applied : int;        (** mutations applied (= batch size on [Ok]) *)
  skipped : int;        (** delete branches that resolved nowhere *)
  dirty : int;          (** dirty-frontier size handed to repair *)
  created : int;        (** clusters allocated for novel labels *)
  removed : int;        (** clusters whose extent reached zero *)
  repair_merges : int;  (** merges applied by localized phase 1 *)
}

val apply :
  budget:Build.budget -> Synopsis.Builder.t -> mutation list ->
  (stats, string) result
(** Applies the batch to the builder in place and repairs it back under
    [budget]. [Error] before anything is written when a mutation's
    parent path does not resolve (the builder is untouched); [Error]
    after the fact if the write left the builder structurally invalid —
    a bug guard, after which the builder must be discarded. *)

val apply_and_seal :
  budget:Build.budget -> Synopsis.Builder.t -> mutation list ->
  (stats * Synopsis.Sealed.t, string) result
(** {!apply} followed by {!Synopsis.freeze}: the repaired generation,
    ready for [Registry.swap]. The builder stays live for the next
    batch. *)
