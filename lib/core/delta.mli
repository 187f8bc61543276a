(** The localized structure-value clustering error metric Δ(S,S′)
    (Sec. 4.1–4.2).

    Δ measures the summed squared estimation-error increase over the
    {e atomic queries} [u\[p\]/c] touched by an operation, where [p]
    ranges over the atomic predicates of the value summaries (prefix
    ranges / retained substrings / individual terms) and [c] over the
    children of the affected nodes — plus the implicit self query
    [u\[p\]], so that value error is measured even on leaf clusters.

    For a merge the double sum factorizes (DESIGN.md):
    Σ_p Σ_c (σ_u(p)·A_c − σ_w(p)·W_c)² =
      Σ_pσ_u²·Σ_cA_c² − 2Σ_pσ_uσ_w·Σ_cA_cW_c + Σ_pσ_w²·Σ_cW_c²
    with σ_w = (|u|σ_u + |v|σ_v)/|w| pointwise, so only the three value
    dot products (Σσ_u², Σσ_v², Σσ_uσ_v) and three structural dot
    products are needed — O(|children| + |atomic predicates|) per
    candidate. *)

type scratch
(** Working space for the child-edge gather of {!merge_delta_counted}
    and {!merged_children}. A scratch belongs to its caller: reuse one
    across the evaluations of a scoring batch, and never share one
    between threads. *)

val scratch : unit -> scratch

val merged_children : scratch -> Synopsis.Builder.t ->
  Synopsis.Builder.node -> Synopsis.Builder.node -> int
(** The number of distinct children the merged node would have: the
    children of either node other than the two themselves, plus one
    self loop if either node has a child edge to either. *)

val merge_delta_counted : ?structural_only:bool -> scratch ->
  Synopsis.Builder.t -> Synopsis.Builder.node -> Synopsis.Builder.node ->
  float * int
(** [(Δ, merged child count)] of merging the two nodes. The count is
    {!merged_children}, read off the same child-edge gather that
    computes the structural dot products, so candidate scoring can feed
    it to {!Merge.saved_bytes_with} instead of gathering twice.
    [structural_only] replaces the atomic predicate set by the single
    trivial predicate (σ ≡ 1), yielding a TREESKETCH-style purely
    structural clustering error (the A1 ablation baseline). *)

val compression_step :
  Synopsis.Builder.t -> Synopsis.Builder.node ->
  (float * Xc_vsumm.Value_summary.step) option
(** Δ of the next value-compression step on the node's summary, with the
    {!Xc_vsumm.Value_summary.step} whose [apply] thunk finalizes it:
    Δ = |u| · (1 + Σ_c count(u,c)²) · Σ_p (σ_p − σ′_p)². [None] when the
    summary cannot be compressed further. The step is valid until the
    node's summary next changes. *)

val marginal_loss : float -> int -> float
(** [Δ / max(1, saved_bytes)] — the ranking key of the build heaps. *)
