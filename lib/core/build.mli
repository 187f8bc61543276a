(** XCLUSTERBUILD — the budgeted construction algorithm (Sec. 4.3,
    Fig. 5).

    Phase 1 (structure-value merge) greedily applies the node merge with
    the smallest marginal loss Δ(S,S′)/(|S|_str − |S′|_str) from a
    bounded bottom-up candidate pool until the structural budget is met.
    Phase 2 (value-summary compression) greedily applies the value
    compression with the smallest marginal loss until the value budget
    is met.

    Construction runs on a {!Synopsis.Builder} copy of the reference;
    every entry point that produces a finished synopsis freezes it into
    the read-optimized {!Synopsis.Sealed} form on the way out. *)

type budget = {
  bstr : int;  (** structural budget, bytes *)
  bval : int;  (** value budget, bytes *)
  pool : Pool.config;
}
(** The one budget record every construction entry point takes; build
    it with the smart constructors below. *)

val budget : ?pool:Pool.config -> ?bstr_kb:int -> ?bval_kb:int -> unit -> budget
(** Budget from kilobyte counts (defaults: 20 KB structural, 150 KB
    value — the paper's 200 KB operating point minus rounding). *)

val budget_bytes : ?pool:Pool.config -> bstr:int -> bval:int -> unit -> budget
(** Budget from exact byte counts. *)

val budget_split : ?pool:Pool.config -> total_kb:int -> ratio:float -> unit -> budget
(** Split a unified budget: [ratio] (in [0,1]) of [total_kb] goes to
    structure, the rest to values; the structural share is clamped to
    [\[0, total_kb\]] after rounding, so the two parts always sum to
    [total_kb]. Raises [Invalid_argument] on a non-positive total or an
    out-of-range ratio. *)

val phase1_merge : budget -> Synopsis.Builder.t -> unit
(** Runs the structure-value merge phase in place. *)

val phase2_compress : budget -> Synopsis.Builder.t -> unit
(** Runs the value-summary compression phase in place. *)

val phase1_repair : budget -> Synopsis.Builder.t -> frontier:int list -> int
(** Localized phase 1 for incremental maintenance ({!Update}): seeds the
    candidate pool from the dirty-cluster [frontier] (sids; duplicates
    and since-removed sids are ignored) via {!Pool.build_frontier} and
    merges until the structural budget holds. If the localized pool
    runs dry while the synopsis is still over budget — a perturbation
    too large for locality — the repair widens once to the full
    {!phase1_merge} (counted under the [update.repair_widened] metric).
    Returns the number of merges applied. *)

val phase2_repair : budget -> Synopsis.Builder.t -> frontier:int list -> unit
(** Localized phase 2: seeds the compression heap from the [frontier]
    only, falling back to the full {!phase2_compress} scan if the value
    budget still does not hold (counted under
    [update.compress_widened]). *)

val run_builder : budget -> Synopsis.Builder.t -> Synopsis.Builder.t
(** Full XCLUSTERBUILD on a private copy of the reference synopsis,
    returned still mutable (the argument is not modified). Callers that
    want to estimate should {!Synopsis.freeze} the result or use {!run};
    the unfrozen form exists for benchmarks and incremental tooling. *)

val run : budget -> Synopsis.Builder.t -> Synopsis.Sealed.t
(** [Synopsis.freeze ∘ run_builder]: the normal way to build. *)

val sweep_at :
  budget -> bstr_kbs:int list -> Synopsis.Builder.t -> (int * Synopsis.Sealed.t) list
(** Builds one synopsis per structural budget in [bstr_kbs] (the
    budget's own [bstr] is ignored; its value budget and pool config
    apply to every point), sharing the greedy merge prefix: budgets are
    processed in decreasing order on a single synopsis, snapshotting
    (copy + value compression + freeze) at each. This is exactly
    equivalent to independent runs because the greedy merge sequence
    is budget-prefix-consistent. Returns (budget KB, synopsis) in the
    input order. A budget of 0 is served by merging down to the
    tag-only minimum. *)

val auto_split : ?ratios:float list -> total_kb:int ->
  sample:(Synopsis.Sealed.t -> float) -> Synopsis.Builder.t ->
  budget * Synopsis.Sealed.t
(** The automated budget-split search the paper sketches as future work
    (Sec. 4.3): given a unified total budget, build a synopsis at each
    candidate Bstr/(Bstr+Bval) ratio (default 0, 0.05, 0.1, 0.2,
    0.33, 0.5), score each with the [sample] workload-error functional (lower
    is better), and return the winning parameters and synopsis. The
    candidate builds share the greedy merge prefix, so the search costs
    little more than the deepest single build. *)
