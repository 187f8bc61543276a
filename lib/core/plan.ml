open Xc_twig
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module S = Synopsis.Sealed
module BA1 = Bigarray.Array1
module Slices = Xc_util.Slices

(* ---- query keys -------------------------------------------------------- *)

(* Deterministic, injective rendering of a query's structure. Label and
   term identifiers are process-stable interned ints, so they key
   directly; predicate and edge order are preserved because they decide
   the float evaluation order. *)
let query_key q =
  let buf = Buffer.create 64 in
  let add_terms ts =
    List.iter
      (fun (t : Xc_xml.Dictionary.term) ->
        Buffer.add_string buf (string_of_int (t :> int) ^ ","))
      ts
  in
  let add_pred = function
    | Predicate.Range (l, h) -> Buffer.add_string buf (Printf.sprintf "R%d:%d" l h)
    | Predicate.Contains s ->
      Buffer.add_string buf (Printf.sprintf "C%d:%s" (String.length s) s)
    | Predicate.Ft_contains ts -> Buffer.add_char buf 'F'; add_terms ts
    | Predicate.Ft_any ts -> Buffer.add_char buf 'A'; add_terms ts
    | Predicate.Ft_excludes ts -> Buffer.add_char buf 'X'; add_terms ts
  in
  let add_step step =
    (match step.Path_expr.axis with
    | Path_expr.Child -> Buffer.add_char buf '/'
    | Path_expr.Descendant -> Buffer.add_string buf "//");
    match step.Path_expr.test with
    | Path_expr.Wildcard -> Buffer.add_char buf '*'
    | Path_expr.Tag l -> Buffer.add_string buf (string_of_int (l :> int))
  in
  let rec add_node n =
    Buffer.add_char buf '[';
    List.iter add_pred n.Twig_query.preds;
    List.iter
      (fun (expr, child) ->
        Buffer.add_char buf '(';
        List.iter add_step expr;
        add_node child;
        Buffer.add_char buf ')')
      n.Twig_query.edges;
    Buffer.add_char buf ']'
  in
  add_node q.Twig_query.root;
  Buffer.contents buf

(* ---- batched serving ---------------------------------------------------

   Estimate.selectivity re-enumerates embeddings and re-expands every
   path expression on each call. The batch engine moves all of that to
   prepare time: each distinct path expression gets one Transition
   matrix per synopsis, whose rows compilation builds on
   demand; per-node predicate selectivities (sigma) are precomputed over
   each query node's support set; and each query compiles to a flat
   postorder program the cohort sweep runs over the engine's float
   planes — no hashing, no allocation beyond the engine's arena.

   Bit-identity argument, piece by piece:
   - matrix rows are Estimate.reach_dist's own dists, so row floats are
     bit-identical to the ones the oracle folds over;
   - sigma is the same predicate fold over the same (pred, vtype) list
     in the same order;
   - the per-node edge fold and the row dot product replicate
     Estimate.selectivity's operation order exactly, including the
     [sigma <= 0.0] and [acc <= 0.0] short-circuits and the
     [[] -> 0.0] root-expression case;
   - each (query node, synopsis node) value is a pure function of the
     synopsis, so computing it eagerly over the support set (instead of
     lazily, as the oracle's memo does) changes nothing.
   Supports propagate top-down (a child's support is the union of the
   matrix rows over its parent's support), so every plane cell a
   parent reads was written by its child in the same evaluation —
   planes are never zeroed between queries, and no query's answer
   depends on what an earlier one left in them. *)

module Batch = struct
  (* ---- the flat program --------------------------------------------
     A compiled query is a postorder program: no recursion, no
     closures, no per-node dispatch when it runs. One [ftask] per root
     edge; its node array is the root subtree in postorder, so children
     are always evaluated before the edge that consumes them, and the
     LAST node is the root edge's own child (the "top" node), whose
     values are consumed only by the root-edge dot product — they are
     folded into that dot in the same loop instead of being scattered
     into a plane nobody else reads. Slots (plane numbers) are the
     query nodes' preorder positions. For the workload-median query
     (one root edge, leaf child) the whole evaluation collapses to a
     single fused loop over [sigma] and the root weights.
     An edge reads its transition matrix in place: the row bounds and
     CSR buffers, fetched after compilation built every row the edge
     reads (a later growth of the matrix leaves these buffers as they
     are). *)
  type fedge = {
    f_spans : int array;
    f_idx : S.ba_i;
    f_w : S.ba_f;
    f_child_slot : int;
  }

  type fnode = {
    f_slot : int;
    f_support : int array;  (* synopsis nodes this node is evaluated at *)
    f_sigma : float array;  (* predicate selectivity per support position *)
    f_edges : fedge array;  (* document order *)
  }

  type ftask = {
    ft_rw : float array;  (* root-edge dist weights, position-aligned
                             with the top node's support *)
    ft_nodes : fnode array;  (* postorder; last entry is the top node *)
  }

  type fquery = {
    fq_zero : bool;  (* root predicates or an empty root expression *)
    fq_slots : int;
    fq_tasks : ftask array;  (* document order *)
  }

  (* A prepared workload carries its cohort plan (built lazily on the
     first cohort run, then reused for every pass): the batch's
     distinct queries in cohort-major order plus the input-index →
     distinct-value mapping that places results. *)
  type cohort_plan = {
    cp_queries : fquery array;  (* distinct queries, cohorts contiguous *)
    cp_src : int array;  (* input index -> position in cp_queries *)
    cp_cohorts : int;  (* cohorts, laid out contiguously in cp_queries *)
    cp_max_cohort : int;
    cp_slots : int;  (* max fq_slots — the arena's plane demand *)
    cp_values : float array;  (* per distinct query, rewritten per run *)
  }

  type bquery = {
    bq_prog : fquery;
    bq_id : int;  (* dense per-engine id; the cohort dedup key *)
    bq_key : int;  (* cohort key: the first matrix the query touches *)
    mutable bq_single : prepared option;  (* memoized one-query batch *)
  }

  and prepared = {
    pr_queries : bquery array;
    mutable pr_plan : cohort_plan option;
  }

  (* expression tables: [Path_expr.hash] folds every step *)
  module Expr_tbl = Hashtbl.Make (Path_expr)

  type t = {
    bt_syn : S.t;
    bt_mats : Transition.t Expr_tbl.t;
    bt_keys : int Expr_tbl.t;  (* cohort keys, numbered on first sight *)
    bt_queries : (string, bquery) Hashtbl.t;
    bt_index : bquery Slices.Table.t;  (* raw source text -> compiled *)
    bt_next_id : int ref;
    mutable bt_last : prepared option;  (* last text batch, plan included *)
    bt_acc : Estimate.acc;  (* every row build and support union of compilation *)
    mutable bt_arena : S.ba_f;  (* the sweep's planes, see [arena_for] *)
    mutable bt_slots : int;  (* planes bt_arena holds *)
  }

  (* Distinct queries grow the compiled-query table (and whitespace
     variants the text index) without limit; past this many entries one
     is reset, between batches only. Twice the serving layer's default
     batch-size limit, so steady full-size batches never thrash. *)
  let text_index_bound = 16_384

  let create syn =
    { bt_syn = syn;
      bt_mats = Expr_tbl.create 32;
      bt_keys = Expr_tbl.create 32;
      bt_queries = Hashtbl.create 64;
      bt_index = Slices.Table.create ();
      bt_next_id = ref 0;
      bt_last = None;
      bt_acc = Estimate.accumulator syn;
      bt_arena = BA1.create Bigarray.float64 Bigarray.c_layout 0;
      bt_slots = 0 }

  let n_matrices t = Expr_tbl.length t.bt_mats
  let n_queries t = Hashtbl.length t.bt_queries
  let sum_mats t f = Expr_tbl.fold (fun _ mt acc -> acc + f mt) t.bt_mats 0
  let rows_built t = sum_mats t Transition.rows_built
  let nnz t = sum_mats t Transition.nnz
  let n_texts t = Slices.Table.length t.bt_index

  let clear t =
    Expr_tbl.reset t.bt_mats;
    Expr_tbl.reset t.bt_keys;
    Hashtbl.reset t.bt_queries;
    Slices.Table.clear t.bt_index;
    t.bt_last <- None

  let mat_for t expr =
    match Expr_tbl.find_opt t.bt_mats expr with
    | Some mt -> mt
    | None ->
      let mt =
        Metrics.time Meters.Batch.mat_build (fun () -> Transition.create t.bt_syn expr)
      in
      Expr_tbl.add t.bt_mats expr mt;
      mt

  (* cohort keys need only be equal for equal expressions among the
     queries compiled since the last [clear] *)
  let expr_key t expr =
    match Expr_tbl.find_opt t.bt_keys expr with
    | Some k -> k
    | None ->
      let k = Expr_tbl.length t.bt_keys in
      Expr_tbl.add t.bt_keys expr k;
      k

  (* child-endpoint support of an edge: the union of the matrix rows of
     every supported source, ascending. Builds those rows first — the
     only rows the edge's sweep will read. *)
  let edge_support t mt support =
    Array.iter (Transition.ensure mt t.bt_acc) support;
    let spans = Transition.spans mt and idx = Transition.idx mt in
    Array.iter
      (fun u ->
        for i = Array.unsafe_get spans (2 * u) to Array.unsafe_get spans ((2 * u) + 1) - 1 do
          Estimate.mark t.bt_acc t.bt_syn (BA1.unsafe_get idx i)
        done)
      support;
    Estimate.marked t.bt_acc

  let sigma_of t preds support =
    let syn = t.bt_syn in
    let pv = List.map (fun p -> (p, Predicate.vtype p)) preds in
    Array.map
      (fun u ->
        List.fold_left
          (fun acc (pred, vt) ->
            acc *. Estimate.predicate_selectivity_typed vt syn u pred)
          1.0 pv)
      support

  (* Compile [qnode]'s subtree over [support], consing its nodes onto
     [nodes] in reverse postorder; slots are numbered in preorder *)
  let rec compile_node t next_slot nodes qnode support =
    let slot = !next_slot in
    incr next_slot;
    let edges =
      List.map
        (fun (expr, child) ->
          let mt = mat_for t expr in
          let child_slot = !next_slot in
          compile_node t next_slot nodes child (edge_support t mt support);
          { f_spans = Transition.spans mt;
            f_idx = Transition.idx mt;
            f_w = Transition.weights mt;
            f_child_slot = child_slot })
        qnode.Twig_query.edges
      |> Array.of_list
    in
    nodes :=
      { f_slot = slot;
        f_support = support;
        f_sigma = sigma_of t qnode.Twig_query.preds support;
        f_edges = edges }
      :: !nodes

  let compile_query t q =
    let id = !(t.bt_next_id) in
    incr t.bt_next_id;
    let root_q = q.Twig_query.root in
    (* root predicates can never hold on the virtual document node, and
       an empty root expression contributes a 0.0 factor — either way
       every estimate is 0, matching Estimate.selectivity *)
    let zero =
      root_q.Twig_query.preds <> []
      || List.exists (fun (expr, _) -> expr = []) root_q.Twig_query.edges
    in
    if zero then
      { bq_prog = { fq_zero = true; fq_slots = 0; fq_tasks = [||] };
        bq_id = id; bq_key = -1; bq_single = None }
    else begin
      (* cohort key: the first transition matrix the evaluation streams
         (first child edge of the first root child that has one), so a
         cohort's queries hit the same CSR slices back-to-back; queries
         with no internal edges group by their root expression — those
         share the root reach dist instead *)
      let key =
        match
          List.find_map
            (fun (_, child) ->
              match child.Twig_query.edges with
              | (e, _) :: _ -> Some (expr_key t e)
              | [] -> None)
            root_q.Twig_query.edges
        with
        | Some k -> k
        | None -> (
          match root_q.Twig_query.edges with
          | (e, _) :: _ -> expr_key t e
          | [] -> -1)
      in
      let next_slot = ref 0 in
      let tasks =
        List.map
          (fun (expr, child) ->
            let rdist = Estimate.root_reach_dist t.bt_acc t.bt_syn expr in
            let nodes = ref [] in
            (* the top node is evaluated over rdist.d_idx verbatim, so
               ft_rw is position-aligned with its support — the root
               dot needs no index lookup *)
            compile_node t next_slot nodes child rdist.Estimate.d_idx;
            { ft_rw = rdist.Estimate.d_w; ft_nodes = Array.of_list (List.rev !nodes) })
          root_q.Twig_query.edges
        |> Array.of_list
      in
      { bq_prog = { fq_zero = false; fq_slots = !next_slot; fq_tasks = tasks };
        bq_id = id; bq_key = key; bq_single = None }
    end

  (* the compiled query for [q], compiled on first sight of its key; a
     hit only bumps [hits], which the batch folds into [batch.query_hit]
     once instead of one atomic add per query *)
  let find_or_compile t hits q =
    let key = query_key q in
    match Hashtbl.find_opt t.bt_queries key with
    | Some bq ->
      incr hits;
      bq
    | None ->
      Metrics.incr Meters.Batch.query_miss;
      let bq = Metrics.time Meters.Batch.compile (fun () -> compile_query t q) in
      Hashtbl.add t.bt_queries key bq;
      bq

  (* run [f hits] and record its hit tally, also when it raises *)
  let counting_hits f =
    let hits = ref 0 in
    Fun.protect
      ~finally:(fun () -> if !hits > 0 then Metrics.add Meters.Batch.query_hit !hits)
      (fun () -> f hits)

  (* Between batches: past the bound, compiled queries go with their
     matrices, memoized plans and texts ([clear]); a text index grown
     by whitespace variants alone goes by itself. *)
  let bound t =
    if Hashtbl.length t.bt_queries > text_index_bound then begin
      clear t;
      Metrics.incr Meters.Batch.query_reset
    end
    else if Slices.Table.length t.bt_index > text_index_bound then begin
      Slices.Table.clear t.bt_index;
      Metrics.incr Meters.Batch.text_reset
    end

  let prepare t queries =
    bound t;
    let qs = counting_hits (fun hits -> Array.map (find_or_compile t hits) queries) in
    { pr_queries = qs; pr_plan = None }

  exception Bad_text of int * string

  (* The compiled query for text [i]: a known text is one probe of the
     index on its bytes, in place — no string, no parse, no key render.
     Only a new text is materialised; it takes the [prepare] route and
     is indexed under its text, so whitespace variants share one
     compiled query. *)
  let resolve t hits texts i =
    let src = Slices.source texts and off = Slices.off texts i and len = Slices.len texts i in
    match Slices.Table.find t.bt_index src off len with
    | bq ->
      incr hits;
      bq
    | exception Not_found -> (
      let text = Bytes.sub_string src off len in
      match Twig_parse.parse_result text with
      | Error msg -> raise_notrace (Bad_text (i, msg))
      | Ok q ->
        let bq = find_or_compile t hits q in
        Slices.Table.add t.bt_index text bq;
        bq)

  (* a one-query batch is the compiled query's own memoized [prepared],
     cohort plan included *)
  let singleton bq =
    match bq.bq_single with
    | Some p -> p
    | None ->
      let p = { pr_queries = [| bq |]; pr_plan = None } in
      bq.bq_single <- Some p;
      p

  let prepare_one t q =
    bound t;
    counting_hits (fun hits -> singleton (find_or_compile t hits q))

  (* Resolve a batch against the last one: while text [i] resolves to
     the last batch's query [i] nothing is built; the first divergence
     copies the agreeing prefix into a fresh array, which the rest
     fills. A batch that never diverges and has the last one's length
     is answered by the last [prepared], cohort plan included. *)
  let resolve_batch t hits texts =
    let n = Slices.length texts in
    let last = match t.bt_last with Some p -> p.pr_queries | None -> [||] in
    let fresh = ref [||] in
    for i = 0 to n - 1 do
      let bq = resolve t hits texts i in
      if Array.length !fresh > 0 then Array.unsafe_set !fresh i bq
      else if i >= Array.length last || Array.unsafe_get last i != bq then begin
        let a = Array.make n bq in
        Array.blit last 0 a 0 i;
        fresh := a
      end
    done;
    match t.bt_last with
    | Some p when Array.length !fresh = 0 && n = Array.length last -> p
    | _ ->
      let qs = if Array.length !fresh > 0 then !fresh else Array.sub last 0 n in
      let p = { pr_queries = qs; pr_plan = None } in
      t.bt_last <- Some p;
      p

  let prepare_texts t texts =
    bound t;
    let prepare hits =
      match Slices.length texts with
      | 0 -> { pr_queries = [||]; pr_plan = None }
      | 1 -> singleton (resolve t hits texts 0)
      | _ -> resolve_batch t hits texts
    in
    match counting_hits prepare with
    | p -> Ok p
    | exception Bad_text (i, msg) -> Error (i, msg)

  (* ---- matrix-major cohort evaluation ------------------------------- *)

  (* The sweep's scratch: one flat float64 plane per query-node slot,
     all in the engine's one Bigarray (plane [s] is
     [buf.{s*n .. s*n+n-1}], n = synopsis nodes). Grown to the
     high-water slot count and then reused for every query the engine
     ever sweeps — planes are NEVER zeroed between queries: supports
     propagate top-down, so every cell a parent reads was written by its
     child earlier in the same evaluation. [batch.arena_resets] counts
     the (rare) reallocation events. One per engine, so engines on
     different threads never share scratch. *)
  let arena_for t slots =
    if t.bt_slots < slots then begin
      t.bt_arena <-
        BA1.create Bigarray.float64 Bigarray.c_layout (S.n_nodes t.bt_syn * slots);
      t.bt_slots <- slots;
      Metrics.incr Meters.Batch.arena_resets
    end;
    t.bt_arena

  (* row dot against an arena plane — the same ascending multiply-add
     order as the uncached estimator's fold over a reach dist, so
     bit-identical. Inlined, so its float result is never boxed: called
     once per (support node, edge), a boxed result would allocate per
     row. *)
  let[@inline] dot_plane (w : S.ba_f) (idx : S.ba_i) (buf : S.ba_f) base lo hi =
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum :=
        !sum +. (BA1.unsafe_get w i *. BA1.unsafe_get buf (base + BA1.unsafe_get idx i))
    done;
    !sum

  (* Matrix-major evaluation of one flat query against the engine's
     arena [buf], whose planes are [stride] cells apart. Per-(node,
     support position) the float op sequence is exactly
     Estimate.selectivity's per-(qid, idx) fold: start at the clamped
     sigma, each edge in document order maps a non-positive value to
     0.0 and otherwise multiplies by the row dot. Two structural
     changes, both op-order preserving:
     - the top node's values fold straight into the root dot product
       instead of being scattered first — valid because its support IS
       the root dist's index array, so the dot visits exactly the
       per-position values in the same ascending order with the same
       weights;
     - a task whose running root fold is already <= 0.0 is skipped
       entirely — the fold's own [acc <= 0.0 -> 0.0] arm never reads
       the task's sum, so not computing it changes nothing.
     The answer is stored into [values.(p)] rather than returned, so
     it is never boxed. *)
  let eval_flat (buf : S.ba_f) stride fq (values : float array) p =
    if fq.fq_zero then Array.unsafe_set values p 0.0
    else begin
      let ntasks = Array.length fq.fq_tasks in
      let acc = ref 1.0 in
      let ti = ref 0 in
      while !ti < ntasks && !acc > 0.0 do
        let task = Array.unsafe_get fq.fq_tasks !ti in
        let nodes = task.ft_nodes in
        let last = Array.length nodes - 1 in
        for nix = 0 to last - 1 do
          let fn = Array.unsafe_get nodes nix in
          let support = fn.f_support and sigma = fn.f_sigma in
          let edges = fn.f_edges in
          let nsup = Array.length support in
          let nedges = Array.length edges in
          let base = fn.f_slot * stride in
          for k = 0 to nsup - 1 do
            let sg = Array.unsafe_get sigma k in
            let v = ref (if sg <= 0.0 then 0.0 else sg) in
            for e = 0 to nedges - 1 do
              if !v > 0.0 then begin
                let fe = Array.unsafe_get edges e in
                let u = Array.unsafe_get support k in
                let lo = Array.unsafe_get fe.f_spans (2 * u)
                and hi = Array.unsafe_get fe.f_spans ((2 * u) + 1) in
                let cbase = fe.f_child_slot * stride in
                v := !v *. dot_plane fe.f_w fe.f_idx buf cbase lo hi
              end
              else v := 0.0
            done;
            BA1.unsafe_set buf (base + Array.unsafe_get support k) !v
          done
        done;
        (* top node: fuse the node evaluation with the root-edge dot *)
        let fn = Array.unsafe_get nodes last in
        let support = fn.f_support and sigma = fn.f_sigma in
        let edges = fn.f_edges in
        let rw = task.ft_rw in
        let nsup = Array.length support in
        let nedges = Array.length edges in
        let s = ref 0.0 in
        for k = 0 to nsup - 1 do
          let sg = Array.unsafe_get sigma k in
          let v = ref (if sg <= 0.0 then 0.0 else sg) in
          for e = 0 to nedges - 1 do
            if !v > 0.0 then begin
              let fe = Array.unsafe_get edges e in
              let u = Array.unsafe_get support k in
              let lo = Array.unsafe_get fe.f_spans (2 * u)
              and hi = Array.unsafe_get fe.f_spans ((2 * u) + 1) in
              let cbase = fe.f_child_slot * stride in
              v := !v *. dot_plane fe.f_w fe.f_idx buf cbase lo hi
            end
            else v := 0.0
          done;
          s := !s +. (Array.unsafe_get rw k *. !v)
        done;
        acc := !acc *. !s;
        incr ti
      done;
      Array.unsafe_set values p (if !acc <= 0.0 then 0.0 else !acc)
    end

  (* Build the cohort plan for a prepared batch: dedup shared compiled
     queries (prepare returns the same bquery object for duplicate
     keys), group the distinct ones by cohort key with first-occurrence
     cohort numbering, and lay them out cohort-major with a stable
     counting sort — all deterministic functions of the input order. *)
  let build_plan prepared =
    let nq = Array.length prepared.pr_queries in
    let pos_of_id = Hashtbl.create (2 * nq) in
    let rev_distinct = ref [] in
    let ndistinct = ref 0 in
    let src = Array.make nq 0 in
    Array.iteri
      (fun i bq ->
        match Hashtbl.find_opt pos_of_id bq.bq_id with
        | Some p -> src.(i) <- p
        | None ->
          let p = !ndistinct in
          Hashtbl.add pos_of_id bq.bq_id p;
          rev_distinct := bq :: !rev_distinct;
          incr ndistinct;
          src.(i) <- p)
      prepared.pr_queries;
    let distinct = Array.of_list (List.rev !rev_distinct) in
    let nd = Array.length distinct in
    if nd = 0 then
      { cp_queries = [||]; cp_src = [||]; cp_cohorts = 0; cp_max_cohort = 0;
        cp_slots = 1; cp_values = [||] }
    else begin
      let cid_of_key = Hashtbl.create 64 in
      let ncoh = ref 0 in
      let cid =
        Array.map
          (fun bq ->
            match Hashtbl.find_opt cid_of_key bq.bq_key with
            | Some c -> c
            | None ->
              let c = !ncoh in
              Hashtbl.add cid_of_key bq.bq_key c;
              incr ncoh;
              c)
          distinct
      in
      let ncoh = !ncoh in
      let count = Array.make ncoh 0 in
      Array.iter (fun c -> count.(c) <- count.(c) + 1) cid;
      let start = Array.make ncoh 0 in
      for c = 1 to ncoh - 1 do
        start.(c) <- start.(c - 1) + count.(c - 1)
      done;
      let next = Array.copy start in
      let order = Array.make nd 0 in
      Array.iteri
        (fun p c ->
          order.(p) <- next.(c);
          next.(c) <- next.(c) + 1)
        cid;
      let flat = Array.map (fun bq -> bq.bq_prog) distinct in
      let sorted = Array.make nd flat.(0) in
      Array.iteri (fun p f -> sorted.(order.(p)) <- f) flat;
      { cp_queries = sorted;
        cp_src = Array.map (fun p -> order.(p)) src;
        cp_cohorts = ncoh;
        cp_max_cohort = Array.fold_left max 0 count;
        cp_slots = Array.fold_left (fun a f -> max a f.fq_slots) 1 flat;
        cp_values = Array.make nd 0.0 }
    end

  let plan_of prepared =
    match prepared.pr_plan with
    | Some p -> p
    | None ->
      let p = Metrics.time Meters.Batch.cohort_plan (fun () -> build_plan prepared) in
      prepared.pr_plan <- Some p;
      p

  let cohort_stats prepared =
    let p = plan_of prepared in
    (p.cp_cohorts, p.cp_max_cohort, Array.length p.cp_queries)

  (* One batch pass, matrix-major, on the calling thread: the distinct
     queries run in cohort-major order, so a cohort's queries walk the
     same CSR slices back-to-back; each query's value lands in cp_values
     by its cohort-major position, and the answers are gathered into
     [out] through cp_src in input order. *)
  let run_cohort t plan (out : float array) =
    let buf = arena_for t plan.cp_slots and stride = S.n_nodes t.bt_syn in
    let values = plan.cp_values in
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for p = 0 to Array.length plan.cp_queries - 1 do
      eval_flat buf stride (Array.unsafe_get plan.cp_queries p) values p
    done;
    Metrics.add_time Meters.Batch.sweep (Unix.gettimeofday () -. t0);
    Metrics.add Meters.Batch.cohorts plan.cp_cohorts;
    Metrics.record_max Meters.Batch.cohort_max plan.cp_max_cohort;
    (* minor allocation across the whole pass: the cohort path's figure
       of merit is this staying near zero *)
    Metrics.add Meters.Batch.minor_words (int_of_float (Gc.minor_words () -. minor0));
    let src = plan.cp_src in
    for i = 0 to Array.length src - 1 do
      Array.unsafe_set out i (Array.unsafe_get values (Array.unsafe_get src i))
    done

  let run_into t prepared out =
    let nq = Array.length prepared.pr_queries in
    if Array.length out < nq then invalid_arg "Plan.Batch.run_into: answer buffer too short";
    if nq > 0 then begin
      Metrics.add Meters.Batch.queries nq;
      run_cohort t (plan_of prepared) out
    end

  (* [domains] and [cohort] are ignored: kept only so the benchmark
     compiles *)
  let run_prepared ?domains:_ ?cohort:_ t prepared =
    let out = Array.make (Array.length prepared.pr_queries) 0.0 in
    run_into t prepared out;
    out
end

(* kept only so the benchmark compiles; ROADMAP item 2's benchmark PR
   deletes it *)
module Cache = struct
  type t = Batch.t

  let n_plans = Batch.n_queries
end
