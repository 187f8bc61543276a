module Heap = Xc_util.Heap
module B = Synopsis.Builder
module Levels = Synopsis.Levels

let src = Logs.Src.create "xcluster.build" ~doc:"XCLUSTERBUILD progress"

module Log = (val Logs.src_log src : Logs.LOG)

type budget = {
  bstr : int;
  bval : int;
  pool : Pool.config;
}

let default_bstr_kb = 20
let default_bval_kb = 150

let budget ?(pool = Pool.default_config) ?(bstr_kb = default_bstr_kb)
    ?(bval_kb = default_bval_kb) () =
  { bstr = Size.kb bstr_kb; bval = Size.kb bval_kb; pool }

let budget_bytes ?(pool = Pool.default_config) ~bstr ~bval () = { bstr; bval; pool }

let budget_split ?(pool = Pool.default_config) ~total_kb ~ratio () =
  if total_kb <= 0 then invalid_arg "Build.budget_split: non-positive budget";
  if ratio < 0.0 || ratio > 1.0 then invalid_arg "Build.budget_split: ratio outside [0,1]";
  (* rounding can push ratio·total above total (e.g. ratio 1.0 on a small
     odd total), which would make the value budget negative — clamp both
     sides so bstr + bval = total always holds *)
  let bstr_kb =
    min total_kb (max 0 (int_of_float (Float.round (ratio *. float_of_int total_kb))))
  in
  budget ~pool ~bstr_kb ~bval_kb:(total_kb - bstr_kb) ()

(* ---- phase 1: structure-value merge ---------------------------------- *)

let phase1_merge params syn =
  let str_size = ref (B.structural_bytes syn) in
  if !str_size > params.bstr then begin
    let levels = ref (Levels.compute syn) in
    let level = ref 1 in
    let pool = ref (Pool.build params.pool syn ~levels:!levels ~level:!level) in
    let max_new_level = ref 0 in
    let exhausted = ref false in
    while !str_size > params.bstr && not !exhausted do
      (* replenish the pool when it runs low (Fig. 5, lines 8-9) *)
      if Heap.length !pool <= Pool.hl then begin
        levels := Levels.compute syn;
        let lmax = Levels.max_level !levels in
        let next_level = max (!max_new_level + 1) (!level + 1) in
        level := min next_level (lmax + 1);
        pool := Pool.build params.pool syn ~levels:!levels ~level:!level;
        max_new_level := 0;
        (* if even the full-level pool is empty, nothing can merge *)
        while Heap.is_empty !pool && !level <= lmax do
          level := !level + 1;
          pool := Pool.build params.pool syn ~levels:!levels ~level:!level
        done;
        if Heap.is_empty !pool then exhausted := true
      end;
      if not !exhausted then begin
        match Pool.pop_valid params.pool syn !pool with
        | None -> () (* loop back to the replenish branch *)
        | Some cand ->
          let lu = Levels.get !levels ~default:0 cand.Pool.u in
          let lv = Levels.get !levels ~default:0 cand.Pool.v in
          (* pop_valid revalidated the candidate, so its [saved] is
             exact on the current graph — no recompute needed *)
          let w = Merge.apply syn cand.Pool.u cand.Pool.v in
          str_size := !str_size - cand.Pool.saved;
          let lw = min lu lv in
          Levels.set !levels (B.sid w) lw;
          if lw > !max_new_level then max_new_level := lw;
          Pool.push_neighbors params.pool syn !pool ~levels:!levels ~level:!level w
      end
    done;
    Log.debug (fun m ->
        m "phase1 done: %d nodes, %a structural" (B.n_nodes syn) Size.pp_bytes
          !str_size)
  end

(* ---- localized phase-1 repair (incremental updates) ------------------- *)

(* After Update has applied subtree deltas, only the dirty clusters and
   their group peers can host profitable merges: repair seeds the pool
   from the frontier ({!Pool.build_frontier}) and merges until the
   structural budget holds again. If the localized pool runs dry while
   the synopsis is still over budget (a large perturbation), repair
   widens once to the full bottom-up build — counted, so the bench can
   report how often locality was enough. *)
let phase1_repair params syn ~frontier =
  let str_size = ref (B.structural_bytes syn) in
  let merges = ref 0 in
  if !str_size > params.bstr then begin
    let levels = Levels.compute syn in
    let pool = Pool.build_frontier params.pool syn ~levels ~frontier in
    let exhausted = ref false in
    while !str_size > params.bstr && not !exhausted do
      match Pool.pop_valid params.pool syn pool with
      | Some cand ->
        let lu = Levels.get levels ~default:0 cand.Pool.u in
        let lv = Levels.get levels ~default:0 cand.Pool.v in
        let w = Merge.apply syn cand.Pool.u cand.Pool.v in
        str_size := !str_size - cand.Pool.saved;
        incr merges;
        Levels.set levels (B.sid w) (min lu lv);
        Pool.push_neighbors params.pool syn pool ~levels ~level:max_int w
      | None -> exhausted := true
    done;
    if !str_size > params.bstr then begin
      Xc_util.Metrics.incr Xc_util.Meters.Update.repair_widened;
      let before = B.n_nodes syn in
      phase1_merge params syn;
      merges := !merges + (before - B.n_nodes syn);
      str_size := B.structural_bytes syn
    end;
    Log.debug (fun m ->
        m "phase1 repair done: %d merges, %d nodes, %a structural" !merges
          (B.n_nodes syn) Size.pp_bytes !str_size)
  end;
  !merges

(* ---- phase 2: value-summary compression ------------------------------ *)

(* Exactly one heap entry exists per node at any time (a node's summary
   changes only when its entry is popped, after which a fresh entry is
   pushed), so entries are never stale and each carries the
   [Value_summary.step] of its preview: the pop applies the carried
   result instead of redoing the preview's search. *)
let compression_push heap syn node =
  match Delta.compression_step syn node with
  | Some (delta, step) ->
    Heap.push heap
      (Delta.marginal_loss delta step.Xc_vsumm.Value_summary.saved)
      (B.sid node, step)
  | None -> ()

(* Pop/apply/re-push until the value budget holds or the heap is dry;
   both phase2_compress and the localized repair drive this loop, they
   differ only in how the heap is seeded. *)
let compression_loop params heap syn val_size =
  let exhausted = ref false in
  while !val_size > params.bval && not !exhausted do
    match Heap.pop heap with
    | None -> exhausted := true
    | Some (_, (sid, step)) ->
      Xc_util.Metrics.incr Xc_util.Meters.Build.compression_steps;
      let node = B.find syn sid in
      let before = Xc_vsumm.Value_summary.size_bytes (B.vsumm node) in
      let vsumm' = step.Xc_vsumm.Value_summary.apply () in
      B.set_vsumm syn node vsumm';
      let after = Xc_vsumm.Value_summary.size_bytes vsumm' in
      val_size := !val_size - (before - after);
      compression_push heap syn node
  done

let phase2_compress params syn =
  let val_size = ref (B.value_bytes syn) in
  if !val_size > params.bval then begin
    let heap = Heap.create () in
    B.iter (compression_push heap syn) syn;
    compression_loop params heap syn val_size;
    Log.debug (fun m -> m "phase2 done: %a value bytes" Size.pp_bytes !val_size)
  end

(* Localized phase-2 repair: only the dirty clusters' summaries changed
   (inserts fused fresh detail into them), so only they can have
   profitable compression steps. Seed the heap from the frontier; if
   that is not enough to meet the budget, widen once to the
   whole-synopsis phase 2 (the usual case never needs to: deletes
   shrink summaries and inserts touch a handful of clusters). *)
let phase2_repair params syn ~frontier =
  let val_size = ref (B.value_bytes syn) in
  if !val_size > params.bval then begin
    let heap = Heap.create () in
    List.iter
      (fun sid ->
        if B.mem syn sid then compression_push heap syn (B.find syn sid))
      (List.sort_uniq Int.compare frontier);
    compression_loop params heap syn val_size;
    if !val_size > params.bval then begin
      Xc_util.Metrics.incr Xc_util.Meters.Update.compress_widened;
      phase2_compress params syn
    end;
    Log.debug (fun m ->
        m "phase2 repair done: %a value bytes" Size.pp_bytes (B.value_bytes syn))
  end

let run_builder params reference =
  let syn = B.copy reference in
  Xc_util.Metrics.time Xc_util.Meters.Build.phase1 (fun () -> phase1_merge params syn);
  Xc_util.Metrics.time Xc_util.Meters.Build.phase2 (fun () -> phase2_compress params syn);
  syn

let run params reference = Synopsis.freeze (run_builder params reference)

(* ---- budget sweeps ---------------------------------------------------- *)

(* The builder-level sweep: one compressed builder snapshot per
   structural budget, sharing the greedy merge prefix. auto_split needs
   the mutable snapshots to re-compress values per candidate. *)
let sweep_builders base ~bstr_kbs reference =
  let desc = List.sort_uniq (fun a b -> Int.compare b a) bstr_kbs in
  let work = B.copy reference in
  let snapshots = Hashtbl.create 8 in
  List.iter
    (fun kb ->
      let p = { base with bstr = Size.kb kb } in
      (* budget 0 = the smallest reachable summary: merge to exhaustion *)
      phase1_merge p work;
      let snap = B.copy work in
      phase2_compress p snap;
      Hashtbl.replace snapshots kb snap)
    desc;
  List.map (fun kb -> (kb, Hashtbl.find snapshots kb)) bstr_kbs

let sweep_at base ~bstr_kbs reference =
  List.map
    (fun (kb, syn) -> (kb, Synopsis.freeze syn))
    (sweep_builders base ~bstr_kbs reference)

(* ---- automated budget split ------------------------------------------- *)

let auto_split ?(ratios = [ 0.0; 0.05; 0.1; 0.2; 0.33; 0.5 ]) ~total_kb ~sample reference =
  if total_kb <= 0 then invalid_arg "Build.auto_split: non-positive budget";
  let candidates =
    List.map
      (fun ratio -> budget_split ~total_kb ~ratio ())
      (List.sort_uniq Float.compare ratios)
  in
  (* structural budgets share the greedy merge prefix; the huge value
     budget makes the sweep's own phase 2 a no-op so each candidate can
     be value-compressed to its own Bval below *)
  let snapshots =
    sweep_builders
      (budget ~bstr_kb:0 ~bval_kb:1_000_000 ())
      ~bstr_kbs:(List.map (fun b -> b.bstr / 1024) candidates)
      reference
  in
  let scored =
    List.map
      (fun b ->
        let structural = List.assoc (b.bstr / 1024) snapshots in
        let syn = B.copy structural in
        phase2_compress b syn;
        let sealed = Synopsis.freeze syn in
        (sample sealed, b, sealed))
      candidates
  in
  match scored with
  | [] -> invalid_arg "Build.auto_split: no candidate ratios"
  | first :: rest ->
    let _, best_p, best_syn =
      List.fold_left
        (fun (berr, bp, bs) (err, p, s) -> if err < berr then (err, p, s) else (berr, bp, bs))
        first rest
    in
    (best_p, best_syn)
