module Heap = Xc_util.Heap
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module B = Synopsis.Builder

type cand = {
  u : int;
  v : int;
  delta : float;
  saved : int;
}

type t = cand Heap.t

let hm = 10_000
let hl = 5_000
let pair_cap = 4_000

type config = {
  neighbor_k : int;
  structural_only : bool;
}

let default_config = { neighbor_k = 16; structural_only = false }

let group_key = B.group_key

(* Scoring a candidate is a pure read over the builder (Δ and
   saved_bytes mutate nothing). Δ and saved_bytes share one child-edge
   gather, in the caller's scratch [sc]. *)
let eval_pair config sc syn (u, v) =
  let delta, merged_children =
    Delta.merge_delta_counted ~structural_only:config.structural_only sc syn u v
  in
  let saved = Merge.saved_bytes_with syn u v ~merged_children in
  { u = B.sid u; v = B.sid v; delta; saved }

let cand_priority c = Delta.marginal_loss c.delta c.saved

(* Total order on candidates — priority, then the (u, v) sid pair — so
   the pool's contents and heap insertion sequence depend only on the
   graph, never on evaluation order or hashtable layout. *)
let cand_compare a b =
  let c = Float.compare (cand_priority a) (cand_priority b) in
  if c <> 0 then c
  else
    let c = Int.compare a.u b.u in
    if c <> 0 then c else Int.compare a.v b.v

let key_compare (a1, a2, a3) (b1, b2, b3) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c else Int.compare a3 b3

(* Batch-score candidate pairs, with one gather scratch for the whole
   batch: a fresh scratch per evaluation measured slower on IMDB. *)
let score_cands config syn pairs =
  let n = Array.length pairs in
  if n = 0 then [||]
  else begin
    Metrics.add Meters.Pool.cand_evals n;
    Metrics.time Meters.Pool.score (fun () ->
        let sc = Delta.scratch () in
        Array.map (eval_pair config sc syn) pairs)
  end

(* All groups of >= 2 mergeable nodes with level <= threshold, as
   sid-sorted member arrays in ascending key order (deterministic
   regardless of group-index hashtable layout). *)
let collect_groups syn ~levels ~level =
  let eligible node =
    Synopsis.Levels.get levels ~default:max_int (B.sid node) <= level
  in
  B.group_keys syn
  |> List.filter_map (fun key ->
         let ms = ref [] in
         B.iter_group syn key (fun node -> if eligible node then ms := node :: !ms);
         match !ms with
         | [] | [ _ ] -> None
         | ms ->
           let arr = Array.of_list ms in
           Array.sort (fun a b -> Int.compare (B.sid a) (B.sid b)) arr;
           Some (key, arr))
  |> List.sort (fun (a, _) (b, _) -> key_compare a b)

let group_pairs config arr =
  (* [arr] arrives sid-sorted *)
  let g = Array.length arr in
  let out = ref [] in
  if g >= 2 then
    if g * (g - 1) / 2 <= pair_cap then
      for i = 0 to g - 2 do
        for j = i + 1 to g - 1 do
          out := (arr.(i), arr.(j)) :: !out
        done
      done
    else begin
      (* large group: count-nearest-neighbour pairing *)
      let arr = Array.copy arr in
      Array.sort
        (fun a b ->
          let c = Int.compare (B.count a) (B.count b) in
          if c <> 0 then c else Int.compare (B.sid a) (B.sid b))
        arr;
      for i = 0 to g - 2 do
        for j = i + 1 to min (g - 1) (i + config.neighbor_k) do
          out := (arr.(i), arr.(j)) :: !out
        done
      done
    end;
  !out

let build config syn ~levels ~level =
  Metrics.incr Meters.Pool.builds;
  Metrics.time Meters.Pool.build_inc @@ fun () ->
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (_, members) -> group_pairs config members)
         (collect_groups syn ~levels ~level))
  in
  Metrics.add Meters.Pool.evals_build (Array.length pairs);
  let cands = score_cands config syn pairs in
  (* the [cand_compare] order, with priorities divided out once
     instead of per comparison *)
  let keyed = Array.map (fun c -> (cand_priority c, c)) cands in
  Array.sort
    (fun (pa, a) (pb, b) ->
      let c = Float.compare pa pb in
      if c <> 0 then c
      else
        let c = Int.compare a.u b.u in
        if c <> 0 then c else Int.compare a.v b.v)
    keyed;
  Array.iteri (fun i (_, c) -> cands.(i) <- c) keyed;
  let keep = min hm (Array.length cands) in
  let heap = Heap.create ~capacity:(max 64 keep) () in
  for i = 0 to keep - 1 do
    Heap.push heap (cand_priority cands.(i)) cands.(i)
  done;
  heap

let push_neighbors config syn heap ~levels ~level node =
  Metrics.incr Meters.Pool.pushes;
  let key = group_key node in
  let scanned = ref 0 in
  let dist other = abs (B.count other - B.count node) in
  let eligible other =
    B.sid other <> B.sid node
    && Synopsis.Levels.get levels ~default:max_int (B.sid other) <= level
  in
  (* the [neighbor_k] group members nearest [node] by (count distance,
     sid): binary-search the node's count in the (count, sid)-sorted
     group array and expand outward, keeping an insertion-sorted top-k
     by (dist, sid). The walk stops once both frontiers are strictly
     farther than the current k-th best — no remaining member can enter
     (a tie at the k-th distance can still displace on sid, so
     equal-distance frontiers keep going). Worst case O(g) when eligible
     members are scarce; typically O(log g + k). *)
  let nearest = Metrics.time Meters.Pool.select_inc @@ fun () ->
    let k = config.neighbor_k in
    let best = Array.make k node and bdist = Array.make k max_int in
    let m = ref 0 in
    let before other d i =
      d < bdist.(i) || (d = bdist.(i) && B.sid other < B.sid best.(i))
    in
    let visit other =
      incr scanned;
      if eligible other then begin
        let d = dist other in
        if !m < k || before other d (k - 1) then begin
          let stop = min !m (k - 1) in
          let i = ref stop in
          while !i > 0 && before other d (!i - 1) do
            best.(!i) <- best.(!i - 1);
            bdist.(!i) <- bdist.(!i - 1);
            decr i
          done;
          best.(!i) <- other;
          bdist.(!i) <- d;
          if !m < k then incr m
        end
      end
    in
    let arr, len = B.group_members syn key in
    let c0 = B.count node in
    (* leftmost index with count >= c0 *)
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if B.count arr.(mid) < c0 then lo := mid + 1 else hi := mid
    done;
    let left = ref (!lo - 1) and right = ref !lo in
    let continue = ref true in
    while !continue && (!left >= 0 || !right < len) do
      let dl = if !left >= 0 then c0 - B.count arr.(!left) else max_int in
      let dr = if !right < len then B.count arr.(!right) - c0 else max_int in
      if !m = k && min dl dr > bdist.(k - 1) then continue := false
      else if dl <= dr then begin
        visit arr.(!left);
        decr left
      end
      else begin
        visit arr.(!right);
        incr right
      end
    done;
    Array.sub best 0 !m
  in
  Metrics.add Meters.Pool.scanned !scanned;
  Metrics.add Meters.Pool.evals_push (Array.length nearest);
  let cands = score_cands config syn (Array.map (fun o -> (node, o)) nearest) in
  Array.sort cand_compare cands;
  Array.iter (fun c -> Heap.push heap (cand_priority c) c) cands

let build_frontier config syn ~levels ~frontier =
  Metrics.incr Meters.Pool.frontier_builds;
  Metrics.time Meters.Pool.build_frontier @@ fun () ->
  let heap = Heap.create () in
  List.iter
    (fun sid ->
      if B.mem syn sid then
        (* level = max_int lifts the bottom-up threshold: every group
           peer of a dirty node is eligible *)
        push_neighbors config syn heap ~levels ~level:max_int (B.find syn sid))
    (List.sort_uniq Int.compare frontier);
  heap

let rec pop_valid config syn heap =
  match Heap.pop heap with
  | None -> None
  | Some (_, c) ->
    if not (B.mem syn c.u && B.mem syn c.v) then begin
      Metrics.incr Meters.Pool.stale_dropped;
      pop_valid config syn heap
    end
    else begin
      let u = B.find syn c.u and v = B.find syn c.v in
      (* both endpoints survive, but earlier merges may have rewired
         their neighborhoods since this entry was scored; saved_bytes is
         a cheap drift detector (any structural change around u/v moves
         it).  On drift, rescore and reinsert under the fresh priority —
         a rescored entry popped again without intervening merges
         matches and is returned, so this terminates. *)
      let saved = Merge.saved_bytes syn u v in
      if saved = c.saved then Some c
      else begin
        Metrics.incr Meters.Pool.rescored;
        Metrics.incr Meters.Pool.cand_evals;
        let c' = eval_pair config (Delta.scratch ()) syn (u, v) in
        Heap.push heap (cand_priority c') c';
        pop_valid config syn heap
      end
    end
