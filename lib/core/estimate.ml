open Xc_twig
module Vs = Xc_vsumm.Value_summary
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module B = Synopsis.Builder
module S = Synopsis.Sealed
module BA1 = Bigarray.Array1

(* ---- predicate selectivity -------------------------------------------- *)

(* shared core over (node vtype, node vsumm) so the sealed path and the
   builder baseline dispatch identically *)
let pred_sel pred_vtype node_vtype vsumm pred =
  let compatible = Xc_xml.Value.vtype_equal pred_vtype node_vtype in
  if not compatible then 0.0
  else
    match pred with
    | Predicate.Range (l, h) -> Vs.numeric_selectivity vsumm ~lo:l ~hi:h
    | Predicate.Contains qs -> Vs.substring_selectivity vsumm qs
    | Predicate.Ft_contains terms -> Vs.text_selectivity vsumm terms
    | Predicate.Ft_any terms ->
      (* Boolean model, term independence: P(any) = 1 - prod (1 - f) *)
      1.0
      -. List.fold_left (fun acc t -> acc *. (1.0 -. Vs.term_frequency vsumm t)) 1.0 terms
    | Predicate.Ft_excludes terms ->
      List.fold_left (fun acc t -> acc *. (1.0 -. Vs.term_frequency vsumm t)) 1.0 terms

let predicate_selectivity_typed vt syn i pred = pred_sel vt (S.vtype syn i) (S.vsumm syn i) pred
let predicate_selectivity syn i pred = predicate_selectivity_typed (Predicate.vtype pred) syn i pred

(* ---- the sealed CSR read path ------------------------------------------ *)

(* A node-weight distribution: parallel arrays sorted ascending by node
   index. Index order equals sid order (freeze sorts sids), so every
   fold below runs in the one canonical order both estimation paths
   share — float sums come out bit-identical. *)
type dist = {
  d_idx : int array;
  d_w : float array;
}

let empty_dist = { d_idx = [||]; d_w = [||] }

(* The sparse accumulator: n cells, n flags and the list of cells
   touched since the last gather, in first-touch order. Every cell
   outside that list holds 0.0 with its flag clear, so a step costs the
   cells it touches, not n. The arrays are allocated on first use, and
   one accumulator serves every step of every reach its owner runs. *)
type acc = {
  a_n : int;
  mutable a_cell : float array;
  mutable a_flag : Bytes.t;
  mutable a_touched : int array;
  mutable a_len : int;
}

let accumulator syn =
  { a_n = S.n_nodes syn; a_cell = [||]; a_flag = Bytes.empty; a_touched = [||]; a_len = 0 }

let ready a syn =
  if a.a_n <> S.n_nodes syn then invalid_arg "Estimate: accumulator of another synopsis";
  if Array.length a.a_cell < a.a_n then begin
    a.a_cell <- Array.make a.a_n 0.0;
    a.a_flag <- Bytes.make a.a_n '\000';
    a.a_touched <- Array.make a.a_n 0
  end

let touch a c =
  if Bytes.unsafe_get a.a_flag c = '\000' then begin
    Bytes.unsafe_set a.a_flag c '\001';
    Array.unsafe_set a.a_touched a.a_len c;
    a.a_len <- a.a_len + 1
  end

let add a c x =
  touch a c;
  Array.unsafe_set a.a_cell c (Array.unsafe_get a.a_cell c +. x)

(* ascending in place: insertion sort for the short lists most steps
   touch, which beats a library sort's comparison closure *)
let sort_ints out =
  let m = Array.length out in
  if m <= 24 then
    for i = 1 to m - 1 do
      let x = Array.unsafe_get out i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get out !j > x do
        Array.unsafe_set out (!j + 1) (Array.unsafe_get out !j);
        decr j
      done;
      Array.unsafe_set out (!j + 1) x
    done
  else Array.sort Int.compare out

(* The touched cells, ascending. A list of more than a sixteenth of the
   cells is read off the flags in one pass instead of sorted: a sort of
   a nearly full list costs more than the scan, which still costs at
   most 16 cells per touched one. *)
let touched_ascending a =
  let m = a.a_len in
  if m * 16 < a.a_n then begin
    let out = Array.sub a.a_touched 0 m in
    sort_ints out;
    out
  end
  else begin
    let out = Array.make m 0 in
    let j = ref 0 in
    for c = 0 to a.a_n - 1 do
      if Bytes.unsafe_get a.a_flag c = '\001' then begin
        Array.unsafe_set out !j c;
        incr j
      end
    done;
    out
  end

(* clear the touched cells and flags, and only those *)
let reset a touched =
  for k = 0 to Array.length touched - 1 do
    let c = Array.unsafe_get touched k in
    Bytes.unsafe_set a.a_flag c '\000';
    Array.unsafe_set a.a_cell c 0.0
  done;
  a.a_len <- 0

let gather a =
  let idx = touched_ascending a in
  let w = Array.map (fun c -> Array.unsafe_get a.a_cell c) idx in
  reset a idx;
  { d_idx = idx; d_w = w }

let mark a syn c =
  ready a syn;
  touch a c

let marked a =
  let idx = touched_ascending a in
  reset a idx;
  idx

(* one child-axis expansion of a weight distribution: scatter each
   source row (a contiguous unboxed CSR slice) into the accumulator,
   skipping targets the label test rejects. Row edges run in ascending
   target order and sources in ascending index order, so the per-cell
   summation order is the canonical one both estimation paths share —
   bit-identical to the builder fold. *)
let expand a syn test dist =
  let off = S.child_off_ba syn
  and idx = S.child_idx_ba syn
  and avg = S.child_avg_ba syn
  and labels = S.labels syn in
  for i = 0 to Array.length dist.d_idx - 1 do
    let u = Array.unsafe_get dist.d_idx i and w = Array.unsafe_get dist.d_w i in
    for e = BA1.unsafe_get off u to BA1.unsafe_get off (u + 1) - 1 do
      let c = BA1.unsafe_get idx e in
      if Path_expr.matches_test test (Array.unsafe_get labels c) then
        add a c (w *. BA1.unsafe_get avg e)
    done
  done;
  gather a

let step_reach a syn step dist =
  ready a syn;
  match step.Path_expr.axis with
  | Path_expr.Child -> expand a syn step.Path_expr.test dist
  | Path_expr.Descendant ->
    (* the closure's levels are kept until the loop ends, then their
       matching cells are summed depth by depth through the same
       accumulator *)
    let levels = ref [] in
    let frontier = ref dist in
    let depth = ref 0 in
    let height = S.doc_height syn in
    while Array.length !frontier.d_idx > 0 && !depth < height do
      incr depth;
      let next = expand a syn Path_expr.Wildcard !frontier in
      levels := next :: !levels;
      frontier := next
    done;
    Metrics.observe Meters.Reach.expansion_depth (float_of_int !depth);
    let labels = S.labels syn in
    List.iter
      (fun level ->
        for i = 0 to Array.length level.d_idx - 1 do
          let c = Array.unsafe_get level.d_idx i in
          if Path_expr.matches_test step.Path_expr.test (Array.unsafe_get labels c) then
            add a c (Array.unsafe_get level.d_w i)
        done)
      (List.rev !levels);
    gather a

let reach_dist a syn expr src =
  let dist = { d_idx = [| src |]; d_w = [| 1.0 |] } in
  List.fold_left (fun d step -> step_reach a syn step d) dist expr

let reach syn expr src =
  match S.index_of_sid syn src with
  | None -> raise Not_found
  | Some i ->
    let d = reach_dist (accumulator syn) syn expr i in
    List.init (Array.length d.d_idx) (fun k -> (S.sid_of_index syn d.d_idx.(k), d.d_w.(k)))

(* weight distribution for the first step taken from the virtual
   document node: a child step selects the root cluster (one element),
   while a descendant step reaches every element of every matching
   cluster *)
let docnode_step syn step =
  match step.Path_expr.axis with
  | Path_expr.Child ->
    let root = S.root syn in
    if Path_expr.matches_test step.Path_expr.test (S.label syn root) then
      { d_idx = [| root |]; d_w = [| 1.0 |] }
    else empty_dist
  | Path_expr.Descendant ->
    (* single pass over the label array: matches land in a doubling
       buffer, so the scan cost is paid once instead of count + fill.
       Weights come from the precomputed unboxed float counts — the
       same bits [float_of_int counts.(i)] would produce. *)
    let labels = S.labels syn and fcounts = S.fcounts syn in
    let n = S.n_nodes syn in
    let buf_idx = ref (Array.make 16 0) and buf_w = ref (Array.make 16 0.0) in
    let m = ref 0 in
    for i = 0 to n - 1 do
      if Path_expr.matches_test step.Path_expr.test labels.(i) then begin
        if !m = Array.length !buf_idx then begin
          let cap = 2 * !m in
          let gi = Array.make cap 0 and gw = Array.make cap 0.0 in
          Array.blit !buf_idx 0 gi 0 !m;
          Array.blit !buf_w 0 gw 0 !m;
          buf_idx := gi;
          buf_w := gw
        end;
        !buf_idx.(!m) <- i;
        !buf_w.(!m) <- BA1.unsafe_get fcounts i;
        incr m
      end
    done;
    { d_idx = Array.sub !buf_idx 0 !m; d_w = Array.sub !buf_w 0 !m }

let root_reach_dist a syn expr =
  match expr with
  | [] -> empty_dist
  | first :: rest ->
    let dist = docnode_step syn first in
    List.fold_left (fun d s -> step_reach a syn s d) dist rest

let selectivity syn query =
  let memo : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let a = accumulator syn in
  (* expected binding tuples of the query subtree per element of the
     synopsis node the variable is mapped to *)
  let rec est qnode idx =
    let key = (qnode.Twig_query.qid, idx) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let sigma =
        List.fold_left
          (fun acc pred -> acc *. predicate_selectivity syn idx pred)
          1.0 qnode.Twig_query.preds
      in
      let result =
        if sigma <= 0.0 then 0.0
        else
          List.fold_left
            (fun acc (expr, child) ->
              if acc <= 0.0 then 0.0
              else begin
                let reached = reach_dist a syn expr idx in
                let sum = ref 0.0 in
                for i = 0 to Array.length reached.d_idx - 1 do
                  sum := !sum +. (reached.d_w.(i) *. est child reached.d_idx.(i))
                done;
                acc *. !sum
              end)
            sigma qnode.Twig_query.edges
      in
      Hashtbl.replace memo key result;
      result
  in
  (* q0 binds to the virtual document node *)
  let root_q = query.Twig_query.root in
  if root_q.Twig_query.preds <> [] then 0.0
  else
    List.fold_left
      (fun acc (expr, child) ->
        if acc <= 0.0 then 0.0
        else
          match expr with
          | [] -> 0.0
          | _ :: _ ->
            let reached = root_reach_dist a syn expr in
            let sum = ref 0.0 in
            for i = 0 to Array.length reached.d_idx - 1 do
              sum := !sum +. (reached.d_w.(i) *. est child reached.d_idx.(i))
            done;
            acc *. !sum)
      1.0 root_q.Twig_query.edges

(* ---- the builder baseline ---------------------------------------------
   The pre-freeze estimator: same semantics over the mutable hashtable
   graph, iterating frontiers and children in ascending-sid order — the
   canonical order the sealed CSR path uses — so the two paths perform
   identical float operations in identical order and agree bit for bit.
   Kept for differential testing and as the bench [seal] target's
   builder-side timing. *)

let b_sorted_pairs tbl =
  let pairs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs

let b_children_sorted syn sid =
  let node = B.find syn sid in
  let acc = ref [] in
  B.succ syn node (fun c avg -> acc := (c, avg) :: !acc);
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let b_expand syn dist =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (usid, w) ->
      List.iter
        (fun (c, avg) ->
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt acc c) in
          Hashtbl.replace acc c (cur +. (w *. avg)))
        (b_children_sorted syn usid))
    dist;
  b_sorted_pairs acc

let b_filter syn test dist =
  List.filter (fun (sid, _) -> Path_expr.matches_test test (B.label (B.find syn sid))) dist

let b_step_reach syn step dist =
  match step.Path_expr.axis with
  | Path_expr.Child -> b_filter syn step.Path_expr.test (b_expand syn dist)
  | Path_expr.Descendant ->
    let out = Hashtbl.create 16 in
    let frontier = ref dist in
    let depth = ref 0 in
    let height = B.doc_height syn in
    while !frontier <> [] && !depth < height do
      incr depth;
      let next = b_expand syn !frontier in
      List.iter
        (fun (sid, w) ->
          if Path_expr.matches_test step.Path_expr.test (B.label (B.find syn sid)) then
            Hashtbl.replace out sid
              (w +. Option.value ~default:0.0 (Hashtbl.find_opt out sid)))
        next;
      frontier := next
    done;
    Metrics.observe Meters.Reach.expansion_depth (float_of_int !depth);
    b_sorted_pairs out

let b_reach syn expr src =
  List.fold_left (fun d step -> b_step_reach syn step d) [ (src, 1.0) ] expr

let b_docnode_step syn step =
  match step.Path_expr.axis with
  | Path_expr.Child ->
    let root = B.root_node syn in
    if Path_expr.matches_test step.Path_expr.test (B.label root) then
      [ (B.sid root, 1.0) ]
    else []
  | Path_expr.Descendant ->
    B.fold
      (fun acc node ->
        if Path_expr.matches_test step.Path_expr.test (B.label node) then
          (B.sid node, float_of_int (B.count node)) :: acc
        else acc)
      [] syn
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let b_root_reach syn expr =
  match expr with
  | [] -> []
  | first :: rest ->
    List.fold_left (fun d s -> b_step_reach syn s d) (b_docnode_step syn first) rest

let selectivity_builder syn query =
  let memo : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let rec est qnode sid =
    let key = (qnode.Twig_query.qid, sid) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let node = B.find syn sid in
      let sigma =
        List.fold_left
          (fun acc pred -> acc *. pred_sel (Predicate.vtype pred) (B.vtype node) (B.vsumm node) pred)
          1.0 qnode.Twig_query.preds
      in
      let result =
        if sigma <= 0.0 then 0.0
        else
          List.fold_left
            (fun acc (expr, child) ->
              if acc <= 0.0 then 0.0
              else begin
                let reached = b_reach syn expr sid in
                let sum =
                  List.fold_left
                    (fun acc' (vsid, weight) -> acc' +. (weight *. est child vsid))
                    0.0 reached
                in
                acc *. sum
              end)
            sigma qnode.Twig_query.edges
      in
      Hashtbl.replace memo key result;
      result
  in
  let root_q = query.Twig_query.root in
  if root_q.Twig_query.preds <> [] then 0.0
  else
    List.fold_left
      (fun acc (expr, child) ->
        if acc <= 0.0 then 0.0
        else
          match expr with
          | [] -> 0.0
          | _ :: _ ->
            let reached = b_root_reach syn expr in
            let sum =
              List.fold_left
                (fun acc' (sid, weight) -> acc' +. (weight *. est child sid))
                0.0 reached
            in
            acc *. sum)
      1.0 root_q.Twig_query.edges

(* ---- explanations ------------------------------------------------------ *)

type explanation = {
  query_node : int;
  bindings : (int * string * float) list;
}

let explain syn query =
  let a = accumulator syn in
  (* forward pass: expected number of elements bound to each (variable,
     cluster) pair, ignoring predicates on deeper subtrees (an upper
     bound on the true binding distribution, which is what an optimizer
     inspects to pick access paths) *)
  let acc : (int, (int, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let note qid idx weight =
    let tbl =
      match Hashtbl.find_opt acc qid with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.add acc qid t;
        t
    in
    Hashtbl.replace tbl idx (weight +. Option.value ~default:0.0 (Hashtbl.find_opt tbl idx))
  in
  let rec walk qnode dist =
    for i = 0 to Array.length dist.d_idx - 1 do
      let idx = dist.d_idx.(i) and weight = dist.d_w.(i) in
      let sigma =
        List.fold_left
          (fun s pred -> s *. predicate_selectivity syn idx pred)
          1.0 qnode.Twig_query.preds
      in
      note qnode.Twig_query.qid idx (weight *. sigma)
    done;
    List.iter
      (fun (expr, child) ->
        (* every source's reach first: they share the one accumulator *)
        let reached = Array.map (fun u -> reach_dist a syn expr u) dist.d_idx in
        ready a syn;
        Array.iteri
          (fun i from_here ->
            let weight = dist.d_w.(i) in
            for k = 0 to Array.length from_here.d_idx - 1 do
              add a from_here.d_idx.(k) (weight *. from_here.d_w.(k))
            done)
          reached;
        walk child (gather a))
      qnode.Twig_query.edges
  in
  let root_q = query.Twig_query.root in
  List.iter
    (fun (expr, child) ->
      match expr with
      | [] -> ()
      | _ :: _ -> walk child (root_reach_dist a syn expr))
    root_q.Twig_query.edges;
  Hashtbl.fold
    (fun qid tbl out ->
      let bindings =
        Hashtbl.fold
          (fun idx w acc' ->
            (S.sid_of_index syn idx, Xc_xml.Label.to_string (S.label syn idx), w) :: acc')
          tbl []
        |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
      in
      { query_node = qid; bindings } :: out)
    acc []
  |> List.sort (fun a b -> Int.compare a.query_node b.query_node)
