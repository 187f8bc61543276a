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

(* gather the touched accumulator cells in ascending index order *)
let gather n acc flag touched =
  let out_idx = Array.make touched 0 and out_w = Array.make touched 0.0 in
  let j = ref 0 in
  for c = 0 to n - 1 do
    if Bytes.unsafe_get flag c = '\001' then begin
      out_idx.(!j) <- c;
      out_w.(!j) <- acc.(c);
      incr j
    end
  done;
  { d_idx = out_idx; d_w = out_w }

(* one child-axis expansion of a weight distribution: scatter each
   source row (a contiguous unboxed CSR slice) into the accumulator.
   Row edges run in ascending target order and sources in ascending
   index order, so the per-cell summation order is the canonical one
   both estimation paths share — bit-identical to the builder fold. *)
let expand_children syn dist =
  let off = S.child_off_ba syn
  and idx = S.child_idx_ba syn
  and avg = S.child_avg_ba syn in
  let n = S.n_nodes syn in
  let acc = Array.make n 0.0 in
  let flag = Bytes.make n '\000' in
  let touched = ref 0 in
  for i = 0 to Array.length dist.d_idx - 1 do
    let u = Array.unsafe_get dist.d_idx i and w = Array.unsafe_get dist.d_w i in
    for e = BA1.unsafe_get off u to BA1.unsafe_get off (u + 1) - 1 do
      let c = BA1.unsafe_get idx e in
      if Bytes.unsafe_get flag c = '\000' then begin
        Bytes.unsafe_set flag c '\001';
        incr touched
      end;
      Array.unsafe_set acc c (Array.unsafe_get acc c +. (w *. BA1.unsafe_get avg e))
    done
  done;
  gather n acc flag !touched

let filter_test syn test dist =
  let labels = S.labels syn in
  let m = Array.length dist.d_idx in
  let keep = Array.make m false in
  let kept = ref 0 in
  for i = 0 to m - 1 do
    if Path_expr.matches_test test labels.(dist.d_idx.(i)) then begin
      keep.(i) <- true;
      incr kept
    end
  done;
  if !kept = m then dist
  else begin
    let out_idx = Array.make !kept 0 and out_w = Array.make !kept 0.0 in
    let j = ref 0 in
    for i = 0 to m - 1 do
      if keep.(i) then begin
        out_idx.(!j) <- dist.d_idx.(i);
        out_w.(!j) <- dist.d_w.(i);
        incr j
      end
    done;
    { d_idx = out_idx; d_w = out_w }
  end

let step_reach syn step dist =
  match step.Path_expr.axis with
  | Path_expr.Child -> filter_test syn step.Path_expr.test (expand_children syn dist)
  | Path_expr.Descendant ->
    let labels = S.labels syn in
    let n = S.n_nodes syn in
    let acc = Array.make n 0.0 in
    let flag = Bytes.make n '\000' in
    let touched = ref 0 in
    let frontier = ref dist in
    let depth = ref 0 in
    let height = S.doc_height syn in
    while Array.length !frontier.d_idx > 0 && !depth < height do
      incr depth;
      let next = expand_children syn !frontier in
      for i = 0 to Array.length next.d_idx - 1 do
        let c = next.d_idx.(i) in
        if Path_expr.matches_test step.Path_expr.test labels.(c) then begin
          if Bytes.unsafe_get flag c = '\000' then begin
            Bytes.unsafe_set flag c '\001';
            incr touched
          end;
          acc.(c) <- acc.(c) +. next.d_w.(i)
        end
      done;
      frontier := next
    done;
    Metrics.observe Meters.Reach.expansion_depth (float_of_int !depth);
    gather n acc flag !touched

let reach_dist syn expr src =
  let dist = { d_idx = [| src |]; d_w = [| 1.0 |] } in
  List.fold_left (fun d step -> step_reach syn step d) dist expr

let reach syn expr src =
  match S.index_of_sid syn src with
  | None -> raise Not_found
  | Some i ->
    let d = reach_dist syn expr i in
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

let root_reach_dist syn expr =
  match expr with
  | [] -> empty_dist
  | first :: rest ->
    let dist = docnode_step syn first in
    List.fold_left (fun d s -> step_reach syn s d) dist rest

let selectivity syn query =
  let memo : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
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
                let reached = reach_dist syn expr idx in
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
            let reached = root_reach_dist syn expr in
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
        let n = S.n_nodes syn in
        let racc = Array.make n 0.0 in
        let flag = Bytes.make n '\000' in
        let touched = ref 0 in
        for i = 0 to Array.length dist.d_idx - 1 do
          let from_here = reach_dist syn expr dist.d_idx.(i) in
          let weight = dist.d_w.(i) in
          for k = 0 to Array.length from_here.d_idx - 1 do
            let v = from_here.d_idx.(k) in
            if Bytes.unsafe_get flag v = '\000' then begin
              Bytes.unsafe_set flag v '\001';
              incr touched
            end;
            racc.(v) <- racc.(v) +. (weight *. from_here.d_w.(k))
          done
        done;
        walk child (gather n racc flag !touched))
      qnode.Twig_query.edges
  in
  let root_q = query.Twig_query.root in
  List.iter
    (fun (expr, child) ->
      match expr with
      | [] -> ()
      | _ :: _ -> walk child (root_reach_dist syn expr))
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
