module B = Synopsis.Builder
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module Vs = Xc_vsumm.Value_summary
open Xc_xml

let src = Logs.Src.create "xcluster.update" ~doc:"incremental maintenance"

module Log = (val Logs.src_log src : Logs.LOG)

type mutation =
  | Insert of { parent : Label.t list; subtree : Node.t }
  | Delete of { parent : Label.t list; subtree : Node.t }

type stats = {
  applied : int;
  skipped : int;
  dirty : int;
  created : int;
  removed : int;
  repair_merges : int;
}

(* ---- deterministic path resolution ------------------------------------ *)

(* The child cluster of [host] labelled [label] with the largest extent
   (ties to the smallest sid) — the cluster a new element of that label
   most plausibly belongs to, chosen the same way on every run. *)
let child_with_label syn host label =
  let best = ref None in
  B.succ syn host (fun csid _avg ->
      match B.find syn csid with
      | exception Not_found -> ()
      | c ->
        if Label.equal (B.label c) label then begin
          match !best with
          | Some b
            when B.count b > B.count c
                 || (B.count b = B.count c && B.sid b < B.sid c) -> ()
          | _ -> best := Some c
        end);
  !best

let resolve_parent syn path =
  match path with
  | [] -> Error "Update: empty parent path"
  | first :: rest ->
    let root = B.root_node syn in
    if not (Label.equal (B.label root) first) then
      Error
        (Printf.sprintf "Update: parent path starts at %S, root is %S"
           (Label.to_string first)
           (Label.to_string (B.label root)))
    else
      let rec walk node = function
        | [] -> Ok node
        | l :: ls -> (
          match child_with_label syn node l with
          | Some c -> walk c ls
          | None ->
            Error
              (Printf.sprintf "Update: no cluster for path step %S"
                 (Label.to_string l)))
      in
      walk root rest

(* ---- pass 1: map mutations to accumulated deltas ----------------------- *)

type acc = {
  syn : B.t;
  count_deltas : (int, int) Hashtbl.t;          (* sid -> extent delta *)
  edge_deltas : (int * int, float) Hashtbl.t;   (* (p, c) -> total-children delta *)
  added_values : (int, Value.t list ref) Hashtbl.t;
  created_for : (int * Label.t, int) Hashtbl.t; (* (host sid, label) -> fresh sid *)
  mutable created : int list;
  mutable skipped : int;
}

let bump tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let bumpf tbl key by =
  Hashtbl.replace tbl key (by +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

(* Map one inserted element under the host cluster. Resolution prefers
   an existing child cluster; a novel label allocates a fresh zero-count
   cluster (remembered per (host, label) so sibling inserts share it —
   it has no edge yet, so [child_with_label] cannot see it). Mapping
   only accumulates; counts and edges are written in pass 2. *)
let rec place acc host (xml : Node.t) =
  let label = xml.Node.label in
  let c =
    match child_with_label acc.syn host label with
    | Some c -> c
    | None -> (
      match Hashtbl.find_opt acc.created_for (B.sid host, label) with
      | Some sid -> B.find acc.syn sid
      | None ->
        let c =
          B.add_node acc.syn ~label ~vtype:(Value.vtype xml.Node.value)
            ~count:0 ~vsumm:Vs.vnone
        in
        Hashtbl.replace acc.created_for (B.sid host, label) (B.sid c);
        acc.created <- B.sid c :: acc.created;
        c)
  in
  bump acc.count_deltas (B.sid c) 1;
  bumpf acc.edge_deltas (B.sid host, B.sid c) 1.0;
  (match xml.Node.value with
  | Value.Null -> ()
  | v ->
    let vs =
      match Hashtbl.find_opt acc.added_values (B.sid c) with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add acc.added_values (B.sid c) r;
        r
    in
    vs := v :: !vs);
  Array.iter (place acc c) xml.Node.children

(* Deletion never creates and never goes negative: a branch that
   resolves to no live cluster is skipped and counted. Deleted values
   are not subtracted from summaries (selectivity fractions stay; the
   count rescale in pass 2 handles magnitude). *)
let rec unplace acc host (xml : Node.t) =
  match child_with_label acc.syn host xml.Node.label with
  | None -> acc.skipped <- acc.skipped + 1
  | Some c ->
    bump acc.count_deltas (B.sid c) (-1);
    bumpf acc.edge_deltas (B.sid host, B.sid c) (-1.0);
    Array.iter (unplace acc c) xml.Node.children

(* ---- pass 2: write counts, edges, summaries ---------------------------- *)

(* Edge averages below 1e-9 are float residue of an exact cancellation
   (total/old * old - total); snap them to 0 so the edge is dropped. *)
let snap avg = if avg < 1e-9 then 0.0 else avg

let write_deltas acc =
  let syn = acc.syn in
  let changes =
    Hashtbl.fold (fun sid d l -> if d <> 0 then (sid, d) :: l else l)
      acc.count_deltas []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.filter_map (fun (sid, d) ->
           match B.find syn sid with
           | exception Not_found -> None
           | node ->
             let old_c = B.count node in
             let new_c = max 0 (old_c + d) in
             (* the root cluster never empties: an update stream cannot
                delete the document element *)
             if new_c = 0 && sid = B.root syn then None
             else Some (node, old_c, new_c))
  in
  let removals = List.filter (fun (_, _, new_c) -> new_c = 0) changes in
  let removed_set = Hashtbl.create 8 in
  List.iter (fun (n, _, _) -> Hashtbl.replace removed_set (B.sid n) ()) removals;
  (* compute every edge write from the pre-update state before touching
     anything: a count-changed parent rescales all its outgoing
     averages (stored avg = total/count), consuming any accumulated
     total delta on the way *)
  let consumed = Hashtbl.create 64 in
  let writes = ref [] in
  List.iter
    (fun (pnode, old_p, new_p) ->
      if new_p > 0 then begin
        let p = B.sid pnode in
        B.succ syn pnode (fun c avg ->
            Hashtbl.replace consumed (p, c) ();
            let dt =
              Option.value ~default:0.0 (Hashtbl.find_opt acc.edge_deltas (p, c))
            in
            let total = (avg *. float_of_int old_p) +. dt in
            writes := (p, c, snap (total /. float_of_int new_p)) :: !writes);
        (* edges that do not exist yet: created children of p *)
        Hashtbl.iter
          (fun (pp, c) dt ->
            if pp = p && not (Hashtbl.mem consumed (pp, c)) then begin
              Hashtbl.replace consumed (pp, c) ();
              writes := (pp, c, snap (dt /. float_of_int new_p)) :: !writes
            end)
          acc.edge_deltas
      end)
    changes;
  (* remaining edge deltas: the parent's count did not change, only the
     total did (e.g. the attachment edge of an insert batch) *)
  Hashtbl.iter
    (fun (p, c) dt ->
      if not (Hashtbl.mem consumed (p, c)) then
        match B.find syn p with
        | exception Not_found -> ()
        | pnode ->
          let cnt = B.count pnode in
          if cnt > 0 then
            writes :=
              (p, c, snap (B.child_avg pnode c +. (dt /. float_of_int cnt)))
              :: !writes)
    acc.edge_deltas;
  (* frontier parents are collected before edges move *)
  let frontier = Hashtbl.create 64 in
  let mark sid = if not (Hashtbl.mem removed_set sid) then Hashtbl.replace frontier sid () in
  List.iter
    (fun (node, _, _) ->
      mark (B.sid node);
      B.pred syn node mark)
    changes;
  List.iter mark acc.created;
  Hashtbl.iter (fun (p, c) _ -> mark p; mark c) acc.edge_deltas;
  (* write: survivor counts, then edges, then unlink the emptied *)
  List.iter
    (fun (node, _, new_c) -> if new_c > 0 then B.set_count syn node new_c)
    changes;
  List.iter
    (fun (p, c, avg) ->
      let avg = if Hashtbl.mem removed_set c then 0.0 else avg in
      B.set_edge syn ~parent:p ~child:c avg)
    (List.sort compare !writes);
  List.iter
    (fun (node, _, _) ->
      let sid = B.sid node in
      let outs = ref [] and ins = ref [] in
      B.succ syn node (fun c _ -> outs := c :: !outs);
      B.pred syn node (fun p -> ins := p :: !ins);
      List.iter (fun c -> B.set_edge syn ~parent:sid ~child:c 0.0) !outs;
      List.iter (fun p -> B.set_edge syn ~parent:p ~child:sid 0.0) !ins;
      B.remove_node syn sid)
    removals;
  (* fuse inserted values into the survivors' summaries *)
  let detail = Reference.default_detail in
  Hashtbl.iter
    (fun sid values ->
      if not (Hashtbl.mem removed_set sid) then
        match B.find syn sid with
        | exception Not_found -> ()
        | node ->
          let fresh =
            Vs.of_values ~hist_buckets:detail.Reference.hist_buckets
              ~pst_depth:detail.Reference.pst_depth
              ~pst_nodes:detail.Reference.pst_nodes
              ~top_terms:detail.Reference.top_terms !values
          in
          let old = B.vsumm node in
          let was_created = List.mem sid acc.created in
          let next =
            if was_created || old = Vs.Vnone then Some fresh
            else
              match (old, fresh) with
              | Vs.Vnum _, Vs.Vnum _
              | Vs.Vstr _, Vs.Vstr _
              | Vs.Vtext _, Vs.Vtext _ -> Some (Vs.fuse old fresh)
              | _ ->
                (* kind mismatch: keep the established summary rather
                   than corrupt it — counted, visible in metrics *)
                Metrics.incr Meters.Update.vsumm_kept;
                None
          in
          Option.iter
            (fun v ->
              B.set_vsumm syn node v;
              Hashtbl.replace frontier sid ())
            next)
    acc.added_values;
  let removed = List.length removals in
  (removed, Hashtbl.fold (fun sid () l -> sid :: l) frontier [])

(* ---- entry points ------------------------------------------------------ *)

let apply ~budget syn mutations =
  Metrics.time Meters.Update.apply @@ fun () ->
  (* resolve every parent path against the untouched builder first: a
     malformed batch is rejected wholesale, nothing written *)
  let rec resolve_all = function
    | [] -> Ok []
    | m :: ms -> (
      let path = match m with Insert { parent; _ } | Delete { parent; _ } -> parent in
      match resolve_parent syn path with
      | Error _ as e -> e
      | Ok host -> Result.map (fun hosts -> host :: hosts) (resolve_all ms))
  in
  match resolve_all mutations with
  | Error _ as e -> e
  | Ok hosts ->
    Metrics.add Meters.Update.mutations (List.length mutations);
    let acc =
      { syn; count_deltas = Hashtbl.create 64; edge_deltas = Hashtbl.create 64;
        added_values = Hashtbl.create 16; created_for = Hashtbl.create 8;
        created = []; skipped = 0 }
    in
    List.iter2
      (fun m host ->
        match m with
        | Insert { subtree; _ } -> place acc host subtree
        | Delete { subtree; _ } -> unplace acc host subtree)
      mutations hosts;
    let removed, frontier = write_deltas acc in
    let created = List.length acc.created in
    Metrics.add Meters.Update.created created;
    Metrics.add Meters.Update.removed removed;
    Metrics.add Meters.Update.skipped_branches acc.skipped;
    let repair_merges =
      Metrics.time Meters.Update.repair @@ fun () ->
      let merges = Build.phase1_repair budget syn ~frontier in
      Build.phase2_repair budget syn ~frontier;
      merges
    in
    Log.debug (fun m ->
        m "applied %d mutations: %d dirty, %d created, %d removed, %d repair merges"
          (List.length mutations) (List.length frontier) created removed
          repair_merges);
    (* bug guard: an update must leave a structurally valid builder *)
    (match B.validate syn with
    | Ok () ->
      Ok
        { applied = List.length mutations; skipped = acc.skipped;
          dirty = List.length frontier; created; removed; repair_merges }
    | Error e -> Error ("Update left an invalid synopsis (discard it): " ^ e))

let apply_and_seal ~budget syn mutations =
  Result.map (fun stats -> (stats, Synopsis.freeze syn)) (apply ~budget syn mutations)
