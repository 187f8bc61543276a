module Vs = Xc_vsumm.Value_summary
module B = Synopsis.Builder

let compatible u v =
  Xc_xml.Label.equal (B.label u) (B.label v)
  && Xc_xml.Value.vtype_equal (B.vtype u) (B.vtype v)
  && (match B.vsumm u, B.vsumm v with
     | Vs.Vnone, Vs.Vnone -> true
     | Vs.Vnum _, Vs.Vnum _ -> true
     | Vs.Vstr _, Vs.Vstr _ -> true
     | Vs.Vtext _, Vs.Vtext _ -> true
     | (Vs.Vnone | Vs.Vnum _ | Vs.Vstr _ | Vs.Vtext _), _ -> false)

let saved_bytes_with syn u v ~merged_children =
  let child_edges_before = B.out_degree u + B.out_degree v in
  (* every external parent holding edges to both u and v keeps only one *)
  let shared_parents = ref 0 in
  B.pred syn u (fun sid ->
      if sid <> B.sid u && sid <> B.sid v && B.has_parent v sid then
        incr shared_parents);
  Size.node_bytes
  + (Size.edge_bytes * (child_edges_before - merged_children + !shared_parents))

let saved_bytes syn u v =
  saved_bytes_with syn u v ~merged_children:(Delta.merged_children (Delta.scratch ()) syn u v)

let apply syn su sv =
  let u = B.find syn su and v = B.find syn sv in
  if su = sv then invalid_arg "Merge.apply: cannot merge a node with itself";
  if not (compatible u v) then invalid_arg "Merge.apply: incompatible nodes";
  let cu = float_of_int (B.count u) and cv = float_of_int (B.count v) in
  let cw = cu +. cv in
  let vsumm =
    match B.vsumm u, B.vsumm v with
    | Vs.Vnone, Vs.Vnone -> Vs.Vnone
    | a, b -> Vs.fuse a b
  in
  let w =
    B.add_node syn ~label:(B.label u) ~vtype:(B.vtype u)
      ~count:(B.count u + B.count v) ~vsumm
  in
  let sw = B.sid w in
  let is_uv sid = sid = su || sid = sv in
  (* combined child counts: count(w,c) = (|u|count(u,c)+|v|count(v,c))/|w|,
     with edges into u/v remapped onto w *)
  let child_counts = Hashtbl.create 8 in
  let add_children weight node =
    B.succ syn node (fun sid avg ->
        let key = if is_uv sid then sw else sid in
        let cur = Option.value ~default:0.0 (Hashtbl.find_opt child_counts key) in
        Hashtbl.replace child_counts key (cur +. (weight *. avg)))
  in
  add_children cu u;
  add_children cv v;
  (* parent totals: count(p,w) = count(p,u) + count(p,v) for external p *)
  let parent_counts = Hashtbl.create 8 in
  let add_parents node =
    B.pred syn node (fun psid ->
        if not (is_uv psid) then begin
          let p = B.find syn psid in
          let into node' = B.child_avg p (B.sid node') in
          Hashtbl.replace parent_counts psid (into u +. into v)
        end)
  in
  add_parents u;
  add_parents v;
  (* detach u and v from the graph: zero out their external edges, then
     unregister them (internal u/v edges die with the nodes) *)
  let detach node =
    let s = B.sid node in
    let outs = ref [] and ins = ref [] in
    B.succ syn node (fun sid _ -> if not (is_uv sid) then outs := sid :: !outs);
    B.pred syn node (fun sid -> if not (is_uv sid) then ins := sid :: !ins);
    List.iter (fun c -> B.set_edge syn ~parent:s ~child:c 0.0) !outs;
    List.iter (fun p -> B.set_edge syn ~parent:p ~child:s 0.0) !ins;
    B.remove_node syn s
  in
  detach u;
  detach v;
  (* wire w *)
  Hashtbl.iter
    (fun sid total -> B.set_edge syn ~parent:sw ~child:sid (total /. cw))
    child_counts;
  Hashtbl.iter
    (fun psid total -> B.set_edge syn ~parent:psid ~child:sw total)
    parent_counts;
  if B.root syn = su || B.root syn = sv then B.set_root syn sw;
  w
