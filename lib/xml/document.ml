type index = {
  by_label : int array array;
  rank : int array;
}

type t = {
  root : Node.t;
  nodes : Node.t array;
  height : int;
  parents : int array;
  index : index;
}

let create root =
  let n = Node.size root in
  let nodes = Array.make n root in
  let next = ref 0 in
  Node.iter
    (fun node ->
      node.Node.id <- !next;
      nodes.(!next) <- node;
      incr next)
    root;
  let label i = (nodes.(i).Node.label :> int) in
  let n_labels = 1 + Array.fold_left (fun m node -> max m (node.Node.label :> int)) 0 nodes in
  let counts = Array.make n_labels 0 in
  let parents = Array.make n (-1) in
  for i = 0 to n - 1 do
    counts.(label i) <- counts.(label i) + 1;
    Array.iter (fun c -> parents.(c.Node.id) <- i) nodes.(i).Node.children
  done;
  (* ids ascend, so filling each label's array in id order keeps it sorted *)
  let by_label = Array.map (fun count -> Array.make count 0) counts in
  let rank = Array.make n 0 in
  Array.fill counts 0 (Array.length counts) 0;
  for i = 0 to n - 1 do
    let l = label i in
    rank.(i) <- counts.(l);
    by_label.(l).(counts.(l)) <- i;
    counts.(l) <- counts.(l) + 1
  done;
  { root; nodes; height = Node.height root; parents; index = { by_label; rank } }

let n_elements d = Array.length d.nodes

let elements d label =
  let l = (label : Label.t :> int) in
  if l < Array.length d.index.by_label then d.index.by_label.(l) else [||]

let rank d id = d.index.rank.(id)

let label_path d node =
  let rec up id acc =
    if id < 0 then acc else up d.parents.(id) (d.nodes.(id).Node.label :: acc)
  in
  up node.Node.id []

let value_counts d =
  let counts = Hashtbl.create 4 in
  Array.iter
    (fun node ->
      let vt = Value.vtype node.Node.value in
      let cur = Option.value ~default:0 (Hashtbl.find_opt counts vt) in
      Hashtbl.replace counts vt (cur + 1))
    d.nodes;
  Hashtbl.fold (fun vt c acc -> (vt, c) :: acc) counts []
