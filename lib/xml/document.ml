type summary = {
  path_of : int array;
  path_rank : int array;
  label : Label.t array;
  parent : int array;
  children : int array array;
  elements : int array array;
}

type t = {
  root : Node.t;
  nodes : Node.t array;
  height : int;
  parents : int array;
  summary : summary;
}

(* Path ids follow first encounter in preorder, so an element's parent,
   and a path node's parent, always comes first. *)
let summarize nodes parents =
  let n = Array.length nodes in
  let n_labels = 1 + Array.fold_left (fun m node -> max m (node.Node.label :> int)) 0 nodes in
  let path_of = Array.make n 0 in
  let ids = Hashtbl.create 64 in
  let labels = ref [] and ups = ref [] and next = ref 0 in
  for i = 0 to n - 1 do
    let l = nodes.(i).Node.label in
    let up = if parents.(i) < 0 then -1 else path_of.(parents.(i)) in
    let key = ((up + 1) * n_labels) + (l :> int) in
    path_of.(i) <-
      (match Hashtbl.find_opt ids key with
      | Some p -> p
      | None ->
        let p = !next in
        incr next;
        Hashtbl.add ids key p;
        labels := l :: !labels;
        ups := up :: !ups;
        p)
  done;
  let n_paths = !next in
  let label = Array.of_list (List.rev !labels) and parent = Array.of_list (List.rev !ups) in
  (* ids ascend, so filling each path node's array in id order keeps it
     sorted; the same holds for each path node's children *)
  let fill n_members owner =
    let counts = Array.make n_paths 0 in
    Array.iter (fun p -> if p >= 0 then counts.(p) <- counts.(p) + 1) owner;
    let members = Array.map (fun count -> Array.make count 0) counts in
    let rank = Array.make n_members 0 in
    Array.fill counts 0 n_paths 0;
    Array.iteri
      (fun i p ->
        if p >= 0 then begin
          rank.(i) <- counts.(p);
          members.(p).(counts.(p)) <- i;
          counts.(p) <- counts.(p) + 1
        end)
      owner;
    (members, rank)
  in
  let elements, path_rank = fill n path_of in
  let children, _ = fill n_paths parent in
  { path_of; path_rank; label; parent; children; elements }

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
  let parents = Array.make n (-1) in
  Array.iteri
    (fun i node -> Array.iter (fun c -> parents.(c.Node.id) <- i) node.Node.children)
    nodes;
  { root; nodes; height = Node.height root; parents; summary = summarize nodes parents }

let n_elements d = Array.length d.nodes
let n_paths d = Array.length d.summary.label

let path_labels d p =
  let s = d.summary in
  let rec up p acc = if p < 0 then acc else up s.parent.(p) (s.label.(p) :: acc) in
  up p []

let label_path d node = path_labels d d.summary.path_of.(node.Node.id)

let designated d = function
  | None -> Array.make (n_paths d) true
  | Some paths ->
    let set = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace set p ()) paths;
    Array.init (n_paths d) (fun p -> Hashtbl.mem set (path_labels d p))

let value_counts d =
  let counts = Hashtbl.create 4 in
  Array.iter
    (fun node ->
      let vt = Value.vtype node.Node.value in
      let cur = Option.value ~default:0 (Hashtbl.find_opt counts vt) in
      Hashtbl.replace counts vt (cur + 1))
    d.nodes;
  Hashtbl.fold (fun vt c acc -> (vt, c) :: acc) counts []
