open Xc_xml

(* The elements a query variable (or an intermediate step) may bind to:
   those of the path nodes its incoming path reaches in the document's
   path summary, path node by path node, each in preorder. An element
   [e] of the domain sits at slot [base.(path_of e) + path_rank e];
   [base.(p)] is -1 for a path node outside the domain. *)
type domain = {
  paths : int array;
  ids : int array;
  base : int array;
}

let domain doc paths =
  let s = doc.Document.summary in
  let base = Array.make (Document.n_paths doc) (-1) and at = ref 0 in
  Array.iter
    (fun p ->
      base.(p) <- !at;
      at := !at + Array.length s.elements.(p))
    paths;
  let ids =
    match paths with
    | [| p |] -> s.elements.(p)
    | _ -> Array.concat (List.map (fun p -> s.elements.(p)) (Array.to_list paths))
  in
  { paths; ids; base }

(* The path nodes [step] reaches, given [firsts]: the path nodes one
   child edge below its source. A child step keeps those its test
   admits; a descendant step also looks below them. *)
let reach doc firsts (step : Path_expr.step) =
  let s = doc.Document.summary in
  let admits p = Path_expr.matches_test step.test s.label.(p) in
  match step.axis with
  | Path_expr.Child -> Array.of_list (List.filter admits (Array.to_list firsts))
  | Path_expr.Descendant ->
    (* a subtree already seen is not walked again, so nested sources
       reach each path node once *)
    let seen = Array.make (Document.n_paths doc) false and out = ref [] in
    let rec visit p =
      if not seen.(p) then begin
        seen.(p) <- true;
        if admits p then out := p :: !out;
        Array.iter visit s.children.(p)
      end
    in
    Array.iter visit firsts;
    Array.of_list (List.rev !out)

let children_of doc dom =
  let s = doc.Document.summary in
  Array.concat (List.map (fun p -> s.children.(p)) (Array.to_list dom.paths))

(* The binding counts of a domain's elements, one per slot; 0 off the
   support. A vector is owned by the step that made it, so [keep_if]
   and [multiply] overwrite theirs in place. *)
type vec = float array

let sum (v : vec) =
  let s = ref 0.0 in
  for j = 0 to Array.length v - 1 do
    s := !s +. v.(j)
  done;
  !s

(* zero the counts of the elements that fail a predicate; only the
   support is tested *)
let keep_if doc dom preds (v : vec) =
  if preds <> [] then begin
    let nodes = doc.Document.nodes in
    let rec holds value = function
      | [] -> true
      | p :: rest -> Predicate.matches p value && holds value rest
    in
    for j = 0 to Array.length v - 1 do
      if v.(j) <> 0.0 && not (holds nodes.(dom.ids.(j)).Node.value preds) then v.(j) <- 0.0
    done
  end

(* pointwise product of two vectors over one domain, into [a] *)
let multiply (a : vec) (b : vec) =
  for j = 0 to Array.length a - 1 do
    a.(j) <- a.(j) *. b.(j)
  done

(* Pull [v], a vector over [from], back through one step into [into]:
   the result holds, for each element of [into], the sum of [v] over the
   elements the step reaches from it. A child step adds each count to
   the element's parent. A descendant step adds it to the element's
   ancestors, up to the highest one [into] may hold: [lift.(p)] is how
   many ancestors that is for an element on path node [p]. When the walk
   would cost more than the document's size, one reverse preorder scan
   sums every subtree in O(n) instead. *)
let pull_step doc axis ~from (v : vec) ~into : vec =
  let s = doc.Document.summary and parents = doc.Document.parents in
  let n = Document.n_elements doc in
  let acc = Array.make (Array.length into.ids) 0.0 in
  let add a x =
    let b = into.base.(s.path_of.(a)) in
    if b >= 0 then begin
      let p = b + s.path_rank.(a) in
      acc.(p) <- acc.(p) +. x
    end
  in
  (match axis with
  | Path_expr.Child ->
    (* [from] was reached from [into]'s children, so no element of it is
       the root *)
    Array.iteri (fun j x -> if x <> 0.0 then add parents.(from.ids.(j)) x) v
  | Path_expr.Descendant ->
    (* a path node's parent comes first, so one ascending pass fills
       [lift]; [covered.(p)]: [p] or an ancestor is in [into] *)
    let n_paths = Document.n_paths doc in
    let covered = Array.make n_paths false and lift = Array.make n_paths 0 in
    for p = 0 to n_paths - 1 do
      let up = s.parent.(p) in
      covered.(p) <- into.base.(p) >= 0 || (up >= 0 && covered.(up));
      if up >= 0 && covered.(up) then lift.(p) <- 1 + lift.(up)
    done;
    let walk = ref 0 in
    Array.iteri (fun j x -> if x <> 0.0 then walk := !walk + lift.(s.path_of.(from.ids.(j)))) v;
    if !walk <= n then
      Array.iteri
        (fun j x ->
          if x <> 0.0 then begin
            let a = ref parents.(from.ids.(j)) in
            while !a >= 0 && covered.(s.path_of.(!a)) do
              add !a x;
              a := parents.(!a)
            done
          end)
        v
    else begin
      (* children have larger ids than their parent, so a reverse scan
         completes each subtree's sum before it reaches the parent *)
      let own = Array.make n 0.0 and below = Array.make n 0.0 in
      Array.iteri (fun j x -> own.(from.ids.(j)) <- x) v;
      for e = n - 1 downto 1 do
        let p = parents.(e) in
        below.(p) <- below.(p) +. below.(e) +. own.(e)
      done;
      Array.iteri (fun p e -> acc.(p) <- below.(e)) into.ids
    end);
  acc

(* [bindings doc dom q]: for each element of [dom], the binding tuples
   of the subtwig rooted at [q] with [q] bound to that element. Without
   branches these are [dom]'s elements that satisfy [q]'s predicates;
   branches multiply pointwise, so the support narrows to the
   intersection of theirs before any predicate is tested. *)
let rec bindings doc dom q : vec =
  let v =
    match q.Twig_query.edges with
    | [] -> Array.make (Array.length dom.ids) 1.0
    | (expr, child) :: rest ->
      let v = pull doc dom expr child in
      List.iter
        (fun (expr, child) ->
          if Array.exists (fun x -> x <> 0.0) v then multiply v (pull doc dom expr child))
        rest;
      v
  in
  keep_if doc dom q.Twig_query.preds v;
  v

(* [pull doc into expr child]: for each element of [into], the bindings
   of [child] summed over the elements [expr] reaches from it. Each step
   is resolved over the summary on the way down, and pulled back on the
   way up. An empty expression binds the child to the same element. *)
and pull doc into expr child =
  match expr with
  | [] -> bindings doc into child
  | (step : Path_expr.step) :: rest ->
    let paths = reach doc (children_of doc into) step in
    if Array.length paths = 0 then Array.make (Array.length into.ids) 0.0
    else
      let from = domain doc paths in
      pull_step doc step.axis ~from (pull doc from rest child) ~into

(* The root variable q0 binds to the virtual document node, whose one
   child is the root element: a top-level [/db] step reaches the root
   element's path node, a top-level [//x] step every path node, and an
   empty top-level expression binds the root element. Predicates on q0
   itself never hold on the document node. *)
let selectivity doc query =
  let root = query.Twig_query.root in
  if root.Twig_query.preds <> [] then 0.0
  else
    List.fold_left
      (fun acc (expr, child) ->
        let count =
          match expr with
          | [] -> sum (bindings doc (domain doc [| 0 |]) child)
          | step :: rest ->
            let paths = reach doc [| 0 |] step in
            if Array.length paths = 0 then 0.0 else sum (pull doc (domain doc paths) rest child)
        in
        acc *. count)
      1.0 root.Twig_query.edges
