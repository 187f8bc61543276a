open Xc_xml

(* A sparse vector of binding counts: ascending element ids and the
   count at each. No count is 0, so the ids are the vector's support. *)
type vec = {
  ids : int array;
  vals : float array;
}

(* the first [k] entries of [ids] and [vals] *)
let prefix ids vals k =
  if k = Array.length ids then { ids; vals }
  else { ids = Array.sub ids 0 k; vals = Array.sub vals 0 k }

let sum v =
  let s = ref 0.0 in
  for j = 0 to Array.length v.vals - 1 do
    s := !s +. v.vals.(j)
  done;
  !s

(* The elements a query variable may bind to: those its incoming step's
   test admits, or the root element alone under an empty top-level
   expression. *)
type domain =
  | All  (* a wildcard: every element *)
  | Tagged of Label.t  (* the elements with one label *)
  | Root_elem

let domain_of_test = function
  | Path_expr.Tag l -> Tagged l
  | Path_expr.Wildcard -> All

(* every element of the domain, with count 1 *)
let ones doc = function
  | All ->
    let n = Document.n_elements doc in
    { ids = Array.init n Fun.id; vals = Array.make n 1.0 }
  | Tagged l ->
    let ids = Document.elements doc l in
    { ids; vals = Array.make (Array.length ids) 1.0 }
  | Root_elem -> { ids = [| 0 |]; vals = [| 1.0 |] }

let keep_if doc preds v =
  match preds with
  | [] -> v
  | _ :: _ ->
    let nodes = doc.Document.nodes in
    let n = Array.length v.ids in
    let ids = Array.make n 0 and vals = Array.make n 0.0 and k = ref 0 in
    for j = 0 to n - 1 do
      let e = v.ids.(j) in
      if List.for_all (fun p -> Predicate.matches p nodes.(e).Node.value) preds then begin
        ids.(!k) <- e;
        vals.(!k) <- v.vals.(j);
        incr k
      end
    done;
    prefix ids vals !k

(* pointwise product: the support is the intersection of the supports *)
let multiply a b =
  let n = min (Array.length a.ids) (Array.length b.ids) in
  let ids = Array.make n 0 and vals = Array.make n 0.0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < Array.length a.ids && !j < Array.length b.ids do
    let x = a.ids.(!i) and y = b.ids.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      ids.(!k) <- x;
      vals.(!k) <- a.vals.(!i) *. b.vals.(!j);
      incr k;
      incr i;
      incr j
    end
  done;
  prefix ids vals !k

(* Pull [v] back through one step into [dst]: the result holds, for each
   element of [dst], the sum of [v] over the elements the step reaches
   from it. A child step adds each count to the element's parent. A
   descendant step adds it to every ancestor, which costs at most
   [|v| * (height - 1)] additions; when that exceeds the document's
   size, one reverse preorder scan sums every subtree in O(n) instead.
   [slot] numbers the elements of [dst] (-1 for any other element) in
   the order of their ids, [id_of] inverts it. *)
let pull_step doc axis v dst =
  let parents = doc.Document.parents and nodes = doc.Document.nodes in
  let n = Document.n_elements doc in
  let slots, slot, id_of =
    match dst with
    | All -> (n, Fun.id, Fun.id)
    | Tagged l ->
      let ids = Document.elements doc l in
      ( Array.length ids,
        (fun a ->
          if a >= 0 && Label.equal nodes.(a).Node.label l then Document.rank doc a
          else -1),
        fun p -> ids.(p) )
    | Root_elem -> (1, (fun a -> if a = 0 then 0 else -1), fun _ -> 0)
  in
  let acc = Array.make slots 0.0 in
  let add a x =
    let p = slot a in
    if p >= 0 then acc.(p) <- acc.(p) +. x
  in
  (match axis with
  | Path_expr.Child ->
    for j = 0 to Array.length v.ids - 1 do
      add parents.(v.ids.(j)) v.vals.(j)
    done
  | Path_expr.Descendant when Array.length v.ids * (doc.Document.height - 1) <= n ->
    for j = 0 to Array.length v.ids - 1 do
      let a = ref parents.(v.ids.(j)) in
      while !a >= 0 do
        add !a v.vals.(j);
        a := parents.(!a)
      done
    done
  | Path_expr.Descendant ->
    (* children have larger ids than their parent, so a reverse scan
       completes each subtree's sum before it reaches the parent *)
    let below = Array.make n 0.0 and j = ref (Array.length v.ids - 1) in
    for e = n - 1 downto 1 do
      let own =
        if !j >= 0 && v.ids.(!j) = e then begin
          let x = v.vals.(!j) in
          decr j;
          x
        end
        else 0.0
      in
      let p = parents.(e) in
      below.(p) <- below.(p) +. below.(e) +. own
    done;
    for p = 0 to slots - 1 do
      acc.(p) <- below.(id_of p)
    done);
  let m = ref 0 in
  for p = 0 to slots - 1 do
    if acc.(p) <> 0.0 then incr m
  done;
  let ids = Array.make !m 0 and vals = Array.make !m 0.0 and k = ref 0 in
  for p = 0 to slots - 1 do
    if acc.(p) <> 0.0 then begin
      ids.(!k) <- id_of p;
      vals.(!k) <- acc.(p);
      incr k
    end
  done;
  { ids; vals }

(* [bindings doc dom q]: for each element of [dom], the binding tuples
   of the subtwig rooted at [q] with [q] bound to that element. Without
   branches these are [dom]'s elements that satisfy [q]'s predicates;
   branches multiply pointwise, so the support narrows to the
   intersection of theirs before any predicate is tested. *)
let rec bindings doc dom q =
  let v =
    match q.Twig_query.edges with
    | [] -> ones doc dom
    | (expr, child) :: rest ->
      List.fold_left
        (fun acc (expr, child) ->
          if Array.length acc.ids = 0 then acc else multiply acc (pull doc dom expr child))
        (pull doc dom expr child) rest
  in
  keep_if doc q.Twig_query.preds v

(* [pull doc dst expr child]: for each element of [dst], the bindings of
   [child] summed over the elements [expr] reaches from it. The child's
   bindings are computed only on the elements its last step's test
   admits, and each earlier step keeps only the elements its own test
   admits. An empty expression binds the child to the same element. *)
and pull doc dst expr child =
  match List.rev expr with
  | [] -> bindings doc dst child
  | last :: earlier ->
    let rec back v (step : Path_expr.step) = function
      | [] -> pull_step doc step.axis v dst
      | (prev : Path_expr.step) :: rest ->
        back (pull_step doc step.axis v (domain_of_test prev.test)) prev rest
    in
    back (bindings doc (domain_of_test last.Path_expr.test) child) last earlier

(* The root variable q0 binds to the virtual document node, so a
   top-level [/db] step selects the root element and a top-level [//x]
   step ranges over every element including the root; an empty top-level
   expression binds to the root element. Predicates on q0 itself never
   hold on the document node. *)
let selectivity doc query =
  let root = query.Twig_query.root in
  if root.Twig_query.preds <> [] then 0.0
  else
    List.fold_left
      (fun acc (expr, child) ->
        let count =
          match expr with
          | [] ->
            let v = bindings doc Root_elem child in
            if Array.length v.ids = 0 then 0.0 else v.vals.(0)
          | (first : Path_expr.step) :: rest -> (
            let v = pull doc (domain_of_test first.test) rest child in
            match first.axis with
            | Path_expr.Child ->
              if Array.length v.ids > 0 && v.ids.(0) = 0 then v.vals.(0) else 0.0
            | Path_expr.Descendant -> sum v)
        in
        acc *. count)
      1.0 root.Twig_query.edges
