(* The dense exact evaluator, kept as the reference the indexed
   evaluator (Xc_twig.Twig_eval) is checked against bit for bit. For
   every query variable in postorder it computes a per-element array of
   binding-tuple counts and pulls it back through the edge's path
   expression in one O(n) pass per step (descendant steps exploit the
   preorder numbering: every child has a larger id than its parent), so
   a query costs O(|Q| * n). *)

open Xc_xml
open Xc_twig

(* Pull a per-element vector back through one step: result.(e) is the sum
   of [cur] over the elements reached from [e] by the step. *)
let pull_step doc step cur =
  let nodes = doc.Document.nodes in
  let n = Array.length nodes in
  let out = Array.make n 0.0 in
  (match step.Path_expr.axis with
  | Path_expr.Child ->
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      Array.iter
        (fun c ->
          if Path_expr.matches_test step.Path_expr.test c.Node.label then
            acc := !acc +. cur.(c.Node.id))
        nodes.(i).Node.children;
      out.(i) <- !acc
    done
  | Path_expr.Descendant ->
    (* children have strictly larger preorder ids, so a reverse scan sees
       every child's [out] before its parent's *)
    for i = n - 1 downto 0 do
      let acc = ref 0.0 in
      Array.iter
        (fun c ->
          let contribution =
            if Path_expr.matches_test step.Path_expr.test c.Node.label then
              cur.(c.Node.id)
            else 0.0
          in
          acc := !acc +. contribution +. out.(c.Node.id))
        nodes.(i).Node.children;
      out.(i) <- !acc
    done);
  out

let pull_expr doc expr arr = List.fold_right (fun step acc -> pull_step doc step acc) expr arr

(* The root variable q0 binds to the virtual *document node*, so a
   top-level [/db] step selects the root element and a top-level [//x]
   step ranges over every element including the root. *)
let docnode_pull doc expr bind =
  match expr with
  | [] -> bind.(0)
  | first :: rest ->
    let pulled = pull_expr doc rest bind in
    let root = doc.Document.root in
    (match first.Path_expr.axis with
    | Path_expr.Child ->
      if Path_expr.matches_test first.Path_expr.test root.Node.label then pulled.(0)
      else 0.0
    | Path_expr.Descendant ->
      let total = ref 0.0 in
      Array.iter
        (fun node ->
          if Path_expr.matches_test first.Path_expr.test node.Node.label then
            total := !total +. pulled.(node.Node.id))
        doc.Document.nodes;
      !total)

let selectivity doc query =
  let root = query.Twig_query.root in
  (* predicates on q0 itself never hold on the virtual document node *)
  if root.Twig_query.preds <> [] then 0.0
  else
    List.fold_left
      (fun acc (expr, child) ->
        let rec eval qnode =
          let pulled_children =
            List.map
              (fun (e, c) -> pull_expr doc e (eval c))
              qnode.Twig_query.edges
          in
          Array.init (Array.length doc.Document.nodes) (fun i ->
              let sat =
                List.for_all
                  (fun p -> Predicate.matches p doc.Document.nodes.(i).Node.value)
                  qnode.Twig_query.preds
              in
              if not sat then 0.0
              else List.fold_left (fun a arr -> a *. arr.(i)) 1.0 pulled_children)
        in
        acc *. docnode_pull doc expr (eval child))
      1.0 root.Twig_query.edges

(* does element [dst] lie in the result of evaluating [expr] from
   element [src]? O(n * steps) *)
let matches_path doc expr src dst =
  let n = Array.length doc.Document.nodes in
  let target = Array.make n 0.0 in
  target.(dst) <- 1.0;
  (pull_expr doc expr target).(src) > 0.0
