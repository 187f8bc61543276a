(* Small random documents over the tags a, b, c, d below a root r, for
   generated tests. With [~values:true] every element also carries a
   random value from small domains (numbers 0..9, short strings over
   "abc", texts over the terms x, y, z), so range, substring and keyword
   predicates all match some elements and miss others. *)

open Xc_xml
module Rng = Xc_util.Rng

let tags = [| "a"; "b"; "c"; "d" |]
let strings = [| "ab"; "ba"; "abc"; "cab"; "c" |]
let terms = [| "x"; "y"; "z" |]

let value rng =
  match Rng.int rng 4 with
  | 0 -> Value.Null
  | 1 -> Value.Numeric (Rng.int rng 10)
  | 2 -> Value.Str (Rng.pick rng strings)
  | _ ->
    Value.text_of_terms
      (List.filter (fun _ -> Rng.bool rng) (Array.to_list terms)
      |> List.map Dictionary.of_string)

let generate ?(values = false) rng =
  let rec gen depth =
    let n = if depth >= 3 then 0 else Rng.int rng 4 in
    let children = List.init n (fun _ -> gen (depth + 1)) in
    let tag = Rng.pick rng tags in
    let value = if values then value rng else Value.Null in
    Node.make tag ~value ~children
  in
  let root_value = if values then value rng else Value.Null in
  Document.create (Node.make "r" ~value:root_value ~children:(List.init 3 (fun _ -> gen 0)))

(* A random twig over these tags (plus r and a tag no element
   carries): child and descendant steps, wildcards, branches, empty edge
   expressions, and predicates of every kind, on the root too. *)
let twig rng =
  let open Xc_twig in
  let tag () =
    if Rng.chance rng 0.1 then Rng.pick rng [| "r"; "e" |] else Rng.pick rng tags
  in
  let term () = Dictionary.of_string (Rng.pick rng terms) in
  let terms () = List.init (1 + Rng.int rng 2) (fun _ -> term ()) in
  let pred () : Predicate.t =
    match Rng.int rng 5 with
    | 0 ->
      let lo = Rng.int rng 10 in
      Range (lo, lo + Rng.int rng 6)
    | 1 -> Contains (Rng.pick rng [| "a"; "b"; "ab"; "ca"; "" |])
    | 2 -> Ft_contains (terms ())
    | 3 -> Ft_any (terms ())
    | _ -> Ft_excludes (terms ())
  in
  let preds () =
    if Rng.chance rng 0.75 then []
    else List.init (if Rng.chance rng 0.2 then 2 else 1) (fun _ -> pred ())
  in
  let step p_desc =
    { Path_expr.axis = (if Rng.chance rng p_desc then Path_expr.Descendant else Path_expr.Child);
      test =
        (if Rng.chance rng 0.2 then Path_expr.Wildcard
         else Path_expr.Tag (Label.of_string (tag ()))) }
  in
  (* a top-level child step must name the root r to match anything, so
     top-level expressions mostly start with a descendant step *)
  let expr ~top =
    if Rng.chance rng 0.1 then []
    else
      List.init (if Rng.chance rng 0.3 then 2 else 1) (fun i ->
          step (if top && i = 0 then 0.8 else 0.6))
  in
  let rec node depth =
    let n_edges = if depth >= 2 then 0 else Rng.int rng 3 in
    let edges = List.init n_edges (fun _ -> (expr ~top:false, node (depth + 1))) in
    Twig_query.node ~preds:(preds ()) ~edges ()
  in
  let root_preds = if Rng.chance rng 0.05 then [ pred () ] else [] in
  let edges =
    List.init (if Rng.chance rng 0.3 then 2 else 1) (fun _ -> (expr ~top:true, node 1))
  in
  Twig_query.make (root_preds, edges)
