type node = {
  qid : int;
  preds : Predicate.t list;
  edges : (Path_expr.t * node) list;
}

type t = {
  root : node;
  n_nodes : int;
}

type query_class =
  | Cstruct
  | Cnumeric
  | Cstring
  | Ctext
  | Cmixed

let node ?(preds = []) ?(edges = []) () = { qid = -1; preds; edges }

let make (preds, edges) =
  let next = ref 0 in
  let rec renumber n =
    let qid = !next in
    incr next;
    { n with qid; edges = List.map (fun (e, c) -> (e, renumber c)) n.edges }
  in
  let root = renumber { qid = -1; preds; edges } in
  { root; n_nodes = !next }

let linear ?(preds = []) expr = make ([], [ (expr, node ~preds ()) ])

let iter_nodes f t =
  let rec walk n =
    f n;
    List.iter (fun (_, c) -> walk c) n.edges
  in
  walk t.root

let n_predicates t =
  let count = ref 0 in
  iter_nodes (fun n -> count := !count + List.length n.preds) t;
  !count

let classify t =
  let has_num = ref false and has_str = ref false and has_text = ref false in
  iter_nodes
    (fun n ->
      List.iter
        (fun p ->
          match Predicate.vtype p with
          | Xc_xml.Value.Tnumeric -> has_num := true
          | Xc_xml.Value.Tstring -> has_str := true
          | Xc_xml.Value.Ttext -> has_text := true
          | Xc_xml.Value.Tnull -> ())
        n.preds)
    t;
  match !has_num, !has_str, !has_text with
  | false, false, false -> Cstruct
  | true, false, false -> Cnumeric
  | false, true, false -> Cstring
  | false, false, true -> Ctext
  | _ -> Cmixed

let class_name = function
  | Cstruct -> "Struct"
  | Cnumeric -> "Numeric"
  | Cstring -> "String"
  | Ctext -> "Text"
  | Cmixed -> "Mixed"

let pp ppf t =
  let rec pp_node ~top ppf n =
    List.iter (fun p -> Format.fprintf ppf "[. %a]" Predicate.pp p) n.preds;
    let last = List.length n.edges - 1 in
    (* Every edge but the last prints as a bracketed branch, and the last
       one continues the path — unless it is the only edge of an inner
       node without predicates: Twig_parse would read a continuation
       there as more steps of the incoming edge's expression. *)
    List.iteri
      (fun i (expr, child) ->
        if i < last || ((not top) && n.preds = [] && last = 0) then
          Format.fprintf ppf "[%a%a]" Path_expr.pp expr (pp_node ~top:false) child
        else Format.fprintf ppf "%a%a" Path_expr.pp expr (pp_node ~top:false) child)
      n.edges
  in
  Format.fprintf ppf "@[<h>%a@]" (pp_node ~top:true) t.root
