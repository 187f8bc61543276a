open Xc_xml
module Rng = Xc_util.Rng

type entry = {
  query : Twig_query.t;
  true_count : float;
  cls : Twig_query.query_class;
}

type spec = {
  n_queries : int;
  seed : int;
  p_descendant : float;
  p_wildcard : float;
  p_branch : float;
  numeric_halfwidth : float;
  substring_len : int * int;
  max_terms : int;
  value_paths : Label.t list list option;
      (* when set, value predicates only target elements on these label
         paths — mirroring the paper's designated summary paths *)
}

let default_spec =
  { n_queries = 400;
    seed = 42;
    p_descendant = 0.5;
    p_wildcard = 0.15;
    p_branch = 0.4;
    numeric_halfwidth = 0.08;
    substring_len = (2, 4);
    max_terms = 2;
    value_paths = None }

(* ---- document index ------------------------------------------------ *)

type index = {
  parents : int array;
  by_type : (Value.vtype, int array) Hashtbl.t; (* node ids per value type *)
  non_root : int array;                         (* all node ids except the root *)
  label_span : (Label.t, int * int) Hashtbl.t;  (* numeric min/max per label *)
}

let build_index ?value_paths doc =
  let nodes = doc.Document.nodes in
  let parents = doc.Document.parents in
  let designated = Document.designated doc value_paths in
  let path_of = doc.Document.summary.path_of in
  let by_type_lists : (Value.vtype, int list ref) Hashtbl.t = Hashtbl.create 4 in
  let label_span = Hashtbl.create 16 in
  Array.iteri
    (fun i node ->
      let vt = Value.vtype node.Node.value in
      (if (not (Value.vtype_equal vt Value.Tnull)) && designated.(path_of.(i)) then begin
         let l =
           match Hashtbl.find_opt by_type_lists vt with
           | Some l -> l
           | None ->
             let l = ref [] in
             Hashtbl.add by_type_lists vt l;
             l
         in
         l := i :: !l
       end);
      match node.Node.value with
      | Value.Numeric v ->
        let lo, hi =
          Option.value ~default:(v, v) (Hashtbl.find_opt label_span node.Node.label)
        in
        Hashtbl.replace label_span node.Node.label (min lo v, max hi v)
      | Value.Null | Value.Str _ | Value.Text _ -> ())
    nodes;
  let by_type = Hashtbl.create 4 in
  Hashtbl.iter (fun vt l -> Hashtbl.add by_type vt (Array.of_list !l)) by_type_lists;
  { parents;
    by_type;
    non_root = Array.init (Array.length nodes - 1) (fun i -> i + 1);
    label_span }

(* full path from the root element down to the target, inclusive: the
   query root q0 binds to the virtual document node, so the first step
   names the root element *)
let spine_of idx target =
  let rec up i acc = if i < 0 then acc else up idx.parents.(i) (i :: acc) in
  up target []

(* ---- query skeleton ------------------------------------------------- *)

type skel_step = {
  mutable step : Path_expr.step;
  mutable removed : bool;
  mutable preds : Predicate.t list;
  mutable branch : Path_expr.t option;
  elem : int; (* document node id this step corresponds to *)
}

let skeleton doc idx rng spec target =
  let nodes = doc.Document.nodes in
  let spine = spine_of idx target in
  let steps =
    List.map
      (fun id ->
        { step = { Path_expr.axis = Path_expr.Child; test = Path_expr.Tag nodes.(id).Node.label };
          removed = false;
          preds = [];
          branch = None;
          elem = id })
      spine
  in
  let arr = Array.of_list steps in
  let k = Array.length arr in
  (* collapse a random segment into a descendant step *)
  if k >= 2 && Rng.chance rng spec.p_descendant then begin
    let j = Rng.int rng k in
    let i = Rng.int rng (j + 1) in
    for x = i to j - 1 do
      arr.(x).removed <- true
    done;
    arr.(j).step <- { arr.(j).step with Path_expr.axis = Path_expr.Descendant }
  end;
  (* wildcard some interior child steps *)
  for x = 0 to k - 2 do
    let s = arr.(x) in
    if (not s.removed) && s.step.Path_expr.axis = Path_expr.Child
       && Rng.chance rng spec.p_wildcard
    then s.step <- { s.step with Path_expr.test = Path_expr.Wildcard }
  done;
  arr

(* random existential branch below the document element of a step *)
let attach_branch doc rng spec arr =
  let nodes = doc.Document.nodes in
  let k = Array.length arr in
  if k >= 2 && Rng.chance rng spec.p_branch then begin
    (* anchor in the deeper half of the spine: a branch near the root
       multiplies binding tuples by the whole collection's population,
       which swamps the workload with astronomically large results *)
    let live =
      Array.to_list arr
      |> List.filteri (fun i s -> (not s.removed) && i < k - 1 && i >= (k - 1) / 2)
    in
    match live with
    | [] -> ()
    | _ ->
      let anchor = Rng.pick_list rng live in
      let start = nodes.(anchor.elem) in
      let rec walk node depth acc =
        if Array.length node.Node.children = 0 || (depth > 0 && Rng.chance rng 0.5) then
          List.rev acc
        else begin
          let child = Rng.pick rng node.Node.children in
          walk child (depth + 1) (child.Node.label :: acc)
        end
      in
      let labels = walk start 0 [] in
      (match labels with
      | [] -> ()
      | first :: rest ->
        let expr =
          if Rng.chance rng 0.5 && rest = [] then
            [ { Path_expr.axis = Path_expr.Descendant; test = Path_expr.Tag first } ]
          else
            List.map
              (fun l -> { Path_expr.axis = Path_expr.Child; test = Path_expr.Tag l })
              (first :: rest)
        in
        anchor.branch <- Some expr)
  end

(* value predicate derived from the element's own value: satisfied by
   construction, hence positive selectivity *)
let make_predicate rng spec idx doc target =
  let node = doc.Document.nodes.(target) in
  match node.Node.value with
  | Value.Numeric v ->
    let lo, hi =
      Option.value ~default:(v, v) (Hashtbl.find_opt idx.label_span node.Node.label)
    in
    let span = max 1 (hi - lo) in
    let hw = max 1 (int_of_float (spec.numeric_halfwidth *. float_of_int span)) in
    let a = v - Rng.int rng (hw + 1) and b = v + Rng.int rng (hw + 1) in
    Some (Predicate.Range (a, b))
  | Value.Str s ->
    let len = String.length s in
    if len = 0 then None
    else begin
      let min_l, max_l = spec.substring_len in
      let l = min len (Rng.int_range rng min_l max_l) in
      let start = Rng.int rng (len - l + 1) in
      Some (Predicate.Contains (String.sub s start l))
    end
  | Value.Text terms ->
    if Array.length terms = 0 then None
    else begin
      let n_terms = min (Array.length terms) (1 + Rng.int rng spec.max_terms) in
      let picked = Array.to_list (Array.init n_terms (fun _ -> Rng.pick rng terms)) in
      Some (Predicate.Ft_contains (List.sort_uniq Dictionary.compare picked))
    end
  | Value.Null -> None

(* fold the skeleton into a twig query (variables at steps that carry
   predicates or branches, and at the last step) *)
let to_query arr =
  let steps = Array.to_list arr |> List.filter (fun s -> not s.removed) in
  let rec to_edges = function
    | [] -> []
    | steps ->
      let rec take acc = function
        | [] -> assert false
        | s :: rest ->
          let acc = s.step :: acc in
          if s.preds <> [] || s.branch <> None || rest = [] then (List.rev acc, s, rest)
          else take acc rest
      in
      let expr, stop, rest = take [] steps in
      let branch_edges =
        match stop.branch with
        | None -> []
        | Some bexpr -> [ (bexpr, Twig_query.node ()) ]
      in
      [ (expr, Twig_query.node ~preds:stop.preds ~edges:(branch_edges @ to_edges rest) ()) ]
  in
  Twig_query.make ([], to_edges steps)

let pick_target idx rng cls =
  let pool =
    match cls with
    | Twig_query.Cstruct -> Some idx.non_root
    | Twig_query.Cnumeric -> Hashtbl.find_opt idx.by_type Value.Tnumeric
    | Twig_query.Cstring -> Hashtbl.find_opt idx.by_type Value.Tstring
    | Twig_query.Ctext -> Hashtbl.find_opt idx.by_type Value.Ttext
    | Twig_query.Cmixed -> None
  in
  match pool with
  | Some arr when Array.length arr > 0 -> Some (Rng.pick rng arr)
  | Some _ | None -> None

let generate ?(spec = default_spec) doc =
  let idx = build_index ?value_paths:spec.value_paths doc in
  let rng = Rng.create spec.seed in
  let classes = [ Twig_query.Cstruct; Cnumeric; Cstring; Ctext ] in
  let per_class = max 1 (spec.n_queries / List.length classes) in
  let out = ref [] in
  List.iter
    (fun cls ->
      let made = ref 0 and attempts = ref 0 in
      while !made < per_class && !attempts < per_class * 20 do
        incr attempts;
        match pick_target idx rng cls with
        | None -> attempts := per_class * 20 (* class unsupported by this document *)
        | Some target ->
          let arr = skeleton doc idx rng spec target in
          attach_branch doc rng spec arr;
          (match cls with
          | Twig_query.Cstruct -> ()
          | _ -> (
            match make_predicate rng spec idx doc target with
            | Some p -> arr.(Array.length arr - 1).preds <- [ p ]
            | None -> ()));
          let query = to_query arr in
          let actual_cls = Twig_query.classify query in
          (* a value query whose predicate could not be built degrades to
             a structural query; only keep it under its requested class *)
          if actual_cls = cls then begin
            let true_count = Twig_eval.selectivity doc query in
            if true_count > 0.0 then begin
              out := { query; true_count; cls } :: !out;
              incr made
            end
          end
      done)
    classes;
  List.rev !out

let negative ?(n = 100) ?(seed = 4242) ?value_paths doc =
  let idx = build_index ?value_paths doc in
  let spec = { default_spec with seed; value_paths } in
  let rng = Rng.create seed in
  let out = ref [] and attempts = ref 0 in
  while List.length !out < n && !attempts < n * 50 do
    incr attempts;
    let cls =
      Rng.pick_list rng [ Twig_query.Cstruct; Cnumeric; Cstring; Ctext ]
    in
    match pick_target idx rng cls with
    | None -> ()
    | Some target ->
      let arr = skeleton doc idx rng spec target in
      let node = doc.Document.nodes.(target) in
      let sabotage =
        match cls, node.Node.value with
        | Twig_query.Cnumeric, Value.Numeric _ ->
          let _, hi =
            Option.value ~default:(0, 0) (Hashtbl.find_opt idx.label_span node.Node.label)
          in
          Some (Predicate.Range (hi + 17, hi + 29))
        | Twig_query.Cstring, Value.Str _ -> Some (Predicate.Contains "@#qzj")
        | Twig_query.Ctext, Value.Text _ ->
          Some (Predicate.Ft_contains [ Dictionary.of_string "zzabsentterm" ])
        | Twig_query.Cstruct, _ ->
          (* a structural negative: demand a child that leaf elements
             never have *)
          None
        | _, (Value.Null | Value.Numeric _ | Value.Str _ | Value.Text _) -> None
      in
      let ok =
        match sabotage with
        | Some p ->
          arr.(Array.length arr - 1).preds <- [ p ];
          true
        | None ->
          if cls = Twig_query.Cstruct && Array.length node.Node.children = 0 then begin
            arr.(Array.length arr - 1).branch <-
              Some [ { Path_expr.axis = Path_expr.Child;
                       test = Path_expr.Tag (Label.of_string "nonexistent_tag") } ];
            true
          end
          else false
      in
      if ok then begin
        let query = to_query arr in
        let true_count = Twig_eval.selectivity doc query in
        if true_count = 0.0 then
          out := { query; true_count; cls } :: !out
      end
  done;
  List.rev !out

let sanity_bound entries =
  match entries with
  | [] -> 1.0
  | _ ->
    let counts = List.map (fun e -> e.true_count) entries |> Array.of_list in
    Array.sort Float.compare counts;
    let i = int_of_float (0.1 *. float_of_int (Array.length counts - 1)) in
    Float.max 1.0 counts.(i)

let classes entries =
  List.filter
    (fun c -> List.exists (fun e -> e.cls = c) entries)
    [ Twig_query.Cstruct; Cnumeric; Cstring; Ctext; Cmixed ]
