type test =
  | Tag of Xc_xml.Label.t
  | Wildcard

type axis =
  | Child
  | Descendant

type step = {
  axis : axis;
  test : test;
}

type t = step list

let child tag = { axis = Child; test = Tag (Xc_xml.Label.of_string tag) }
let desc tag = { axis = Descendant; test = Tag (Xc_xml.Label.of_string tag) }

let length = List.length

let matches_test test label =
  match test with
  | Wildcard -> true
  | Tag l -> Xc_xml.Label.equal l label

let test_equal a b =
  match a, b with
  | Wildcard, Wildcard -> true
  | Tag x, Tag y -> Xc_xml.Label.equal x y
  | (Wildcard | Tag _), _ -> false

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun s1 s2 -> s1.axis = s2.axis && test_equal s1.test s2.test) a b

(* every step folds in (the polymorphic hash stops after a few list
   cells), and the fold is mixed once at the end *)
let hash steps =
  Hashtbl.hash
    (List.fold_left
       (fun h step ->
         let tag = match step.test with Wildcard -> 0 | Tag l -> 1 + (l :> int) in
         (31 * h) + (2 * tag) + match step.axis with Child -> 0 | Descendant -> 1)
       0 steps)

let pp ppf steps =
  List.iter
    (fun step ->
      Format.pp_print_string ppf (match step.axis with Child -> "/" | Descendant -> "//");
      match step.test with
      | Wildcard -> Format.pp_print_char ppf '*'
      | Tag l -> Xc_xml.Label.pp ppf l)
    steps
