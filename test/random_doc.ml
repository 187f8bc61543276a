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
