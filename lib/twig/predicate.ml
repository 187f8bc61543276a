type t =
  | Range of int * int
  | Contains of string
  | Ft_contains of Xc_xml.Dictionary.term list
  | Ft_any of Xc_xml.Dictionary.term list
  | Ft_excludes of Xc_xml.Dictionary.term list

(* A plain scan: exact counts of contains queries call this once per
   string element, so it allocates nothing. *)
let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let found = ref (nl = 0) and i = ref 0 in
  while (not !found) && !i <= hl - nl do
    let j = ref 0 in
    while !j < nl && String.unsafe_get haystack (!i + !j) = String.unsafe_get needle !j do
      incr j
    done;
    if !j = nl then found := true else incr i
  done;
  !found

let matches pred value =
  match pred, value with
  | Range (l, h), Xc_xml.Value.Numeric n -> l <= n && n <= h
  | Contains qs, Xc_xml.Value.Str s -> contains_substring ~needle:qs s
  | Ft_contains terms, (Xc_xml.Value.Text _ as v) ->
    List.for_all (fun t -> Xc_xml.Value.text_contains v t) terms
  | Ft_any terms, (Xc_xml.Value.Text _ as v) ->
    List.exists (fun t -> Xc_xml.Value.text_contains v t) terms
  | Ft_excludes terms, (Xc_xml.Value.Text _ as v) ->
    not (List.exists (fun t -> Xc_xml.Value.text_contains v t) terms)
  | (Range _ | Contains _ | Ft_contains _ | Ft_any _ | Ft_excludes _), _ -> false

let vtype = function
  | Range _ -> Xc_xml.Value.Tnumeric
  | Contains _ -> Xc_xml.Value.Tstring
  | Ft_contains _ | Ft_any _ | Ft_excludes _ -> Xc_xml.Value.Ttext

let equal a b =
  match a, b with
  | Range (l1, h1), Range (l2, h2) -> l1 = l2 && h1 = h2
  | Contains x, Contains y -> String.equal x y
  | Ft_contains x, Ft_contains y | Ft_any x, Ft_any y | Ft_excludes x, Ft_excludes y
    ->
    List.length x = List.length y && List.for_all2 Xc_xml.Dictionary.equal x y
  | (Range _ | Contains _ | Ft_contains _ | Ft_any _ | Ft_excludes _), _ -> false

let pp_terms ppf terms =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
    Xc_xml.Dictionary.pp ppf terms

(* A needle prints bare when the parser reads it back unchanged: no edge
   whitespace (a bare needle is trimmed), no ')' (it ends a bare
   needle) and no leading '"' (it opens a quoted one). Any other needle
   prints quoted, with '"' and '\\' escaped by a backslash. *)
let pp_needle ppf s =
  if String.trim s = s && (not (String.contains s ')')) && not (String.starts_with ~prefix:"\"" s)
  then Format.pp_print_string ppf s
  else begin
    Format.pp_print_char ppf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Format.pp_print_char ppf '\\';
        Format.pp_print_char ppf c)
      s;
    Format.pp_print_char ppf '"'
  end

let pp ppf = function
  | Range (l, h) -> Format.fprintf ppf "in %d..%d" l h
  | Contains qs -> Format.fprintf ppf "contains(%a)" pp_needle qs
  | Ft_contains terms ->
    Format.fprintf ppf "ftcontains(%a)" pp_terms terms
  | Ft_any terms -> Format.fprintf ppf "ftany(%a)" pp_terms terms
  | Ft_excludes terms -> Format.fprintf ppf "ftexcludes(%a)" pp_terms terms
