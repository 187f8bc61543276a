exception Parse_error of string

type ast_step = {
  s : Path_expr.step;
  mutable spreds : Predicate.t list;
  mutable branches : ast_step list list;
}

type state = {
  src : string;
  mutable pos : int;
}

let fail st msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))
let eof st = st.pos >= String.length st.src
let peek st = st.src.[st.pos]

let skip_spaces st =
  while (not (eof st)) && (peek st = ' ' || peek st = '\t' || peek st = '\n') do
    st.pos <- st.pos + 1
  done

(* [s] matches [src] at [pos + i ..], from [i] on; the caller checks the
   bounds *)
let rec matches_from src pos s i =
  i = String.length s
  || (String.unsafe_get src (pos + i) = String.unsafe_get s i && matches_from src pos s (i + 1))

(* compared in place: this runs for every token probe, so it must not
   allocate a substring (or a closure) per call *)
let looking_at st s =
  st.pos + String.length s <= String.length st.src && matches_from st.src st.pos s 0

let eat st s = if looking_at st s then (st.pos <- st.pos + String.length s; true) else false

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let read_name st =
  skip_spaces st;
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.src start (st.pos - start)

let read_int st =
  skip_spaces st;
  let start = st.pos in
  if (not (eof st)) && peek st = '-' then st.pos <- st.pos + 1;
  while (not (eof st)) && peek st >= '0' && peek st <= '9' do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected an integer";
  int_of_string (String.sub st.src start (st.pos - start))

let read_until st c =
  match String.index_from_opt st.src st.pos c with
  | None -> fail st (Printf.sprintf "expected '%c'" c)
  | Some i ->
    let s = String.sub st.src st.pos (i - st.pos) in
    st.pos <- i + 1;
    s

(* A quoted contains needle, the cursor on its opening '"': a backslash
   takes the next byte literally. *)
let read_quoted st =
  let buf = Buffer.create 16 in
  st.pos <- st.pos + 1;
  let rec go () =
    if eof st then fail st "unterminated string"
    else
      match peek st with
      | '"' -> st.pos <- st.pos + 1
      | '\\' when st.pos + 1 < String.length st.src ->
        Buffer.add_char buf st.src.[st.pos + 1];
        st.pos <- st.pos + 2;
        go ()
      | c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

(* Consume a keyword only when followed by a non-name character, so that
   tags like "incategory" or "containsfoo" are not mistaken for it. *)
let eat_kw st kw =
  let n = String.length kw in
  if looking_at st kw
     && (st.pos + n >= String.length st.src || not (is_name_char st.src.[st.pos + n]))
  then begin
    st.pos <- st.pos + n;
    true
  end
  else false

let ft_terms st kw =
  skip_spaces st;
  if not (eat st "(") then fail st (Printf.sprintf "expected '(' after %s" kw);
  let body = read_until st ')' in
  let words =
    body
    |> String.split_on_char ','
    |> List.map String.trim
    |> List.filter (fun w -> String.length w > 0)
  in
  if words = [] then fail st (kw ^ " needs at least one term");
  List.map Xc_xml.Dictionary.of_string words

(* A value predicate, or None if the cursor is not at one. *)
let try_valuepred st =
  skip_spaces st;
  if eat_kw st "contains" then begin
    skip_spaces st;
    if not (eat st "(") then fail st "expected '(' after contains";
    skip_spaces st;
    (* a bare needle is trimmed; a quoted one is taken as written *)
    if (not (eof st)) && peek st = '"' then begin
      let needle = read_quoted st in
      skip_spaces st;
      if not (eat st ")") then fail st "expected ')' after a quoted needle";
      Some (Predicate.Contains needle)
    end
    else Some (Predicate.Contains (String.trim (read_until st ')')))
  end
  else if eat_kw st "ftcontains" then
    Some (Predicate.Ft_contains (ft_terms st "ftcontains"))
  else if eat_kw st "ftany" then Some (Predicate.Ft_any (ft_terms st "ftany"))
  else if eat_kw st "ftexcludes" then
    Some (Predicate.Ft_excludes (ft_terms st "ftexcludes"))
  else if eat_kw st "in" then begin
    let l = read_int st in
    skip_spaces st;
    if not (eat st "..") then fail st "expected '..' in range";
    let h = read_int st in
    Some (Predicate.Range (l, h))
  end
  else if eat st ">=" then Some (Predicate.Range (read_int st, max_int))
  else if eat st "<=" then Some (Predicate.Range (min_int, read_int st))
  else if eat st ">" then Some (Predicate.Range (read_int st + 1, max_int))
  else if eat st "<" then Some (Predicate.Range (min_int, read_int st - 1))
  else if eat st "=" then begin
    let v = read_int st in
    Some (Predicate.Range (v, v))
  end
  else None

let parse_nametest st =
  skip_spaces st;
  if eat st "*" then Path_expr.Wildcard
  else if eat st "@" then
    (* attribute-derived elements are labelled @name (Parser `Elements) *)
    Path_expr.Tag (Xc_xml.Label.of_string ("@" ^ read_name st))
  else Path_expr.Tag (Xc_xml.Label.of_string (read_name st))

let rec parse_relpath ~allow_bare st =
  (* allow_bare: a leading NAME (no slash) is sugar for /NAME, used in
     predicate branches like [year > 2000] *)
  let steps = ref [] in
  let parse_step axis =
    let test = parse_nametest st in
    let step = { s = { Path_expr.axis; test }; spreds = []; branches = [] } in
    parse_preds st step;
    steps := step :: !steps
  in
  skip_spaces st;
  (if allow_bare && (not (eof st)) && (peek st <> '/') then parse_step Path_expr.Child
   else if eat st "//" then parse_step Path_expr.Descendant
   else if eat st "/" then parse_step Path_expr.Child
   else fail st "expected a path step");
  let rec more () =
    skip_spaces st;
    if eat st "//" then begin
      parse_step Path_expr.Descendant;
      more ()
    end
    else if looking_at st "/" && not (looking_at st "//") then begin
      ignore (eat st "/");
      parse_step Path_expr.Child;
      more ()
    end
  in
  more ();
  List.rev !steps

and parse_preds st step =
  skip_spaces st;
  if eat st "[" then begin
    skip_spaces st;
    (* self predicates may be written with an optional leading '.' *)
    if eat st "." then skip_spaces st;
    (match try_valuepred st with
    | Some p -> step.spreds <- step.spreds @ [ p ]
    | None ->
      let branch = parse_relpath ~allow_bare:true st in
      (match try_valuepred st with
      | Some p -> (
        match List.rev branch with
        | last :: _ -> last.spreds <- last.spreds @ [ p ]
        | [] -> assert false)
      | None -> ());
      step.branches <- step.branches @ [ branch ]);
    skip_spaces st;
    if not (eat st "]") then fail st "expected ']'";
    parse_preds st step
  end

let rec to_edges steps =
  match steps with
  | [] -> []
  | _ :: _ ->
    let rec take acc = function
      | [] -> assert false
      | st :: rest ->
        let acc = st.s :: acc in
        if st.spreds <> [] || st.branches <> [] || rest = [] then (List.rev acc, st, rest)
        else take acc rest
    in
    let expr, stop, rest = take [] steps in
    let branch_edges = List.concat_map to_edges stop.branches in
    let continuation = to_edges rest in
    [ (expr, Twig_query.node ~preds:stop.spreds ~edges:(branch_edges @ continuation) ()) ]

let parse src =
  let st = { src; pos = 0 } in
  skip_spaces st;
  let steps = parse_relpath ~allow_bare:false st in
  skip_spaces st;
  if not (eof st) then fail st "trailing input";
  Twig_query.make ([], to_edges steps)

let parse_result src =
  match parse src with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
  | exception _ -> Error "unparsable"
