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

let of_steps = function
  | [] -> invalid_arg "Path_expr.of_steps: empty expression"
  | steps -> steps

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

(* ---- interning --------------------------------------------------------
   Hash-consing of whole expressions into dense int ids. Serving-side
   tables (Plan.Batch's matrix registry) key on the id, so the per-
   estimate hot path never hashes a step list structurally — the one
   structural hash happens here, once per distinct expression. The
   table is global and append-only like Label's: ids are stable for the
   lifetime of the process. Guarded by a mutex so compile phases running
   in different domains cannot tear the table; lookups from the
   estimation hot loops never come here. *)

type id = int

let intern_mutex = Mutex.create ()
let intern_ids : (t, int) Hashtbl.t = Hashtbl.create 64
let intern_exprs : t array ref = ref (Array.make 64 [])
let intern_count = ref 0

let intern expr =
  Mutex.lock intern_mutex;
  let id =
    match Hashtbl.find_opt intern_ids expr with
    | Some id -> id
    | None ->
      let id = !intern_count in
      let cap = Array.length !intern_exprs in
      if id = cap then begin
        let grown = Array.make (2 * cap) [] in
        Array.blit !intern_exprs 0 grown 0 cap;
        intern_exprs := grown
      end;
      !intern_exprs.(id) <- expr;
      Hashtbl.add intern_ids expr id;
      incr intern_count;
      id
  in
  Mutex.unlock intern_mutex;
  id

let of_id id =
  Mutex.lock intern_mutex;
  let r =
    if id >= 0 && id < !intern_count then Some !intern_exprs.(id) else None
  in
  Mutex.unlock intern_mutex;
  match r with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Path_expr.of_id: unknown id %d" id)

let interned_count () =
  Mutex.lock intern_mutex;
  let n = !intern_count in
  Mutex.unlock intern_mutex;
  n

let pp ppf steps =
  List.iter
    (fun step ->
      Format.pp_print_string ppf (match step.axis with Child -> "/" | Descendant -> "//");
      match step.test with
      | Wildcard -> Format.pp_print_char ppf '*'
      | Tag l -> Xc_xml.Label.pp ppf l)
    steps
