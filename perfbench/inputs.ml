(* Seeded inputs: documents, query pools, wire text, Zipf streams and the
   auction update stream. Everything here is a function of the benchmark
   seed; the daemon only ever sees the artifacts and query text built
   from it. *)

module Label = Xc_xml.Label
module Workload = Xc_twig.Workload
module Twig_query = Xc_twig.Twig_query

(* Independent sub-seeds of the one benchmark seed, one per consumer. *)
let derive seed tag = ((seed * 0x9E3779B1) + (tag * 0x85EBCA6B)) land 0x3FFFFFFF

type kind = Xmark | Imdb

let kind_name = function Xmark -> "xmark" | Imdb -> "imdb"

(* The designated value-path configuration of Xc_exp.Runner (whose
   dataset constructors take no seed), mirrored so the documents can be
   drawn from the benchmark seed. *)
type config = {
  value_paths : Label.t list list;
  min_extent : int;
  value_min_extent : int;
}

let path tags = List.map Label.of_string tags

let config = function
  | Imdb ->
    {
      min_extent = 4;
      value_min_extent = 400;
      value_paths =
        [
          path [ "imdb"; "movie"; "title" ];
          path [ "imdb"; "movie"; "year" ];
          path [ "imdb"; "movie"; "genre" ];
          path [ "imdb"; "movie"; "plot" ];
          path [ "imdb"; "movie"; "cast"; "actor"; "name" ];
          path [ "imdb"; "movie"; "cast"; "actor"; "year" ];
          path [ "imdb"; "movie"; "director"; "name" ];
        ];
    }
  | Xmark ->
    let regions = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ] in
    let per_region leaf = List.map (fun r -> path ([ "site"; "regions"; r; "item" ] @ leaf)) regions in
    {
      min_extent = 6;
      value_min_extent = 300;
      value_paths =
        per_region [ "location" ] @ per_region [ "quantity" ]
        @ per_region [ "description"; "text" ]
        @ [
            path [ "site"; "people"; "person"; "name" ];
            path [ "site"; "people"; "person"; "profile"; "age" ];
            path [ "site"; "open_auctions"; "open_auction"; "initial" ];
            path [ "site"; "open_auctions"; "open_auction"; "annotation" ];
            path [ "site"; "closed_auctions"; "closed_auction"; "price" ];
            path [ "site"; "closed_auctions"; "closed_auction"; "annotation" ];
          ];
    }

(* [scale] 1.0 is the paper's ~200k-element document, as in Runner. *)
let document kind ~seed ~scale =
  let seed = derive seed 1 in
  match kind with
  | Xmark -> Xc_data.Xmark.generate ~seed ~scale ()
  | Imdb -> Xc_data.Imdb.generate ~seed ~n_movies:(max 20 (int_of_float (scale *. 8000.0))) ()

let reference kind doc =
  let c = config kind in
  Xc_core.Reference.build ~min_extent:c.min_extent ~value_min_extent:c.value_min_extent
    ~value_paths:c.value_paths doc

(* The positive workload with its exact counts (Twig_eval). *)
let workload kind ~seed ~n_queries doc =
  let spec =
    {
      Workload.default_spec with
      n_queries;
      seed = derive seed 2;
      value_paths = Some (config kind).value_paths;
    }
  in
  Array.of_list (Workload.generate ~spec doc)

(* ---- wire text --------------------------------------------------------- *)

(* The one renderer from a generated query to the source text a client
   sends: Twig_query.pp prints a leading "." for the root variable that
   Twig_parse's grammar does not accept. *)
let wire_text q =
  let s = Format.asprintf "%a" Twig_query.pp q in
  if String.length s > 0 && s.[0] = '.' then String.sub s 1 (String.length s - 1) else s

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Render every query and re-parse it. A query is sent only if its
   re-parsed form estimates bit-identically to the generated one on
   [syn]; the others are reported, not sent (Twig_query.pp and
   Twig_parse do not yet round-trip every predicate). Returns the
   surviving pool indices, their texts, the re-parsed queries (the ones
   the daemon will see) and their estimates on [syn], and the rejected
   texts. *)
let render syn queries =
  let kept = ref [] and rejected = ref [] in
  Array.iteri
    (fun i q ->
      let text = wire_text q in
      match Xc_twig.Twig_parse.parse text with
      | q' ->
        let est = Xc_core.Estimate.selectivity syn q' in
        if same_float (Xc_core.Estimate.selectivity syn q) est then kept := (i, text, q', est) :: !kept
        else rejected := text :: !rejected
      | exception Xc_twig.Twig_parse.Parse_error _ -> rejected := text :: !rejected)
    queries;
  let kept = Array.of_list (List.rev !kept) in
  ( Array.map (fun (i, _, _, _) -> i) kept,
    Array.map (fun (_, t, _, _) -> t) kept,
    Array.map (fun (_, _, q, _) -> q) kept,
    Array.map (fun (_, _, _, e) -> e) kept,
    List.rev !rejected )

(* ---- Zipf streams ------------------------------------------------------ *)

(* A skewed stream over a pool of [n] queries: rank k is drawn with
   probability ∝ 1/sqrt(k+1), and ranks map to pool slots through a
   seeded permutation that is re-drawn every [epoch] draws. Popularity
   thus shifts over a run, so a run's traffic averages many hot sets
   instead of resting on the cost of the few queries one permutation
   happens to make hot. *)
type zipf = { z : Xc_util.Zipf.t; rng : Xc_util.Rng.t; perm : int array; mutable left : int }

let epoch = 1024

let zipf ~seed n =
  {
    z = Xc_util.Zipf.create ~n ~skew:0.5;
    rng = Xc_util.Rng.create (derive seed 3);
    perm = Array.init n Fun.id;
    left = 0;
  }

let draw z =
  if z.left = 0 then begin
    Xc_util.Rng.shuffle z.rng z.perm;
    z.left <- epoch
  end;
  z.left <- z.left - 1;
  z.perm.(Xc_util.Zipf.sample z.z z.rng)

(* ---- auction update stream --------------------------------------------- *)

(* [generations] mutation batches of [events] auction events each (half
   opens, half closes), cut from one Xmark.update_stream so every batch
   mixes inserts and deletes. *)
let update_batches ~seed ~generations ~events doc =
  let half = events / 2 in
  let stream =
    Xc_data.Xmark.update_stream ~seed:(derive seed 4) ~n_open:(generations * half)
      ~n_close:(generations * (events - half)) doc
  in
  let opens = List.filter (function Xc_data.Xmark.Open _ -> true | _ -> false) stream in
  let closes = List.filter (function Xc_data.Xmark.Close _ -> true | _ -> false) stream in
  let site = Label.of_string "site" in
  let open_l = Label.of_string "open_auctions" and closed_l = Label.of_string "closed_auctions" in
  let to_mutations = function
    | Xc_data.Xmark.Open subtree -> [ Xcluster.Build.Insert { parent = [ site; open_l ]; subtree } ]
    | Xc_data.Xmark.Close { opened; closed } ->
      [
        Xcluster.Build.Delete { parent = [ site; open_l ]; subtree = opened };
        Xcluster.Build.Insert { parent = [ site; closed_l ]; subtree = closed };
      ]
  in
  let take k from l = List.filteri (fun i _ -> i >= from && i < from + k) l in
  List.init generations (fun g ->
      List.concat_map to_mutations
        (take half (g * half) opens @ take (events - half) (g * (events - half)) closes))
