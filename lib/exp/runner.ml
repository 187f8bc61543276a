open Xc_twig
module Synopsis = Xc_core.Synopsis

type dataset = {
  name : string;
  doc : Xc_xml.Document.t;
  reference : Synopsis.Builder.t;
  workload : Workload.entry list;
  sanity : float;
  value_paths : Xc_xml.Label.t list list;
  min_extent : int;
  value_min_extent : int;
}

(* All experiment scoring goes through the compiled pipeline: the
   synopsis's one batch engine, so the thousands of workload estimates
   behind each figure share compiled queries and transition rows.
   Estimates are bit-identical to Estimate.selectivity (see Plan). *)
let estimator = Xc_serve.Engine.estimate

(* The positive workload as a query array, in workload order — the
   shape Plan.Batch serves (and the serve bench shards). *)
let workload_queries ds =
  Array.of_list (List.map (fun e -> e.Workload.query) ds.workload)

type dataset_cfg = {
  cfg_value_paths : Xc_xml.Label.t list list;
  cfg_min_extent : int;
  cfg_value_min_extent : int;
}

let path tags = List.map Xc_xml.Label.of_string tags

(* The paper designates summary paths ("at least one path for each
   different type of values, for a total of 7 paths for IMDB and 9 for
   XMark"); these are our equivalents. *)
let imdb_cfg =
  { cfg_min_extent = 4;
    cfg_value_min_extent = 400;
    cfg_value_paths =
      [ path [ "imdb"; "movie"; "title" ];
        path [ "imdb"; "movie"; "year" ];
        path [ "imdb"; "movie"; "genre" ];
        path [ "imdb"; "movie"; "plot" ];
        path [ "imdb"; "movie"; "cast"; "actor"; "name" ];
        path [ "imdb"; "movie"; "cast"; "actor"; "year" ];
        path [ "imdb"; "movie"; "director"; "name" ] ] }

let xmark_cfg =
  let regions = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ] in
  { cfg_min_extent = 6;
    cfg_value_min_extent = 300;
    cfg_value_paths =
      List.map (fun r -> path [ "site"; "regions"; r; "item"; "location" ]) regions
      @ List.map (fun r -> path [ "site"; "regions"; r; "item"; "quantity" ]) regions
      @ List.map
          (fun r -> path [ "site"; "regions"; r; "item"; "description"; "text" ])
          regions
      @ [ path [ "site"; "people"; "person"; "name" ];
          path [ "site"; "people"; "person"; "profile"; "age" ];
          path [ "site"; "open_auctions"; "open_auction"; "initial" ];
          path [ "site"; "open_auctions"; "open_auction"; "annotation" ];
          path [ "site"; "closed_auctions"; "closed_auction"; "price" ];
          path [ "site"; "closed_auctions"; "closed_auction"; "annotation" ] ] }

let make_dataset name cfg doc n_queries =
  let reference =
    Xc_core.Reference.build ~min_extent:cfg.cfg_min_extent
      ~value_min_extent:cfg.cfg_value_min_extent ~value_paths:cfg.cfg_value_paths doc
  in
  let spec =
    { Workload.default_spec with n_queries; value_paths = Some cfg.cfg_value_paths }
  in
  let workload = Workload.generate ~spec doc in
  { name; doc; reference; workload;
    sanity = Workload.sanity_bound workload;
    value_paths = cfg.cfg_value_paths;
    min_extent = cfg.cfg_min_extent;
    value_min_extent = cfg.cfg_value_min_extent }

let imdb ?(scale = 1.0) ?(n_queries = 400) () =
  let n_movies = max 20 (int_of_float (scale *. 8000.0)) in
  make_dataset "IMDB" imdb_cfg (Xc_data.Imdb.generate ~n_movies ()) n_queries

let xmark ?(scale = 1.0) ?(n_queries = 400) () =
  make_dataset "XMark" xmark_cfg (Xc_data.Xmark.generate ~scale ()) n_queries

let dblp_cfg =
  { cfg_min_extent = 6;
    cfg_value_min_extent = 250;
    cfg_value_paths =
      [ path [ "dblp"; "author"; "name" ];
        path [ "dblp"; "author"; "paper"; "year" ];
        path [ "dblp"; "author"; "paper"; "title" ];
        path [ "dblp"; "author"; "paper"; "abstract" ];
        path [ "dblp"; "author"; "paper"; "keywords" ];
        path [ "dblp"; "author"; "book"; "year" ];
        path [ "dblp"; "author"; "book"; "publisher" ] ] }

let dblp ?(scale = 1.0) ?(n_queries = 400) () =
  let n_authors = max 20 (int_of_float (scale *. 4000.0)) in
  make_dataset "DBLP" dblp_cfg (Xc_data.Dblp.generate ~n_authors ()) n_queries

(* ---- Table 1 / Table 2 ---------------------------------------------- *)

type table1_row = {
  ds : string;
  file_mb : float;
  n_elements : int;
  ref_kb : float;
  value_nodes : int;
  total_nodes : int;
}

let table1 ds =
  let bytes = Xc_xml.Writer.serialized_size ds.doc in
  let ref_bytes =
    Synopsis.Builder.structural_bytes ds.reference
    + Synopsis.Builder.value_bytes ds.reference
  in
  { ds = ds.name;
    file_mb = float_of_int bytes /. (1024.0 *. 1024.0);
    n_elements = Xc_xml.Document.n_elements ds.doc;
    ref_kb = float_of_int ref_bytes /. 1024.0;
    value_nodes = Synopsis.Builder.n_value_nodes ds.reference;
    total_nodes = Synopsis.Builder.n_nodes ds.reference }

type table2_row = {
  ds2 : string;
  avg_struct : float;
  avg_pred : float;
}

let table2 ds =
  let struct_counts, pred_counts =
    List.partition_map
      (fun e ->
        if e.Workload.cls = Twig_query.Cstruct then Left e.Workload.true_count
        else Right e.Workload.true_count)
      ds.workload
  in
  { ds2 = ds.name;
    avg_struct = Error_metric.mean struct_counts;
    avg_pred = Error_metric.mean pred_counts }

(* ---- Figure 8: error vs structural budget ---------------------------- *)

type sweep_point = {
  bstr_kb : int;
  total_kb : int;
  overall_err : float;
  class_errs : (Twig_query.query_class * float) list;
}

let default_budgets = [ 0; 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ]

let measure ds bstr_kb bval_kb syn =
  let scored = Error_metric.score (estimator syn) ds.workload in
  { bstr_kb;
    total_kb = bstr_kb + bval_kb;
    overall_err = Error_metric.overall_relative ~sanity:ds.sanity scored;
    class_errs = Error_metric.per_class_relative ~sanity:ds.sanity scored }

let fig8 ?(budgets_kb = default_budgets) ?(bval_kb = 150) ds =
  let snapshots =
    Xc_core.Build.sweep_at (Xc_core.Build.budget ~bval_kb ()) ~bstr_kbs:budgets_kb ds.reference
  in
  List.map (fun (kb, syn) -> measure ds kb bval_kb syn) snapshots

(* ---- Figure 9: low-count absolute error ------------------------------ *)

let build_at ds ~bstr_kb ~bval_kb =
  Xc_core.Build.run (Xc_core.Build.budget ~bstr_kb ~bval_kb ()) ds.reference

let fig9 ?(bstr_kb = 50) ?(bval_kb = 150) ds =
  let syn = build_at ds ~bstr_kb ~bval_kb in
  let scored = Error_metric.score (estimator syn) ds.workload in
  Error_metric.low_count_absolute ~sanity:ds.sanity scored

(* ---- negative workloads ---------------------------------------------- *)

let negative_check ?(bstr_kb = 20) ?(bval_kb = 150) ?(n = 100) ds =
  let syn = build_at ds ~bstr_kb ~bval_kb in
  let negatives = Workload.negative ~n ~value_paths:ds.value_paths ds.doc in
  let est = estimator syn in
  Error_metric.mean (List.map (fun e -> est e.Workload.query) negatives)

(* ---- ablations -------------------------------------------------------- *)

let structural_error ds syn =
  let scored =
    Error_metric.score (estimator syn)
      (List.filter (fun e -> e.Workload.cls = Twig_query.Cstruct) ds.workload)
  in
  Error_metric.overall_relative ~sanity:ds.sanity scored

let ablation_delta ?(budgets_kb = [ 5; 10; 20; 40 ]) ?(bval_kb = 150) ds =
  let with_pool structural_only =
    let pool = { Xc_core.Pool.default_config with structural_only } in
    Xc_core.Build.sweep_at (Xc_core.Build.budget ~pool ~bval_kb ()) ~bstr_kbs:budgets_kb
      ds.reference
  in
  let full = with_pool false and struct_only = with_pool true in
  List.map2
    (fun (kb, syn_full) (_, syn_struct) ->
      (kb, structural_error ds syn_full, structural_error ds syn_struct))
    full struct_only

let text_error ds syn =
  let scored =
    Error_metric.score (estimator syn)
      (List.filter (fun e -> e.Workload.cls = Twig_query.Ctext) ds.workload)
  in
  Error_metric.overall_relative ~sanity:ds.sanity scored

let ablation_text ?(top_ks = [ 64; 256; 1024; 4096 ]) ds =
  let run top_terms =
    let detail = { Xc_core.Reference.default_detail with top_terms } in
    let reference =
      Xc_core.Reference.build ~detail ~min_extent:ds.min_extent
        ~value_min_extent:ds.value_min_extent ~value_paths:ds.value_paths ds.doc
    in
    let syn =
      Xc_core.Build.run (Xc_core.Build.budget ~bstr_kb:20 ~bval_kb:150 ()) reference
    in
    text_error ds syn
  in
  let naive = run 0 in
  List.map (fun k -> (k, run k, naive)) top_ks

let ablation_numeric ?(budget_bytes = 256) ?(n_queries = 300) ds =
  (* collect every numeric value on designated paths *)
  let values = ref [] in
  Array.iter
    (fun node ->
      match node.Xc_xml.Node.value with
      | Xc_xml.Value.Numeric v -> values := v :: !values
      | _ -> ())
    ds.doc.Xc_xml.Document.nodes;
  let values = Array.of_list !values in
  if Array.length values = 0 then []
  else begin
    let vlo = Array.fold_left min values.(0) values in
    let vhi = Array.fold_left max values.(0) values in
    let rng = Xc_util.Rng.create 77 in
    let queries =
      List.init n_queries (fun _ ->
          let a = Xc_util.Rng.int_range rng vlo vhi in
          let b = Xc_util.Rng.int_range rng vlo vhi in
          (min a b, max a b))
    in
    let truth (l, h) =
      let c = Array.fold_left (fun acc v -> if l <= v && v <= h then acc + 1 else acc) 0 values in
      float_of_int c /. float_of_int (Array.length values)
    in
    let score estimate =
      Error_metric.mean
        (List.map
           (fun q ->
             let t = truth q in
             Float.abs (t -. estimate q) /. Float.max t 0.01)
           queries)
    in
    let n_buckets = budget_bytes / 8 in
    let hist_eqd = Xc_vsumm.Histogram.build ~n_buckets values in
    let hist_eqw = Xc_vsumm.Histogram.build_equiwidth ~n_buckets values in
    let hist_md = Xc_vsumm.Histogram.build_maxdiff ~n_buckets values in
    let wave = Xc_vsumm.Wavelet.build ~n_coeffs:n_buckets values in
    [ ("equi-depth", score (fun (l, h) -> Xc_vsumm.Histogram.range_fraction hist_eqd l h));
      ("equi-width", score (fun (l, h) -> Xc_vsumm.Histogram.range_fraction hist_eqw l h));
      ("maxdiff", score (fun (l, h) -> Xc_vsumm.Histogram.range_fraction hist_md l h));
      ("wavelet", score (fun (l, h) -> Xc_vsumm.Wavelet.range_fraction wave l h)) ]
  end

let auto_split_demo ?(total_kb = 200) ds =
  let sample syn =
    Error_metric.overall_relative ~sanity:ds.sanity
      (Error_metric.score (estimator syn) ds.workload)
  in
  let ratios = [ 0.0; 0.05; 0.1; 0.2; 0.33; 0.5 ] in
  let rows =
    List.map
      (fun ratio ->
        let bstr_kb = int_of_float (Float.round (ratio *. float_of_int total_kb)) in
        let bval_kb = total_kb - bstr_kb in
        let syn =
          Xc_core.Build.run (Xc_core.Build.budget ~bstr_kb ~bval_kb ()) ds.reference
        in
        (bstr_kb, bval_kb, sample syn))
      ratios
  in
  rows
