module Plan = Xc_core.Plan
module Sealed = Xc_core.Synopsis.Sealed
module Metrics = Xc_util.Metrics

type synopsis = Sealed.t
type query = Xc_twig.Twig_query.t

let max_cached = 64

(* One plan cache / batch engine per synopsis, keyed by its
   process-unique uid (a sealed synopsis never mutates, so a cache
   stays valid for the synopsis's whole lifetime). *)
let caches : (int, Plan.Cache.t) Hashtbl.t = Hashtbl.create 16
let batch_engines : (int, Plan.Batch.t) Hashtbl.t = Hashtbl.create 16

let table_find tbl create syn =
  let uid = Sealed.uid syn in
  match Hashtbl.find_opt tbl uid with
  | Some v -> v
  | None ->
    if Hashtbl.length tbl >= max_cached then Hashtbl.reset tbl;
    let v = create syn in
    Hashtbl.add tbl uid v;
    v

let cache_for syn = table_find caches Plan.Cache.create syn
let batch_for syn = table_find batch_engines Plan.Batch.create syn

let drop syn =
  let uid = Sealed.uid syn in
  Hashtbl.remove caches uid;
  Hashtbl.remove batch_engines uid

let estimate_uncached = Xc_core.Estimate.selectivity

(* Serving never raises on a per-synopsis failure: if the compiled
   pipeline trips over a synopsis (decoded from a damaged store in a
   way validation does not model), the estimate falls back to the
   direct uncached path and the event is counted — the degraded answer
   is bit-identical, only slower. *)
let estimate syn q =
  match
    let c = cache_for syn in
    Plan.Cache.estimate_result c q
  with
  | Ok v -> v
  | Error _ | (exception _) ->
    Metrics.incr Metrics.global "serve.fallback";
    estimate_uncached syn q

(* A degraded answer still has to touch the synopsis: if the fallback
   itself trips — a lazily loaded synopsis whose deferred section
   verification fails (Codec.Lazy_failure) at this very access — there
   is no answer to give, so serving reports Unavailable instead of
   letting the exception escape the result-typed API. *)
let degrade_result syn q =
  Metrics.incr Metrics.global "serve.fallback";
  match estimate_uncached syn q with
  | v -> Ok v
  | exception exn -> Error (Error.Unavailable (Printexc.to_string exn))

let estimate_result ?(options = Options.default) syn q =
  match
    let c = cache_for syn in
    Plan.Cache.estimate_result c q
  with
  | Ok v -> Ok v
  | Error msg | (exception Failure msg) -> (
    match options.Options.fallback with
    | Options.Degrade -> degrade_result syn q
    | Options.Strict -> Error (Error.Unavailable msg))
  | exception exn -> (
    match options.Options.fallback with
    | Options.Degrade -> degrade_result syn q
    | Options.Strict -> Error (Error.Unavailable (Printexc.to_string exn)))

(* Same containment for the batched fallback: [estimate]'s own
   fallback re-raises on a synopsis that cannot be read at all. *)
let degrade_batch syn queries =
  Metrics.incr Metrics.global "serve.batch_fallback";
  match Array.map (fun q -> estimate syn q) queries with
  | r -> Ok r
  | exception exn -> Error (Error.Unavailable (Printexc.to_string exn))

let query_error i msg = Error (Error.Query (Printf.sprintf "query %d: %s" i msg))

let parse_texts texts =
  let n = Array.length texts in
  let rec go i acc =
    if i = n then Ok (Array.of_list (List.rev acc))
    else
      match Xc_twig.Twig_parse.parse_result texts.(i) with
      | Ok q -> go (i + 1) (q :: acc)
      | Error msg -> query_error i msg
  in
  go 0 []

(* The policy arms both batched entry points share. [parsed] yields the
   batch's queries: for a text batch that is a parse, paid only here on
   failure, and a bad text still wins over the engine failure. *)
let batch_fallback options syn parsed msg =
  match parsed () with
  | Error _ as e -> e
  | Ok queries -> (
    match options.Options.fallback with
    | Options.Degrade -> degrade_batch syn queries
    | Options.Strict -> Error (Error.Unavailable msg))

let run_prepared options engine prepared =
  let cohort = options.Options.cohort in
  match options.Options.domains with
  | Some d -> Plan.Batch.run_prepared ~domains:d ~cohort engine prepared
  | None -> Plan.Batch.run_prepared ~cohort engine prepared

(* any exception out of the batch engine is counted and degrades *)
let engine_failed options syn parsed exn =
  Metrics.incr Metrics.global "batch.error";
  batch_fallback options syn parsed (Printexc.to_string exn)

let estimate_texts_with ?(options = Options.default) engine syn texts =
  match
    match Plan.Batch.prepare_texts engine texts with
    | Error (i, msg) -> query_error i msg
    | Ok prepared -> Ok (run_prepared options engine prepared)
  with
  | r -> r
  | exception exn -> engine_failed options syn (fun () -> parse_texts texts) exn

let estimate_batch ?(options = Options.default) syn queries =
  let parsed () = Ok queries in
  match batch_for syn with
  | exception exn -> batch_fallback options syn parsed (Printexc.to_string exn)
  | engine -> (
    match run_prepared options engine (Plan.Batch.prepare engine queries) with
    | r -> Ok r
    | exception exn -> engine_failed options syn parsed exn)

let estimate_batch_exn ?options syn queries =
  match estimate_batch ?options syn queries with
  | Ok r -> r
  | Error e -> failwith (Error.to_string e)
