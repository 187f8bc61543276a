module Plan = Xc_core.Plan
module Sealed = Xc_core.Synopsis.Sealed
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters

type synopsis = Sealed.t
type query = Xc_twig.Twig_query.t

let max_cached = 64

(* One batch engine per synopsis, keyed by its process-unique uid (a
   sealed synopsis never mutates, so an engine stays valid for the
   synopsis's whole lifetime). *)
let batch_engines : (int, Plan.Batch.t) Hashtbl.t = Hashtbl.create 16

let batch_for syn =
  let uid = Sealed.uid syn in
  match Hashtbl.find_opt batch_engines uid with
  | Some v -> v
  | None ->
    if Hashtbl.length batch_engines >= max_cached then Hashtbl.reset batch_engines;
    let v = Plan.Batch.create syn in
    Hashtbl.add batch_engines uid v;
    v

(* kept only so the benchmark compiles; ROADMAP item 2's benchmark PR
   deletes it *)
let cache_for = batch_for

let estimate_uncached = Xc_core.Estimate.selectivity

(* The one degradation rung. A fast path that failed with [msg]
   either answers from the oracle ([Degrade], counted under [counter])
   or reports Unavailable ([Strict]). The oracle is
   Estimate.selectivity itself, never another cached path, so a
   degraded answer cannot re-enter a fast path or bump a second
   counter. The oracle still has to touch the synopsis: if it trips
   too — a lazily loaded synopsis whose deferred section verification
   fails (Codec.Lazy_failure) at this very access — there is no answer
   to give, so serving reports Unavailable instead of letting the
   exception escape the result-typed API. *)
let degrade options ~counter msg oracle =
  match options.Options.fallback with
  | Options.Strict -> Error (Error.Unavailable msg)
  | Options.Degrade -> (
    Metrics.incr counter;
    match oracle () with
    | v -> Ok v
    | exception exn -> Error (Error.Unavailable (Printexc.to_string exn)))

let query_error i msg = Error (Error.Query (Printf.sprintf "query %d: %s" i msg))

let parse_texts texts =
  let n = Xc_util.Slices.length texts in
  let rec go i acc =
    if i = n then Ok (Array.of_list (List.rev acc))
    else
      match Xc_twig.Twig_parse.parse_result (Xc_util.Slices.to_string texts i) with
      | Ok q -> go (i + 1) (q :: acc)
      | Error msg -> query_error i msg
  in
  go 0 []

let run_prepared options engine prepared =
  Plan.Batch.run_prepared ?domains:options.Options.domains engine prepared

(* A single query is a one-query batch on the synopsis's engine; a
   failure is counted as a batch failure and degrades this one query. *)
let estimate_result ?(options = Options.default) syn q =
  let engine = batch_for syn in
  match run_prepared options engine (Plan.Batch.prepare_one engine q) with
  | r -> Ok r.(0)
  | exception exn ->
    Metrics.incr Meters.Batch.error;
    degrade options ~counter:Meters.Serve.fallback (Printexc.to_string exn) (fun () ->
        estimate_uncached syn q)

let estimate syn q =
  match estimate_result syn q with
  | Ok v -> v
  | Error e -> failwith (Error.to_string e)

(* Any exception out of the batch engine is counted and degrades the
   whole batch at once. [parsed] yields the batch's queries: for a text
   batch that is a parse, paid only here on failure, so a bad text
   still wins over the engine failure. *)
let batch_failed options syn parsed exn =
  Metrics.incr Meters.Batch.error;
  match parsed () with
  | Error _ as e -> e
  | Ok queries ->
    degrade options ~counter:Meters.Serve.batch_fallback (Printexc.to_string exn) (fun () ->
        Array.map (estimate_uncached syn) queries)

let estimate_texts_with ?(options = Options.default) ~into engine syn texts =
  let n = Xc_util.Slices.length texts in
  (* checked here as well as in [run_into]: past this point the handler
     below would turn a short buffer into a failed, degraded batch *)
  if Array.length into < n then invalid_arg "Engine.estimate_texts_with: answer buffer too short";
  match
    match Plan.Batch.prepare_texts engine texts with
    | Error (i, msg) -> query_error i msg
    | Ok prepared -> Ok (Plan.Batch.run_into ?domains:options.Options.domains engine prepared into)
  with
  | r -> r
  | exception exn -> (
    match batch_failed options syn (fun () -> parse_texts texts) exn with
    | Ok answers ->
      Array.blit answers 0 into 0 n;
      Ok ()
    | Error _ as e -> e)

let estimate_batch ?(options = Options.default) syn queries =
  let engine = batch_for syn in
  match run_prepared options engine (Plan.Batch.prepare engine queries) with
  | r -> Ok r
  | exception exn -> batch_failed options syn (fun () -> Ok queries) exn

let estimate_batch_exn ?options syn queries =
  match estimate_batch ?options syn queries with
  | Ok r -> r
  | Error e -> failwith (Error.to_string e)
