(* The daemon workloads: batch-hot and point-skew.

   Each workload is one closed-loop caller on its own connection, run on
   the main systhread; this process never spawns a domain. The daemon is
   `xcluster serve` in a process of its own (Server). Every served float
   is checked bit for bit against Estimate.selectivity on the synopsis
   generation that served it. *)

module Client = Xc_serve.Client
module Protocol = Xc_serve.Protocol
module Registry = Xc_serve.Registry
module Options = Xc_serve.Options
module Plan = Xc_core.Plan
module Builder = Xc_core.Synopsis.Builder
module Metrics = Xc_util.Metrics
module Error_metric = Xc_exp.Error_metric
module M = Measure

type ctx = { seed : int; seconds : float; trace : bool; xcluster : string; dir : string }

type outcome = {
  attempted : int;
  failed : int;
  mismatched : int;
  metrics : M.metric list;  (** end-to-end, or per-layer when traced *)
  also : M.metric list;  (** ungated figures printed beside the untraced metrics *)
  info : string list;  (** extra human-readable lines *)
}

(* A failed or mismatched request counts as a latency miss: it is
   recorded as taking the whole measured window. *)
let miss ctx = ctx.seconds

let same_answers got want idx =
  Array.length got = Array.length idx
  && (let ok = ref true in
      Array.iteri (fun i q -> if not (Inputs.same_float got.(i) want.(q)) then ok := false) idx;
      !ok)

let all_indices n = Array.init n Fun.id

(* ---- set-up ------------------------------------------------------------ *)

type spec = {
  kind : Inputs.kind;
  scale : float;
  n_queries : int;
  generations : int;  (** update generations built after the initial artifact *)
  events : int;  (** auction events per generation *)
}

type setup = {
  server : Server.t;
  name : string;  (** the synopsis name the daemon serves *)
  texts : string array;  (** wire text of the query pool *)
  oracle : float array array;  (** [oracle.(g).(i)]: Estimate.selectivity on generation g *)
  paths : string array;  (** artifact of each generation; 0 is the initial one *)
  est_error : float;  (** the paper's error metric of generation 0 on the pool *)
  phases : (string * float) list;  (** seconds per set-up phase, in order *)
  layers : (string * float) list;  (** construction-side per-layer figures *)
  update_ms : float array;  (** per generation: apply + repair + seal + save *)
  rejected : string list;  (** generated queries whose wire text does not round-trip *)
}

(* The serving budget of the repository's daemon benchmarks. *)
let budget = Xcluster.Build.budget ~bstr_kb:20 ~bval_kb:150 ()

let delta_counter before name = float_of_int (Metrics.counter_value Metrics.global name - before name)

let timer_total name =
  let s = Metrics.snapshot Metrics.global in
  match List.assoc_opt name s.Metrics.timers with Some t -> t.Metrics.t_total | None -> 0.0

let save path syn =
  match Xcluster.Store.save path syn with
  | Ok () -> ()
  | Error e -> failwith ("save: " ^ Xc_core.Codec.error_to_string e)

let load path =
  match Xcluster.Store.load path with
  | Ok s -> s
  | Error e -> failwith ("load: " ^ Xc_core.Codec.error_to_string e)

(* One complete set-up: document, exact workload, reference and
   synopsis, artifacts, daemon start and [warm]. Returns the set-up and
   its wall time. *)
let setup_once ctx spec ~rep ~warm =
  let dir = Filename.concat ctx.dir (Printf.sprintf "rep%d" rep) in
  Unix.mkdir dir 0o755;
  let phases = ref [] and cals = M.samples () in
  let phase name f =
    M.push cals (M.calibrate ());
    let r, dt = M.time f in
    phases := (name, dt) :: !phases;
    r
  in
  let t0 = M.now () in
  let doc = phase "document" (fun () -> Inputs.document spec.kind ~seed:ctx.seed ~scale:spec.scale) in
  let reference = phase "reference" (fun () -> Inputs.reference spec.kind doc) in
  let entries =
    phase "workload" (fun () -> Inputs.workload spec.kind ~seed:ctx.seed ~n_queries:spec.n_queries doc)
  in
  let counters = [ "pool.cand_evals"; "pool.rescored"; "update.repair_widened"; "update.compress_widened" ] in
  let before = List.map (fun n -> (n, Metrics.counter_value Metrics.global n)) counters in
  let before n = List.assoc n before in
  let p1 = timer_total "build.phase1" and p2 = timer_total "build.phase2" in
  let live = phase "build" (fun () -> Xcluster.Build.compress_builder budget reference) in
  let phase1 = timer_total "build.phase1" -. p1 and phase2 = timer_total "build.phase2" -. p2 in
  let pool_evals = delta_counter before "pool.cand_evals" in
  let pool_rescored = delta_counter before "pool.rescored" in
  let gen0 = phase "seal" (fun () -> Xcluster.Build.seal live) in
  let path0 = Filename.concat dir "g0.syn" in
  phase "save" (fun () -> save path0 gen0);
  let loaded = phase "load" (fun () -> load path0) in
  let queries0 = Array.map (fun e -> e.Xc_twig.Workload.query) entries in
  let kept, texts, queries, oracle0, rejected = phase "render" (fun () -> Inputs.render loaded queries0) in
  let entries = Array.map (fun i -> entries.(i)) kept in
  (* the update stream's generations, in their own timed phase *)
  let apply_us = M.samples () and freeze_us = M.samples () and update_ms = M.samples () in
  let dirty = ref 0 and merges = ref 0 in
  let generations =
    if spec.generations = 0 then []
    else
      let batches =
        phase "update-stream" (fun () ->
            Inputs.update_batches ~seed:ctx.seed ~generations:spec.generations ~events:spec.events doc)
      in
      phase "generations" (fun () ->
          List.mapi
            (fun g muts ->
              let path = Filename.concat dir (Printf.sprintf "g%d.syn" (g + 1)) in
              let t0 = M.now () in
              let stats, applied =
                M.time (fun () ->
                    match Xcluster.Build.update ~budget live muts with
                    | Ok s -> s
                    | Error e -> failwith ("update rejected: " ^ e))
              in
              let sealed, sealed_s = M.time (fun () -> Xcluster.Build.seal live) in
              save path sealed;
              M.push update_ms (1000.0 *. (M.now () -. t0));
              M.push apply_us (1e6 *. applied);
              M.push freeze_us (1e6 *. sealed_s);
              dirty := !dirty + stats.Xcluster.Build.dirty;
              merges := !merges + stats.Xcluster.Build.repair_merges;
              let syn = load path in
              (path, Array.map (Xc_core.Estimate.selectivity syn) queries))
            batches)
  in
  let widened = delta_counter before "update.repair_widened" +. delta_counter before "update.compress_widened" in
  let name = Inputs.kind_name spec.kind in
  let server = phase "daemon-start" (fun () -> Server.start ~xcluster:ctx.xcluster ~dir [ (name, path0) ]) in
  let partial =
    {
      server;
      name;
      texts;
      oracle = Array.of_list (oracle0 :: List.map snd generations);
      paths = Array.of_list (path0 :: List.map fst generations);
      est_error = 0.0;
      phases = [];
      layers = [];
      update_ms = M.to_array update_ms;
      rejected;
    }
  in
  let cold = phase "warm-up" (fun () -> warm partial) in
  let cals = M.to_array cals in
  let wall = M.now () -. t0 -. Array.fold_left ( +. ) 0.0 cals in
  let sanity = Xc_twig.Workload.sanity_bound (Array.to_list entries) in
  let est_error =
    Error_metric.overall_relative ~sanity
      (List.mapi (fun i e -> { Error_metric.entry = e; est = oracle0.(i) }) (Array.to_list entries))
  in
  let score_s =
    snd (M.time (fun () -> Error_metric.score (Xc_exp.Runner.estimator loaded) (Array.to_list entries)))
  in
  let ng = float_of_int (max 1 spec.generations) in
  let layers =
    [
      ("workload.generate_s", List.assoc "workload" !phases);
      ("reference.build_s", List.assoc "reference" !phases);
      ("reference.nodes", float_of_int (Builder.n_nodes reference));
      ("build.phase1_s", phase1);
      ("build.phase2_s", phase2);
      ("pool.evals", pool_evals);
      ("pool.rescored", pool_rescored);
      ("codec.save_us", 1e6 *. List.assoc "save" !phases);
      ("codec.bytes", float_of_int (Unix.stat path0).Unix.st_size);
      ("codec.load_us", 1e6 *. List.assoc "load" !phases);
      ("error_metric.score_s", score_s);
      ("update.apply_us", if M.count apply_us = 0 then 0.0 else M.median (M.to_array apply_us));
      ("update.dirty", float_of_int !dirty /. ng);
      ("update.repair_merges", float_of_int !merges /. ng);
      ("update.widened", widened);
      ("synopsis.freeze_us", if M.count freeze_us = 0 then 0.0 else M.median (M.to_array freeze_us));
      ("twig_parse.roundtrip_rejected", float_of_int (List.length rejected));
    ]
  in
  ({ partial with est_error; phases = List.rev !phases; layers }, (wall, M.median cals), cold)

(* Set up [reps] times (the last set-up is kept, its daemon serving);
   returns it with the median wall time scaled to the reference host
   speed, every set-up's cold latency, and the unscaled median wall time
   and calibration time. *)
let setup ctx spec ~reps ~warm =
  let runs =
    List.init reps (fun rep ->
        let s, wall, cold = setup_once ctx spec ~rep ~warm in
        if rep < reps - 1 then Server.stop s.server;
        (s, wall, cold))
  in
  let last, _, _ = List.nth runs (reps - 1) in
  let median f = M.median (Array.of_list (List.map f runs)) in
  ( last,
    median (fun (_, (wall, cal), _) -> wall *. M.reference_s /. cal),
    Array.of_list (List.map (fun (_, _, c) -> c) runs),
    reps,
    (median (fun (_, (wall, _), _) -> wall), median (fun (_, (_, cal), _) -> cal)) )

(* ---- shared reporting -------------------------------------------------- *)

let phases_line s =
  "set-up phases (last set-up, s): "
  ^ String.concat "  " (List.map (fun (name, dt) -> Printf.sprintf "%s %.3f" name dt) s.phases)

let setup_line (wall, cal) =
  Printf.sprintf "set-up wall time (median, unscaled): %.3f s; calibration %.4f ms" wall (1000.0 *. cal)

let pool_line s =
  Printf.sprintf "pool: %d queries sent; %d generated queries not sent, their wire text does not round-trip%s"
    (Array.length s.texts) (List.length s.rejected)
    (match s.rejected with [] -> "" | t :: _ -> Printf.sprintf " (e.g. %S)" t)

(* ---- traced replay ------------------------------------------------------ *)

(* What the measured window saw, in the order requests were sent. The
   traced run replays these after the window, in this process, against a
   registry over the same artifacts, so the replay neither competes with
   the daemon for the CPU nor delays the callers. *)
type event = Batch of { idx : int array; client_s : float } | Point of { i : int; client_s : float }

type replay = {
  reg : Registry.t;
  client_lat : (int, float) Hashtbl.t;  (** replayed request id -> client-observed seconds *)
  mutable next_id : int;
  mutable cohorts : int;
  mutable distinct : int;
  mutable batches : int;
  mutable bytes : int * int;  (** request and response frame bytes *)
}

let replay_for s =
  let reg = Registry.create ~max_engines:4 () in
  Registry.add_source reg ~name:s.name ~path:s.paths.(0);
  ignore (Registry.load reg);
  { reg; client_lat = Hashtbl.create 4096; next_id = 0; cohorts = 0; distinct = 0; batches = 0; bytes = (0, 0) }

let get what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ Xc_serve.Error.to_string e)

let decode what = function
  | Ok v -> v
  | Error p -> failwith (Format.asprintf "%s: %a" what Xc_serve.Error.pp_protocol p)

(* The daemon's Estimate_batch dispatch, stage by stage, from the
   client's encode to the client's decode. *)
let replay_batch rp ~synopsis texts =
  let span = Trace.span in
  let frame =
    span "protocol.encode_request" (fun () ->
        Protocol.encode_request (Protocol.Estimate_batch { synopsis; queries = texts; options = Options.default }))
  in
  match decode "decode_request" (span "protocol.decode_request" (fun () -> Protocol.decode_request frame)) with
  | Protocol.Estimate_batch { synopsis; queries; _ } ->
    let _, eng = get "engine" (span "registry.engine" (fun () -> Registry.engine rp.reg synopsis)) in
    let qs = span "twig_parse.parse" (fun () -> Array.map Xc_twig.Twig_parse.parse queries) in
    let prepared = span "plan.prepare" (fun () -> Plan.Batch.prepare eng qs) in
    let cohorts, _, distinct = span "plan.cohort_plan" (fun () -> Plan.Batch.cohort_stats prepared) in
    let r = span "plan.sweep" (fun () -> Plan.Batch.run_prepared ~domains:1 ~cohort:true eng prepared) in
    let resp = span "protocol.encode_response" (fun () -> Protocol.encode_response (Protocol.Floats r)) in
    ignore (decode "decode_response" (span "protocol.decode_response" (fun () -> Protocol.decode_response resp)));
    if !Trace.on then begin
      rp.cohorts <- rp.cohorts + cohorts;
      rp.distinct <- rp.distinct + distinct;
      rp.batches <- rp.batches + 1;
      rp.bytes <- (String.length frame, String.length resp)
    end;
    r
  | _ -> failwith "replay: request decoded to another kind"

(* The daemon's Estimate dispatch (Registry.find, then the plan cache
   through Engine.estimate_result). *)
let replay_point rp ~synopsis query =
  let span = Trace.span in
  let frame =
    span "protocol.encode_request" (fun () -> Protocol.encode_request (Protocol.Estimate { synopsis; query }))
  in
  match decode "decode_request" (span "protocol.decode_request" (fun () -> Protocol.decode_request frame)) with
  | Protocol.Estimate { synopsis; query } ->
    let syn =
      match span "registry.engine" (fun () -> Registry.find rp.reg synopsis) with
      | Some s -> s
      | None -> failwith "replay: unknown synopsis"
    in
    let q = span "twig_parse.parse" (fun () -> Xc_twig.Twig_parse.parse query) in
    let v = get "estimate" (span "plan_cache.estimate" (fun () -> Xc_serve.Engine.estimate_result syn q)) in
    let resp = span "protocol.encode_response" (fun () -> Protocol.encode_response (Protocol.Floats [| v |])) in
    ignore (decode "decode_response" (span "protocol.decode_response" (fun () -> Protocol.decode_response resp)));
    if !Trace.on then rp.bytes <- (String.length frame, String.length resp);
    v
  | _ -> failwith "replay: request decoded to another kind"

let batch_texts s idx = Array.map (fun i -> s.texts.(i)) idx

(* The request an event replays, checked against the oracle. *)
let replay_event rp s = function
  | Batch { idx; _ } -> same_answers (replay_batch rp ~synopsis:s.name (batch_texts s idx)) s.oracle.(0) idx
  | Point { i; _ } -> Inputs.same_float (replay_point rp ~synopsis:s.name s.texts.(i)) s.oracle.(0).(i)

(* Replay every [stride]th event of the window, in order, under spans.
   Returns the replay and the number of replayed answers that differ
   from the oracle. *)
let replay_window s ~warm ~stride events =
  let rp = replay_for s in
  warm rp;
  let mismatched = ref 0 in
  List.iteri
    (fun k ev ->
      if k mod stride = 0 then begin
        let id = rp.next_id in
        rp.next_id <- id + 1;
        let (Batch { client_s; _ } | Point { client_s; _ }) = ev in
        Hashtbl.replace rp.client_lat id client_s;
        Trace.on := true;
        let ok = Trace.request id (fun () -> replay_event rp s ev) in
        Trace.on := false;
        if not ok then incr mismatched
      end)
    events;
  (rp, !mismatched)

(* Span cost: the last [n] events, each replayed once untraced and once
   traced (alternating which goes first) on the warm state. *)
let overhead_pct rp s events n =
  let first = List.length events - n in
  let tail = List.filteri (fun k _ -> k >= first) events in
  let plain = M.samples () and traced = M.samples () in
  Trace.discarding (fun () ->
      List.iteri
        (fun k ev ->
          let run_plain () = M.push plain (snd (M.time (fun () -> replay_event rp s ev))) in
          let run_traced () =
            Trace.on := true;
            M.push traced (snd (M.time (fun () -> Trace.request (-1) (fun () -> replay_event rp s ev))));
            Trace.on := false
          in
          if k land 1 = 0 then (run_plain (); run_traced ()) else (run_traced (); run_plain ()))
        tail);
  let p = M.median (M.to_array plain) and t = M.median (M.to_array traced) in
  100.0 *. (t -. p) /. p

(* The serving stages whose self times account for a request, in
   dispatch order, with the per-layer metric each reports as. *)
let stages =
  [
    ("protocol.encode_request", "protocol.encode_request_us");
    ("protocol.decode_request", "protocol.decode_request_us");
    ("registry.engine", "registry.engine_us");
    ("twig_parse.parse", "twig_parse.parse_us");
    ("plan.prepare", "plan.prepare_us");
    ("plan.cohort_plan", "plan.cohort_plan_us");
    ("plan.sweep", "plan.sweep_us");
    ("plan_cache.estimate", "plan_cache.estimate_us");
    ("protocol.encode_response", "protocol.encode_response_us");
    ("protocol.decode_response", "protocol.decode_response_us");
  ]

(* Per-stage median self time over replayed reads, the residual
   (client-observed latency minus the replayed stages, per request) and
   how much of the client-observed median the stage medians plus the
   median residual account for. *)
let stage_layers rp =
  let self = Trace.self_times () in
  let read r = Hashtbl.mem rp.client_lat r in
  let per_req = Hashtbl.create 4096 in
  let figures =
    List.map
      (fun (span, metric) ->
        let l = List.filter (fun (r, _) -> read r) (Option.value ~default:[] (List.assoc_opt span self)) in
        List.iter (fun (r, v) -> Hashtbl.replace per_req r (v +. Option.value ~default:0.0 (Hashtbl.find_opt per_req r))) l;
        (metric, if l = [] then 0.0 else 1e6 *. M.median (Array.of_list (List.map snd l))))
      stages
  in
  let client = Array.of_list (Hashtbl.fold (fun _ c acc -> c :: acc) rp.client_lat []) in
  let residual =
    Array.of_list
      (Hashtbl.fold (fun r c acc -> (c -. Option.value ~default:0.0 (Hashtbl.find_opt per_req r)) :: acc) rp.client_lat [])
  in
  let client_us = 1e6 *. M.median client and residual_us = 1e6 *. M.median residual in
  let stage_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 figures in
  figures
  @ [
      ("daemon.residual_us", residual_us);
      ("trace.client_p50_us", client_us);
      ("trace.coverage", (stage_sum +. residual_us) /. client_us);
      ("plan.cohorts", if rp.batches = 0 then 0.0 else float_of_int rp.cohorts /. float_of_int rp.batches);
      ("plan.cohort_sharing", if rp.cohorts = 0 then 0.0 else float_of_int rp.distinct /. float_of_int rp.cohorts);
      ("protocol.request_bytes", float_of_int (fst rp.bytes));
      ("protocol.response_bytes", float_of_int (snd rp.bytes));
      ( "plan_cache.plans",
        match Registry.names rp.reg with
        | name :: _ -> (
          match Registry.find rp.reg name with
          | Some syn -> float_of_int (Plan.Cache.n_plans (Xc_serve.Engine.cache_for syn))
          | None -> 0.0)
        | [] -> 0.0 );
    ]

(* Daemon counter deltas over the measured window (Stats snapshots
   before and after it). *)
let daemon_layers ~before ~after =
  let d name = Server.counter after name -. Server.counter before name in
  let batches = fst (Server.timer after "estimate.batch") -. fst (Server.timer before "estimate.batch") in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let mats, mat_s =
    let c1, t1 = Server.timer after "batch.mat_build" and c0, t0 = Server.timer before "batch.mat_build" in
    (c1 -. c0, t1 -. t0)
  in
  [
    ("registry.engine_hit_ratio", ratio (d "serve.engine_hit") (d "serve.engine_admit"));
    ("registry.engine_evicts", d "serve.engine_evict");
    ("engine.fallbacks", d "serve.fallback" +. d "serve.batch_fallback");
    ("plan.compile_hit_ratio", ratio (d "batch.query_hit") (d "batch.query_miss"));
    ("transition.matrices_built", mats);
    ("transition.build_us", if mats = 0.0 then 0.0 else 1e6 *. mat_s /. mats);
    ("plan.minor_words_per_batch", if batches = 0.0 then 0.0 else d "batch.minor_words" /. batches);
    ("daemon.shed", d "daemon.shed");
    ("daemon.timeouts", d "daemon.timeouts");
    ("daemon.request_error", d "daemon.request_error");
  ]

(* ---- the measured window ------------------------------------------------- *)

(* Per request, in send order: latency, completion time (seconds since
   the window opened) and estimates answered correctly; per calibration
   between requests: its duration and start time. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  lat : M.samples;
  at : M.samples;
  answers : M.samples;
  cal : M.samples;
  cal_at : M.samples;
  mutable next_cal : float;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    mismatched = 0;
    lat = M.samples ();
    at = M.samples ();
    answers = M.samples ();
    cal = M.samples ();
    cal_at = M.samples ();
    next_cal = 0.0;
  }

(* Callers run this between requests: every [cal_every] seconds of the
   window it times the calibration loop. *)
let cal_every = 0.1

let calibrate_due t ~start =
  let at = M.now () -. start in
  if at >= t.next_cal then begin
    t.next_cal <- at +. cal_every;
    M.push t.cal_at at;
    M.push t.cal (M.calibrate ())
  end

let record t ctx ~at ~answers r =
  M.push t.at at;
  match r with
  | `Ok dt ->
    M.push t.lat dt;
    M.push t.answers (float_of_int answers)
  | `Mismatch ->
    t.mismatched <- t.mismatched + 1;
    t.failed <- t.failed + 1;
    M.push t.lat (miss ctx);
    M.push t.answers 0.0
  | `Error ->
    t.failed <- t.failed + 1;
    M.push t.lat (miss ctx);
    M.push t.answers 0.0

(* The window in one-second blocks, by completion time. Each block gets
   the median time of the calibrations run in it, as a slowdown against
   the reference host; a block without one gets the window's median. *)
let block_s = 1.0

let n_blocks ctx = max 1 (int_of_float (Float.ceil (ctx.seconds /. block_s)))
let block_index ctx at = Int.max 0 (Int.min (n_blocks ctx - 1) (int_of_float (at /. block_s)))

let slowdowns ctx t =
  let cal = Array.init (n_blocks ctx) (fun _ -> M.samples ()) in
  let c = M.to_array t.cal in
  Array.iteri (fun k at -> M.push cal.(block_index ctx at) c.(k)) (M.to_array t.cal_at);
  let all = M.median c in
  Array.map (fun s -> (if M.count s = 0 then all else M.median (M.to_array s)) /. M.reference_s) cal

(* The end-to-end window figures. Every request's latency is divided by
   its block's slowdown, and every answered estimate counts its block's
   slowdown, over the window's serving time (calibrations left out). *)
type figures = { scaled_lat : float array; scaled_rate : float }

let scaled ctx t ~elapsed =
  let slow = slowdowns ctx t in
  let at = M.to_array t.at in
  let by_block k = slow.(block_index ctx at.(k)) in
  let answered = ref 0.0 in
  Array.iteri (fun k a -> answered := !answered +. (a *. by_block k)) (M.to_array t.answers);
  let serving = elapsed -. Array.fold_left ( +. ) 0.0 (M.to_array t.cal) in
  { scaled_lat = Array.mapi (fun k l -> l /. by_block k) (M.to_array t.lat); scaled_rate = !answered /. serving }

(* Unscaled latency median and calibration time per block, to show how
   the host's speed moved during the window. *)
let blocks_line ctx t =
  let slow = slowdowns ctx t in
  let lat = Array.map (fun _ -> M.samples ()) slow in
  let l = M.to_array t.lat in
  Array.iteri (fun k at -> M.push lat.(block_index ctx at) l.(k)) (M.to_array t.at);
  let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") a)) in
  Printf.sprintf "per-second blocks: unscaled p50 ms [%s]; calibration ms [%s]"
    (show (Array.map (fun s -> 1000.0 *. M.median (M.to_array s)) lat))
    (show (Array.map (fun s -> 1000.0 *. s *. M.reference_s) slow))

(* In-band Ping samples (traced run only) of queue depth and in-flight
   connections; the pinging connection itself counts as in flight. *)
type pings = { queue : M.samples; inflight : M.samples }

let pings () = { queue = M.samples (); inflight = M.samples () }

let sample_ping p c =
  match Client.ping c with
  | Ok h ->
    M.push p.queue (float_of_int h.Protocol.h_queue);
    M.push p.inflight (float_of_int h.Protocol.h_inflight)
  | Error _ -> ()

let client_counters () =
  (Metrics.counter_value Metrics.global "client.reconnect", Metrics.counter_value Metrics.global "client.retry")

type window = {
  tally : tally;
  elapsed : float;
  cold_ms : float array;  (** latencies of first requests on fresh serving state *)
  events : event list;  (** traced run only, in send order *)
  before : string;  (** daemon Stats snapshot before and after the window *)
  after : string;
  pings : pings;
  client : (string * float) list;  (** client-side retry counters *)
  rss : float;
}

let stats s =
  let c = Server.connect s.server in
  let json = Server.stats c in
  Client.close c;
  json

(* Run the closed-loop [caller] (given the deadline) for the window,
   snapshot the daemon, run [probe] against it and stop it. *)
let measure ?(probe = fun () -> ([], 0)) ctx s caller =
  let before = stats s in
  let r0, t0 = client_counters () in
  let start = M.now () in
  let deadline = start +. ctx.seconds in
  caller deadline;
  let elapsed = M.now () -. start in
  let after = stats s in
  let r1, t1 = client_counters () in
  let rss = Server.peak_rss_mb s.server in
  let probed = probe () in
  Server.stop s.server;
  ( before,
    after,
    elapsed,
    rss,
    [ ("client.reconnects", float_of_int (r1 - r0)); ("client.retries", float_of_int (t1 - t0)) ],
    probed )

(* A request that failed leaves the connection in an unknown state:
   start over on a fresh one. *)
let reconnect s c =
  Client.close c;
  Server.connect s.server

let error_share t = float_of_int t.failed /. float_of_int (max 1 t.attempted)

let latency_line lat =
  let a = M.sorted (M.to_array lat) in
  Printf.sprintf "latency ms (n=%d): %s" (Array.length a)
    (String.concat "  "
       (List.map
          (fun (name, q) -> Printf.sprintf "%s %.4f" name (1000.0 *. M.quantile_sorted a q))
          [ ("p50", 0.5); ("p90", 0.9); ("p95", 0.95); ("p99", 0.99); ("p99.9", 0.999); ("max", 1.0) ]))

(* Figures every serving workload reports beside its gated metrics. *)
let workload_figures s w =
  [
    ("serve.cold_ms", M.median w.cold_ms);
    ("error_metric.est_error", s.est_error);
    ("error_share", error_share w.tally);
  ]

(* End-to-end figures, or the traced run's per-layer figures; [extra]
   figures take precedence over the ones measured here. *)
let report ctx s ~workload ~setup_s ~reps ~stride ~overhead_n ~warm_replay ~extra w =
  let t = w.tally in
  if not ctx.trace then
    let f = scaled ctx t ~elapsed:w.elapsed in
    let n = M.count t.lat in
    ( [
        M.metric ~n:reps "setup_s" "s" setup_s;
        M.metric ~n "ops_per_s" "1/s" f.scaled_rate;
        M.metric ~n "p50_ms" "ms" (1000.0 *. M.quantile f.scaled_lat 0.5);
        M.metric ~n "slow_ms" "ms" (1000.0 *. M.quantile f.scaled_lat 0.99);
        M.metric ~n:1 "rss_mb" "MB" w.rss;
      ],
      0 )
  else begin
    let rp, mismatched = replay_window s ~warm:warm_replay ~stride w.events in
    let stage = stage_layers rp in
    let overhead = overhead_pct rp s w.events overhead_n in
    let mean_or_zero a = if M.count a = 0 then 0.0 else M.mean (M.to_array a) in
    ( Catalogue.collect ~workload
        (extra @ stage
        @ daemon_layers ~before:w.before ~after:w.after
        @ w.client @ s.layers
        @ [
            ("daemon.queue_depth", mean_or_zero w.pings.queue);
            ("daemon.inflight", mean_or_zero w.pings.inflight);
            ("trace.overhead_pct", overhead);
          ]
        @ workload_figures s w),
      mismatched )
  end

let outcome ctx s ~workload ~setup_s ~reps ~stride ~overhead_n ~warm_replay ~extra ~info w =
  let metrics, replay_mismatched =
    report ctx s ~workload ~setup_s ~reps ~stride ~overhead_n ~warm_replay ~extra w
  in
  {
    attempted = w.tally.attempted;
    failed = w.tally.failed;
    mismatched = w.tally.mismatched + replay_mismatched;
    metrics;
    also =
      List.map (fun (name, v) -> M.metric name (List.assoc name Catalogue.per_layer) v) (workload_figures s w);
    info = phases_line s :: pool_line s :: latency_line w.tally.lat :: blocks_line ctx w.tally :: info;
  }

let reps ctx = if ctx.trace then 1 else 3

(* ---- swap probe ------------------------------------------------------------ *)

(* After batch-hot's traced window, the daemon commits each update
   generation through an Update frame, and the whole pool goes out once
   on it. The first batch of every generation pays the Transition matrix
   builds and query compilation the swap invalidated. Its answers must
   match that generation's oracle. The swaps are then replayed in this
   process through Registry.swap_from. Returns the figures and the number
   of mismatched batches. *)
let swap_probe s () =
  let gens = Array.length s.paths - 1 in
  let idx = all_indices (Array.length s.texts) in
  let before = stats s in
  let c = Server.connect s.server in
  let swap_ms = M.samples () and first_ms = M.samples () and mismatched = ref 0 in
  for g = 1 to gens do
    let r, dt = M.time (fun () -> Client.update c ~synopsis:s.name ~path:s.paths.(g)) in
    ignore (get "update" r);
    M.push swap_ms (1000.0 *. dt);
    let a, dt = M.time (fun () -> Client.estimate_batch c ~synopsis:s.name s.texts) in
    M.push first_ms (1000.0 *. dt);
    if not (same_answers (get "batch" a) s.oracle.(g) idx) then incr mismatched
  done;
  Client.close c;
  let after = stats s in
  let rp = replay_for s in
  let swap_from_us = M.samples () and load_us = M.samples () in
  for g = 1 to gens do
    let path = s.paths.(g) in
    M.push_time_us swap_from_us (fun () -> ignore (get "swap_from" (Registry.swap_from rp.reg ~name:s.name ~path)));
    M.push_time_us load_us (fun () -> ignore (load path))
  done;
  let c1, t1 = Server.timer after "batch.mat_build" and c0, t0 = Server.timer before "batch.mat_build" in
  let median a = M.median (M.to_array a) in
  ( [
      ("swap.swap_ms", median swap_ms);
      ("swap.post_swap_first_ms", median first_ms);
      ("swap.update_apply_ms", M.median s.update_ms);
      ("registry.swap_from_us", median swap_from_us);
      ("codec.load_us", median load_us);
      ("transition.matrices_built", (c1 -. c0) /. float_of_int gens);
      ("transition.build_us", if c1 = c0 then 0.0 else 1e6 *. (t1 -. t0) /. (c1 -. c0));
    ],
    !mismatched )

(* ---- batch-hot ------------------------------------------------------------ *)

let batch_hot_spec = { kind = Inputs.Xmark; scale = 0.25; n_queries = 400; generations = 0; events = 0 }

(* The traced run also builds the update generations the swap probe
   commits. *)
let batch_hot_traced_spec = { batch_hot_spec with generations = 6; events = 8 }

let batch_hot ctx =
  let check s a = same_answers a s.oracle.(0) (all_indices (Array.length s.texts)) in
  let warm s =
    let c = Server.connect s.server in
    let first = ref 0.0 in
    for i = 1 to 3 do
      let r, dt = M.time (fun () -> Client.estimate_batch c ~synopsis:s.name s.texts) in
      if i = 1 then first := 1000.0 *. dt;
      match r with
      | Ok a when check s a -> ()
      | Ok _ -> failwith "warm-up: batch answer differs from the oracle"
      | Error e -> failwith ("warm-up: " ^ Xc_serve.Error.to_string e)
    done;
    Client.close c;
    !first
  in
  let spec = if ctx.trace then batch_hot_traced_spec else batch_hot_spec in
  let s, setup_s, cold, reps, raw = setup ctx spec ~reps:(reps ctx) ~warm in
  let n = Array.length s.texts in
  let idx = all_indices n in
  let t = tally () and p = pings () in
  let events = ref [] in
  let caller deadline =
    let start = deadline -. ctx.seconds in
    let c = ref (Server.connect s.server) in
    while M.now () < deadline do
      t.attempted <- t.attempted + 1;
      let r, dt = M.time (fun () -> Client.estimate_batch !c ~synopsis:s.name s.texts) in
      let record = record t ctx ~at:(M.now () -. start) ~answers:n in
      calibrate_due t ~start;
      (match r with
      | Ok a when check s a -> record (`Ok dt)
      | Ok _ -> record `Mismatch
      | Error _ ->
        record `Error;
        c := reconnect s !c);
      if ctx.trace then begin
        events := Batch { idx; client_s = dt } :: !events;
        if t.attempted mod 50 = 0 then sample_ping p !c
      end
    done;
    Client.close !c
  in
  let probe = if ctx.trace then Some (swap_probe s) else None in
  let before, after, elapsed, rss, client, (swaps, swap_mismatched) = measure ?probe ctx s caller in
  t.attempted <- t.attempted + (Array.length s.paths - 1);
  t.failed <- t.failed + swap_mismatched;
  t.mismatched <- t.mismatched + swap_mismatched;
  let w =
    {
      tally = t;
      elapsed;
      cold_ms = cold;
      events = List.rev !events;
      before;
      after;
      pings = p;
      client;
      rss;
    }
  in
  let warm_replay rp = for _ = 1 to 3 do ignore (replay_batch rp ~synopsis:s.name s.texts) done in
  outcome ctx s ~workload:"batch-hot" ~setup_s ~reps
    ~stride:(max 1 (List.length w.events / 400))
    ~overhead_n:100 ~warm_replay
    ~extra:(("twig_parse.queries", float_of_int n) :: swaps)
    ~info:
      [
        setup_line raw;
        Printf.sprintf "one caller, the same %d-query batch, XMark scale %.2f: %d requests in %.2f s" n
          batch_hot_spec.scale t.attempted elapsed;
      ]
    w

(* ---- point-skew ------------------------------------------------------------ *)

let point_skew_spec = { kind = Inputs.Imdb; scale = 0.2; n_queries = 1000; generations = 0; events = 0 }

let point_skew ctx =
  (* warm-up: every pool query once, so every plan is compiled *)
  let warm s =
    let c = Server.connect s.server in
    let _, dt =
      M.time (fun () ->
          Array.iteri
            (fun i q ->
              match Client.estimate c ~synopsis:s.name ~query:q with
              | Ok v when Inputs.same_float v s.oracle.(0).(i) -> ()
              | Ok _ -> failwith "warm-up: estimate differs from the oracle"
              | Error e -> failwith ("warm-up: " ^ Xc_serve.Error.to_string e))
            s.texts)
    in
    Client.close c;
    1000.0 *. dt
  in
  let s, setup_s, cold, reps, raw = setup ctx point_skew_spec ~reps:(reps ctx) ~warm in
  let n = Array.length s.texts in
  let t = tally () and p = pings () in
  let events = ref [] in
  let caller deadline =
    let z = Inputs.zipf ~seed:ctx.seed n in
    let start = deadline -. ctx.seconds in
    let c = ref (Server.connect s.server) in
    while M.now () < deadline do
      let i = Inputs.draw z in
      t.attempted <- t.attempted + 1;
      let r, dt = M.time (fun () -> Client.estimate !c ~synopsis:s.name ~query:s.texts.(i)) in
      let record = record t ctx ~at:(M.now () -. start) ~answers:1 in
      calibrate_due t ~start;
      (match r with
      | Ok v when Inputs.same_float v s.oracle.(0).(i) -> record (`Ok dt)
      | Ok _ -> record `Mismatch
      | Error _ ->
        record `Error;
        c := reconnect s !c);
      if ctx.trace then begin
        events := Point { i; client_s = dt } :: !events;
        if t.attempted mod 500 = 0 then sample_ping p !c
      end
    done;
    Client.close !c
  in
  let before, after, elapsed, rss, client, _ = measure ctx s caller in
  let w =
    {
      tally = t;
      elapsed;
      cold_ms = cold;
      events = List.rev !events;
      before;
      after;
      pings = p;
      client;
      rss;
    }
  in
  let warm_replay rp = Array.iter (fun q -> ignore (replay_point rp ~synopsis:s.name q)) s.texts in
  outcome ctx s ~workload:"point-skew" ~setup_s ~reps
    ~stride:(max 1 (List.length w.events / 20_000))
    ~overhead_n:2000 ~warm_replay
    ~extra:[ ("twig_parse.queries", 1.0) ]
    ~info:
      [
        setup_line raw;
        Printf.sprintf "one caller, Zipf(0.5) over %d IMDB queries (scale %.2f): %d requests in %.2f s" n
          point_skew_spec.scale t.attempted elapsed;
      ]
    w
