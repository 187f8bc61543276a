(* The xcluster command-line tool.

   Subcommands:
     gen       generate a synthetic data set as XML
     inspect   parse an XML file and print its statistics
     build     build an XCluster synopsis for an XML file and report sizes
     estimate  estimate (and optionally verify) a twig query's selectivity
     verify    check a saved synopsis's integrity by a full decode
     serve     run the multi-synopsis estimation daemon
     client    talk to a running daemon

   Examples:
     xcluster gen -d imdb -s 0.1 -o imdb.xml
     xcluster inspect imdb.xml
     xcluster estimate imdb.xml -q "//movie[year > 1990]/title" --verify
     xcluster verify imdb.syn
     xcluster serve --socket /tmp/xc.sock --synopsis imdb=imdb.syn
     xcluster client estimate --socket /tmp/xc.sock -s imdb -q "//movie/title"
     xcluster client shutdown --socket /tmp/xc.sock

   Exit codes (every command):
     0    success
     1    verify: the synopsis file failed its integrity check
     2    malformed or corrupt input (XML syntax error, malformed query,
          corrupt synopsis, unknown synopsis name, unreachable daemon)
     3    internal error (including daemon-side protocol violations)
     124  command-line usage error (cmdliner) *)

open Cmdliner

let exit_verify_failed = 1
let exit_corrupt = 2
let exit_internal = 3

exception Usage of string
exception Corrupt_input of string

(* Every subcommand body runs under this guard: user-caused failures
   (bad XML, a damaged synopsis, a bad flag value) get a one-line
   message and a distinct exit code instead of a backtrace. *)
let guarded f =
  try f () with
  | Usage msg ->
    Format.eprintf "xcluster: %s@." msg;
    Cmd.Exit.cli_error
  | Corrupt_input msg ->
    Format.eprintf "xcluster: %s@." msg;
    exit_corrupt
  | Xc_xml.Parser.Malformed msg ->
    Format.eprintf "xcluster: malformed XML: %s@." msg;
    exit_corrupt
  | Xc_twig.Twig_parse.Parse_error msg ->
    Format.eprintf "xcluster: malformed query: %s@." msg;
    exit_corrupt
  | Sys_error msg ->
    Format.eprintf "xcluster: %s@." msg;
    exit_corrupt
  | Failure msg ->
    Format.eprintf "xcluster: internal error: %s@." msg;
    exit_internal
  | exn ->
    Format.eprintf "xcluster: internal error: %s@." (Printexc.to_string exn);
    exit_internal

let typing_for = function
  | "imdb" -> Xc_xml.Parser.typing_of_assoc Xc_data.Imdb.value_typing
  | "xmark" -> Xc_xml.Parser.typing_of_assoc Xc_data.Xmark.value_typing
  | "dblp" -> Xc_xml.Parser.typing_of_assoc Xc_data.Dblp.value_typing
  | _ -> Xc_xml.Parser.default_typing

let load ~typing_name file =
  let typing = typing_for typing_name in
  Xc_xml.Parser.parse_file ~typing file

(* ---- shared options ------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML input file.")

let typing_arg =
  Arg.(
    value
    & opt string "auto"
    & info [ "typing" ] ~docv:"KIND"
        ~doc:
          "Value-typing table: $(b,imdb), $(b,xmark), $(b,dblp), or $(b,auto) \
           (heuristic inference from the text).")

let bstr_arg =
  Arg.(
    value & opt int 20
    & info [ "bstr" ] ~docv:"KB" ~doc:"Structural budget in kilobytes.")

let bval_arg =
  Arg.(
    value & opt int 150
    & info [ "bval" ] ~docv:"KB" ~doc:"Value-summary budget in kilobytes.")

(* ---- gen -------------------------------------------------------------- *)

let gen_cmd =
  let dataset =
    Arg.(
      value & opt string "imdb"
      & info [ "d"; "dataset" ] ~docv:"NAME"
          ~doc:"Data set: $(b,imdb), $(b,xmark) or $(b,dblp).")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "s"; "scale" ] ~docv:"F"
          ~doc:"Scale factor (1.0 is the paper's ~200k elements).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  let output =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output XML file.")
  in
  let run dataset scale seed output =
    guarded @@ fun () ->
    let doc =
      match dataset with
      | "imdb" ->
        Xc_data.Imdb.generate ~seed
          ~n_movies:(max 10 (int_of_float (scale *. 8000.0)))
          ()
      | "xmark" -> Xc_data.Xmark.generate ~seed ~scale ()
      | "dblp" ->
        Xc_data.Dblp.generate ~seed ~n_authors:(max 10 (int_of_float (scale *. 4000.0))) ()
      | other -> raise (Usage (Printf.sprintf "unknown dataset %S (imdb | xmark | dblp)" other))
    in
    Xc_xml.Writer.to_file output doc;
    Format.printf "wrote %s: %d elements@." output (Xc_xml.Document.n_elements doc);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic XML data set.")
    Term.(const run $ dataset $ scale $ seed $ output)

(* ---- inspect ----------------------------------------------------------- *)

let inspect_cmd =
  let run file typing_name =
    guarded @@ fun () ->
    let doc = load ~typing_name file in
    let stats = Xc_xml.Stats.compute doc in
    Format.printf "elements:   %d@." stats.Xc_xml.Stats.n_elements;
    Format.printf "tags:       %d@." stats.Xc_xml.Stats.n_labels;
    Format.printf "height:     %d@." stats.Xc_xml.Stats.height;
    Format.printf "serialized: %.1f MB@."
      (float_of_int stats.Xc_xml.Stats.serialized_bytes /. 1048576.0);
    Format.printf "paths:      %d (%d value-bearing)@."
      (List.length stats.Xc_xml.Stats.paths)
      (List.length (Xc_xml.Stats.value_paths stats));
    List.iter
      (fun p ->
        Format.printf "  %a  %a x%d@." Xc_xml.Stats.pp_path p.Xc_xml.Stats.path
          Xc_xml.Value.pp_vtype p.Xc_xml.Stats.vtype p.Xc_xml.Stats.elements)
      (Xc_xml.Stats.value_paths stats);
    0
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Parse an XML file and print its statistics.")
    Term.(const run $ file_arg $ typing_arg)

(* ---- build ------------------------------------------------------------- *)

let build_cmd =
  let save_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Persist the synopsis to a file.")
  in
  let run file typing_name bstr bval save =
    guarded @@ fun () ->
    let doc = load ~typing_name file in
    let reference = Xcluster.Build.reference doc in
    Format.printf "reference: %a@." Xcluster.Build.builder_stats reference;
    let t0 = Unix.gettimeofday () in
    let syn = Xcluster.Build.compress (Xcluster.Build.budget ~bstr_kb:bstr ~bval_kb:bval ()) reference in
    Format.printf "xcluster:  %a  (built in %.2fs)@." Xcluster.Query.pp_stats syn
      (Unix.gettimeofday () -. t0);
    (match Xcluster.Query.validate syn with
    | Ok () -> ()
    | Error e -> Fmt.failwith "synopsis failed validation: %s" e);
    (match save with
    | Some path -> (
      match Xcluster.Store.save path syn with
      | Ok () ->
        Format.printf "saved to %s (%d bytes on disk)@." path
          (Xc_core.Codec.size_on_disk syn)
      | Error e -> Fmt.failwith "save failed: %s" (Xc_core.Codec.error_to_string e))
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build an XCluster synopsis within a budget.")
    Term.(const run $ file_arg $ typing_arg $ bstr_arg $ bval_arg $ save_arg)

(* ---- workload ------------------------------------------------------------ *)

let workload_cmd =
  let n_arg =
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Number of queries.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload RNG seed.")
  in
  let run file typing_name bstr bval n seed =
    guarded @@ fun () ->
    let doc = load ~typing_name file in
    let syn =
      Xcluster.Build.run ~budget:(Xcluster.Build.budget ~bstr_kb:bstr ~bval_kb:bval ()) doc
    in
    let spec = { Xc_twig.Workload.default_spec with n_queries = n; seed } in
    let wl = Xc_twig.Workload.generate ~spec doc in
    let sanity = Xc_twig.Workload.sanity_bound wl in
    let scored = Xc_exp.Error_metric.score (Xcluster.Query.estimate syn) wl in
    Format.printf "workload: %d positive twigs, sanity bound %.0f@."
      (List.length wl) sanity;
    Format.printf "overall avg. relative error: %.1f%%@."
      (100.0 *. Xc_exp.Error_metric.overall_relative ~sanity scored);
    List.iter
      (fun (cls, err) ->
        Format.printf "  %-8s %.1f%%@."
          (Xc_twig.Twig_query.class_name cls)
          (100.0 *. err))
      (Xc_exp.Error_metric.per_class_relative ~sanity scored);
    0
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Generate a random positive twig workload over an XML file and report \
          the synopsis's per-class estimation error (the paper's Sec. 6 \
          methodology, on your own data).")
    Term.(const run $ file_arg $ typing_arg $ bstr_arg $ bval_arg $ n_arg $ seed_arg)

(* ---- estimate ----------------------------------------------------------- *)

let estimate_cmd =
  let query_arg =
    Arg.(
      required & opt (some string) None
      & info [ "q"; "query" ] ~docv:"TWIG"
          ~doc:"Twig query, e.g. \"//movie[year > 1990]/title[contains(War)]\".")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ] ~doc:"Also evaluate the query exactly and report the error.")
  in
  let synopsis_arg =
    Arg.(
      value & opt (some file) None
      & info [ "synopsis" ] ~docv:"FILE"
          ~doc:"Estimate from a synopsis saved by $(b,build --save) instead of                 rebuilding one.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Show the query embedding: which clusters each variable binds to.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the estimation pipeline's metrics (batch compiles, \
             transition rows built, expansion depths, compile and sweep \
             timers) as JSON after the estimate.")
  in
  let run file typing_name bstr bval synopsis query verify explain stats =
    guarded @@ fun () ->
    let doc = load ~typing_name file in
    let q = Xcluster.Query.parse query in
    let syn =
      match synopsis with
      | Some path -> (
        match Xcluster.Store.load path with
        | Ok syn -> syn
        | Error e ->
          raise
            (Corrupt_input
               (Printf.sprintf "%s: corrupt synopsis: %s" path
                  (Xc_core.Codec.error_to_string e))))
      | None ->
        Xcluster.Build.run ~budget:(Xcluster.Build.budget ~bstr_kb:bstr ~bval_kb:bval ()) doc
    in
    Xcluster.Metrics.reset ();
    let est = Xcluster.Query.estimate syn q in
    Format.printf "estimate: %.2f binding tuples@." est;
    if verify then begin
      let exact = Xc_twig.Twig_eval.selectivity doc q in
      Format.printf "exact:    %.0f@." exact;
      Format.printf "rel.err:  %.1f%%@."
        (100.0 *. Float.abs (est -. exact) /. Float.max exact 1.0)
    end;
    if explain then
      List.iter
        (fun e ->
          Format.printf "variable q%d binds:@." e.Xc_core.Estimate.query_node;
          List.iteri
            (fun i (sid, label, w) ->
              if i < 6 then
                Format.printf "  cluster %d <%s>: %.1f expected elements@." sid label w)
            e.Xc_core.Estimate.bindings)
        (Xcluster.Query.explain syn q);
    if stats then Format.printf "metrics: %s@." (Xcluster.Metrics.json ());
    0
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Estimate a twig query's selectivity from a synopsis.")
    Term.(
      const run $ file_arg $ typing_arg $ bstr_arg $ bval_arg $ synopsis_arg
      $ query_arg $ verify $ explain_arg $ stats_arg)

(* ---- verify ------------------------------------------------------------- *)

let verify_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Synopsis file saved by $(b,build --save).")
  in
  let sections_arg =
    Arg.(
      value & flag
      & info [ "sections" ]
          ~doc:
            "Print a per-section CRC report. Unlike the summary check this \
             does not stop at the first bad section — it localizes the \
             damage.")
  in
  let print_sections file =
    match Xcluster.Store.sections file with
    | Ok secs ->
      List.iter
        (fun s ->
          Format.printf "  %-10s %10d bytes  %s@." s.Xc_core.Codec.sec_name
            s.Xc_core.Codec.sec_bytes
            (if s.Xc_core.Codec.sec_crc_ok then "crc ok" else "CRC MISMATCH"))
        secs
    | Error e ->
      (* framing damage: no directory to report section-by-section *)
      Format.printf "  (no section report: %s)@." (Xc_core.Codec.error_to_string e)
  in
  let run file sections =
    guarded @@ fun () ->
    match Xcluster.Store.verify file with
    | Ok info ->
      Format.printf "%s: OK (format v%d, %d nodes, %d bytes, checksums verified)@." file
        Xc_core.Codec.version info.Xc_core.Codec.i_nodes info.Xc_core.Codec.i_bytes;
      if sections then print_sections file;
      0
    | Error e ->
      Format.eprintf "%s: CORRUPT: %s@." file (Xc_core.Codec.error_to_string e);
      if sections then print_sections file;
      exit_verify_failed
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a saved synopsis's integrity by the full decode a load \
          holds it to: every per-section CRC-32 and every structural \
          check. A file in an older format (v1, v2) is refused as an \
          unsupported version; rebuild it from its document. \
          $(b,--sections) prints a per-section CRC report. Exits 0 when \
          intact, 1 when corrupt.")
    Term.(const run $ file $ sections_arg)

(* ---- serve -------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "xcluster.sock"
    & info [ "socket" ] ~docv:"ENDPOINT"
        ~doc:
          "Daemon endpoint: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
           path (taken as a Unix socket).")

let endpoint_of socket =
  match Xcluster.Serve.Protocol.endpoint_of_string socket with
  | Ok e -> e
  | Error msg -> raise (Usage msg)

let serve_cmd =
  let synopsis_args =
    Arg.(
      value & opt_all string []
      & info [ "synopsis" ] ~docv:"NAME=PATH"
          ~doc:
            "Serve the synopsis artifact at $(i,PATH) under $(i,NAME) \
             (repeatable). A corrupt artifact is skipped and counted, not \
             fatal.")
  in
  let dir_arg =
    Arg.(
      value & opt (some dir) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Serve every $(b,*.syn) file in $(i,DIR), named by basename \
             without the extension.")
  in
  let max_engines_arg =
    Arg.(
      value & opt int 8
      & info [ "max-engines" ] ~docv:"N"
          ~doc:
            "Bound of the batch-engine LRU: at most $(i,N) synopses keep \
             their compiled engines resident at once.")
  in
  let domains_arg =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Accepted only as 1: a batch is swept on the worker thread that \
             serves it. Any other value is a usage error.")
  in
  let workers_arg =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker-thread pool size: connections served concurrently \
             (default 4).")
  in
  let backlog_arg =
    Arg.(
      value & opt (some int) None
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Listen backlog (default 64).")
  in
  let max_pending_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Accepted connections allowed to wait for a worker; beyond this \
             the daemon sheds with a typed overloaded frame (default 64).")
  in
  let timeout_ms_arg =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-connection socket read/write silence bound \
             ($(b,SO_RCVTIMEO)/$(b,SO_SNDTIMEO); default 30000).")
  in
  let budget_ms_arg =
    Arg.(
      value & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for receiving one complete request frame — \
             the slow-loris bound (default 30000).")
  in
  let drain_ms_arg =
    Arg.(
      value & opt (some int) None
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:
            "How long a graceful shutdown waits for in-flight requests \
             before forcing the remaining sockets shut (default 5000).")
  in
  let run socket synopses dir max_engines domains workers backlog
      max_pending timeout_ms budget_ms drain_ms =
    guarded @@ fun () ->
    let endpoint = endpoint_of socket in
    if max_engines < 1 then raise (Usage "--max-engines must be >= 1");
    let positive flag = function
      | Some n when n < 1 -> raise (Usage (flag ^ " must be >= 1"))
      | v -> v
    in
    (match domains with
    | Some n when n <> 1 -> raise (Usage "--domains accepts only 1")
    | _ -> ());
    let workers = positive "--workers" workers in
    let backlog = positive "--backlog" backlog in
    let max_pending = positive "--max-pending" max_pending in
    let ms flag v default =
      match positive flag v with
      | Some m -> float_of_int m /. 1000.0
      | None -> default
    in
    let registry = Xcluster.Serve.Registry.create ~max_engines () in
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i when i > 0 ->
          Xcluster.Serve.Registry.add_source registry
            ~name:(String.sub spec 0 i)
            ~path:(String.sub spec (i + 1) (String.length spec - i - 1))
        | _ ->
          raise (Usage (Printf.sprintf "--synopsis %S: expected NAME=PATH" spec)))
      synopses;
    (match dir with
    | Some d -> (
      match Xcluster.Serve.Registry.add_dir registry d with
      | Ok () -> ()
      | Error e ->
        raise (Corrupt_input (Xcluster.Serve.Error.to_string e)))
    | None -> ());
    if Xcluster.Serve.Registry.sources registry = [] then
      raise (Usage "nothing to serve: give --synopsis NAME=PATH and/or --dir DIR");
    let d = Xcluster.Serve.Daemon.default_config in
    let config =
      {
        d with
        Xcluster.Serve.Daemon.endpoint;
        workers = Option.value ~default:d.Xcluster.Serve.Daemon.workers workers;
        backlog = Option.value ~default:d.Xcluster.Serve.Daemon.backlog backlog;
        max_pending =
          Option.value ~default:d.Xcluster.Serve.Daemon.max_pending max_pending;
        recv_timeout_s =
          ms "--timeout-ms" timeout_ms d.Xcluster.Serve.Daemon.recv_timeout_s;
        send_timeout_s =
          ms "--timeout-ms" timeout_ms d.Xcluster.Serve.Daemon.send_timeout_s;
        request_budget_s =
          ms "--budget-ms" budget_ms d.Xcluster.Serve.Daemon.request_budget_s;
        drain_timeout_s =
          ms "--drain-ms" drain_ms d.Xcluster.Serve.Daemon.drain_timeout_s;
      }
    in
    let on_ready endpoint =
      Format.printf "xcluster serve: listening on %s (%d synopses admitted)@."
        (Xcluster.Serve.Protocol.endpoint_to_string endpoint)
        (Xcluster.Serve.Registry.n_admitted registry);
      Format.print_flush ()
    in
    Xcluster.Serve.Daemon.run ~config ~on_ready registry;
    Format.printf "xcluster serve: shut down cleanly@.";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-synopsis estimation daemon: load the named artifacts \
          through the verifying codec (corrupt ones skipped and counted), \
          bind the endpoint, and answer $(b,client) requests until a \
          shutdown frame arrives.")
    Term.(
      const run $ socket_arg $ synopsis_args $ dir_arg $ max_engines_arg
      $ domains_arg $ workers_arg $ backlog_arg $ max_pending_arg
      $ timeout_ms_arg $ budget_ms_arg $ drain_ms_arg)

(* ---- client ------------------------------------------------------------- *)

let client_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some (enum
          [ ("estimate", `Estimate); ("batch", `Batch); ("list", `List);
            ("stats", `Stats); ("ping", `Ping); ("update", `Update);
            ("reload", `Reload); ("shutdown", `Shutdown) ]))
          None
      & info [] ~docv:"OP"
          ~doc:
            "One of $(b,estimate), $(b,batch), $(b,list), $(b,stats), \
             $(b,ping), $(b,update), $(b,reload), $(b,shutdown).")
  in
  let name_arg =
    Arg.(
      value & opt (some string) None
      & info [ "s"; "name" ] ~docv:"NAME"
          ~doc:"Synopsis name ($(b,estimate) and $(b,batch)).")
  in
  let query_args =
    Arg.(
      value & opt_all string []
      & info [ "q"; "query" ] ~docv:"TWIG"
          ~doc:
            "Twig query source text; repeatable for $(b,batch), exactly one \
             for $(b,estimate).")
  in
  let path_arg =
    Arg.(
      value & opt (some string) None
      & info [ "path" ] ~docv:"FILE"
          ~doc:"Artifact holding the repaired generation ($(b,update)).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a transiently failing request (overloaded daemon, dead \
             connection, timeout) up to $(i,N) times with capped jittered \
             exponential backoff, honoring the daemon's retry-after hint. \
             Refused for the non-idempotent $(b,update) and $(b,shutdown).")
  in
  let client_timeout_arg =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Bound the connect and every read/write on the connection; a \
             quiet daemon surfaces as a typed timeout instead of a hang.")
  in
  (* Errors out of the serving layer map onto the tool's exit codes:
     protocol damage and daemon-internal trouble are [exit_internal];
     everything the caller can fix — unknown name, bad query, corrupt
     artifact, unreachable daemon — is [exit_corrupt]. *)
  let fail (e : Xcluster.Serve.error) =
    Format.eprintf "xcluster: %s@." (Xcluster.Serve.Error.to_string e);
    match e with
    | Xcluster.Serve.Error.Protocol _ -> exit_internal
    | _ -> exit_corrupt
  in
  let run socket op name queries path retries timeout_ms =
    guarded @@ fun () ->
    let endpoint = endpoint_of socket in
    let require_name () =
      match name with
      | Some n -> n
      | None -> raise (Usage "this operation needs --name NAME")
    in
    if retries < 0 then raise (Usage "--retries must be >= 0");
    (match (op, retries) with
    | (`Update | `Shutdown), r when r > 0 ->
      raise (Usage "--retries does not apply to update/shutdown (not idempotent)")
    | _ -> ());
    let timeout_s =
      match timeout_ms with
      | Some m when m < 1 -> raise (Usage "--timeout-ms must be >= 1")
      | Some m -> Some (float_of_int m /. 1000.0)
      | None -> None
    in
    (* each arm prints only on success, so a retried attempt never
       leaves half an answer on stdout *)
    let perform c =
      match op with
      | `Estimate -> (
        let synopsis = require_name () in
        let query =
          match queries with
          | [ q ] -> q
          | _ -> raise (Usage "estimate takes exactly one -q QUERY")
        in
        match Xcluster.Serve.Client.estimate c ~synopsis ~query with
        | Ok est ->
          Format.printf "%.6f@." est;
          Ok 0
        | Error _ as e -> e)
      | `Batch -> (
        let synopsis = require_name () in
        if queries = [] then raise (Usage "batch needs at least one -q QUERY");
        let qs = Array.of_list queries in
        match Xcluster.Serve.Client.estimate_batch c ~synopsis qs with
        | Ok ests ->
          Array.iteri (fun i est -> Format.printf "%s\t%.6f@." qs.(i) est) ests;
          Ok 0
        | Error _ as e -> e)
      | `List -> (
        match Xcluster.Serve.Client.list_synopses c with
        | Ok listed ->
          Array.iter
            (fun l ->
              Format.printf "%s\t%d nodes\t%d edges\t%d bytes@."
                l.Xcluster.Serve.Protocol.l_name l.Xcluster.Serve.Protocol.l_nodes
                l.Xcluster.Serve.Protocol.l_edges l.Xcluster.Serve.Protocol.l_bytes)
            listed;
          Ok 0
        | Error _ as e -> e)
      | `Stats -> (
        match Xcluster.Serve.Client.stats c with
        | Ok json ->
          Format.printf "%s@." json;
          Ok 0
        | Error _ as e -> e)
      | `Ping -> (
        match Xcluster.Serve.Client.ping c with
        | Ok h ->
          Format.printf
            "ok: %d synopses, %d generations, queue %d, inflight %d, up %.1fs%s@."
            h.Xcluster.Serve.Protocol.h_synopses
            h.Xcluster.Serve.Protocol.h_generations
            h.Xcluster.Serve.Protocol.h_queue
            h.Xcluster.Serve.Protocol.h_inflight
            h.Xcluster.Serve.Protocol.h_uptime_s
            (if h.Xcluster.Serve.Protocol.h_draining then ", draining" else "");
          Ok 0
        | Error _ as e -> e)
      | `Update -> (
        let synopsis = require_name () in
        let path =
          match path with
          | Some p -> p
          | None -> raise (Usage "update needs --path FILE")
        in
        match Xcluster.Serve.Client.update c ~synopsis ~path with
        | Ok generation ->
          Format.printf "swapped %s to generation %d@." synopsis generation;
          Ok 0
        | Error _ as e -> e)
      | `Reload -> (
        match Xcluster.Serve.Client.reload c with
        | Ok r ->
          Format.printf "reloaded: %d admitted, %d skipped@."
            r.Xcluster.Serve.Registry.loaded r.Xcluster.Serve.Registry.skipped;
          Ok 0
        | Error _ as e -> e)
      | `Shutdown -> (
        match Xcluster.Serve.Client.shutdown c with
        | Ok () ->
          Format.printf "daemon acknowledged shutdown@.";
          Ok 0
        | Error _ as e -> e)
    in
    let outcome =
      if retries > 0 then
        Xcluster.Serve.Client.with_retry ~attempts:(retries + 1) ?timeout_s
          endpoint perform
      else
        match Xcluster.Serve.Client.connect ?timeout_s endpoint with
        | Error _ as e -> e
        | Ok c ->
          let r = perform c in
          Xcluster.Serve.Client.close c;
          r
    in
    match outcome with Ok code -> code | Error e -> fail e
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,serve) daemon: estimate one query or a batch \
          against a named synopsis, list what the daemon holds, fetch its \
          metrics, probe its health, swap a synopsis to a repaired \
          generation, trigger an artifact reload, or shut it down.")
    Term.(
      const run $ socket_arg $ op_arg $ name_arg $ query_args $ path_arg
      $ retries_arg $ client_timeout_arg)

let () =
  let exits =
    Cmd.Exit.info ~doc:"on success." 0
    :: Cmd.Exit.info ~doc:"on a failed $(b,verify) (the synopsis file is corrupt)." exit_verify_failed
    :: Cmd.Exit.info
         ~doc:"on malformed or corrupt input (XML syntax errors, malformed queries, corrupt synopsis files)."
         exit_corrupt
    :: Cmd.Exit.info ~doc:"on internal errors." exit_internal
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "xcluster" ~version:"1.0.0" ~exits
      ~doc:"XCluster synopses for structured XML content (ICDE 2006 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ gen_cmd; inspect_cmd; build_cmd; estimate_cmd; workload_cmd;
            verify_cmd; serve_cmd; client_cmd ]))
