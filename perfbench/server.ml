(* The daemon under test: the repository's own `xcluster serve`, started
   as a separate process so its peak RSS is its own, and driven only
   through Xc_serve.Client. *)

module Client = Xc_serve.Client
module Protocol = Xc_serve.Protocol

type t = { pid : int; endpoint : Protocol.endpoint }

(* The daemon evaluates single-domain (XC_DOMAINS=1) and never sees an
   ambient fault-injection spec. *)
let child_env () =
  let keep kv =
    not
      (List.exists
         (fun p -> String.length kv > String.length p && String.sub kv 0 (String.length p) = p)
         [ "XC_DOMAINS="; "XC_FAULTS="; "XC_SERVE_WORKERS=" ])
  in
  Array.append (Array.of_list (List.filter keep (Array.to_list (Unix.environment ())))) [| "XC_DOMAINS=1" |]

let alive pid = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false

let spawned = ref 0

(* Daemons not yet stopped; a run that dies on an exception still kills
   and reaps them on its way out. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn [xcluster serve] over [synopses] ((name, path) pairs) on a
   fresh Unix socket under [dir], and return once it answers a Ping. *)
let start ~xcluster ~dir synopses =
  incr spawned;
  let sock = Filename.concat dir (Printf.sprintf "d%d.sock" !spawned) in
  let args =
    [ xcluster; "serve"; "--socket"; "unix:" ^ sock; "--domains"; "1"; "--max-engines"; "4" ]
    @ List.concat_map (fun (name, path) -> [ "--synopsis"; name ^ "=" ^ path ]) synopses
  in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process_env xcluster (Array.of_list args) (child_env ()) null log log in
  Unix.close null;
  Unix.close log;
  let endpoint = Protocol.Unix_sock sock in
  let deadline = Measure.now () +. 30.0 in
  let rec ready () =
    let up =
      match Client.connect ~timeout_s:5.0 endpoint with
      | Error _ -> false
      | Ok c ->
        let ok = Result.is_ok (Client.ping c) in
        Client.close c;
        ok
    in
    if up then ()
    else if (not (alive pid)) || Measure.now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      failwith "daemon did not come up (see its log in the work directory)"
    end
    else begin
      Unix.sleepf 0.01;
      ready ()
    end
  in
  ready ();
  live := pid :: !live;
  { pid; endpoint }

let peak_rss_mb t = Measure.peak_rss_mb t.pid

(* Graceful drain through a Shutdown frame; a daemon that does not exit
   within 10 s is killed. Always reaps the process. *)
let stop t =
  (match Client.connect ~timeout_s:5.0 t.endpoint with
  | Ok c ->
    ignore (Client.shutdown c);
    Client.close c
  | Error _ -> ());
  let deadline = Measure.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Measure.now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  live := List.filter (( <> ) t.pid) !live

let connect t =
  match Client.connect ~timeout_s:30.0 t.endpoint with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Xc_serve.Error.to_string e)

(* ---- the daemon's metrics snapshot ------------------------------------- *)

(* Xc_util.Metrics.to_json renders counters as "name":int and timers as
   "name":{"count":int,"total_ms":float,...}; these two readers are all
   the benchmark needs from it. A name never bumped reads 0. *)
let find_after s key from =
  let n = String.length s and k = String.length key in
  let rec go i = if i + k > n then None else if String.sub s i k = key then Some (i + k) else go (i + 1) in
  go from

let number_at s i =
  let j = ref i in
  while !j < String.length s && String.contains "-+.0123456789eE" s.[!j] do incr j done;
  Option.value ~default:0.0 (float_of_string_opt (String.sub s i (!j - i)))

let counter json name =
  match find_after json (Printf.sprintf "%S:" name) 0 with
  | Some i when i < String.length json && json.[i] <> '{' -> number_at json i
  | _ -> 0.0

(* (count, total seconds) of a timer *)
let timer json name =
  match find_after json (Printf.sprintf "%S:{" name) 0 with
  | None -> (0.0, 0.0)
  | Some i ->
    let count = match find_after json "\"count\":" i with Some j -> number_at json j | None -> 0.0 in
    let total = match find_after json "\"total_ms\":" i with Some j -> number_at json j | None -> 0.0 in
    (count, total /. 1000.0)

let stats c =
  match Client.stats c with
  | Ok json -> json
  | Error e -> failwith ("stats: " ^ Xc_serve.Error.to_string e)
