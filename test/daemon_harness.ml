(* Shared by the daemon tests (test_serve, test_chaos): scratch
   directories, a daemon running inside the test process, and raw peers
   that misbehave below the client layer. *)

module Serve = Xcluster.Serve
module Protocol = Serve.Protocol

let temp_dir () =
  let dir = Filename.temp_file "xc_daemon_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()

let save_exn path syn =
  match Xcluster.Store.save path syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save %s: %s" path (Xc_core.Codec.error_to_string e)

(* Starts a daemon serving [sources] (name, path) and waits until it
   accepts. [tune] adjusts the default configuration. The daemon runs
   in a spawned domain of this process (Daemon.run blocks its caller;
   Shutdown exits it), clients in further domains doing only socket
   I/O. [same_domain] runs it on a thread of this domain instead, so
   that this domain's GC counters include what it allocates. *)
let start_daemon ?(max_engines = 8) ?(tune = fun c -> c) ?(same_domain = false) ~dir sources =
  let endpoint = Protocol.Unix_sock (Filename.concat dir "d.sock") in
  let registry = Serve.Registry.create ~max_engines () in
  List.iter (fun (name, path) -> Serve.Registry.add_source registry ~name ~path) sources;
  let ready = Atomic.make false in
  let config = tune { Serve.Daemon.default_config with Serve.Daemon.endpoint } in
  let join =
    let run () = Serve.Daemon.run ~config ~on_ready:(fun _ -> Atomic.set ready true) registry in
    if same_domain then
      let th = Thread.create run () in
      fun () -> Thread.join th
    else
      let d = Domain.spawn run in
      fun () -> Domain.join d
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon did not come up";
  (endpoint, join)

(* [f endpoint] against a started daemon, which is then shut down and
   joined *)
let with_daemon ?max_engines ?tune ?same_domain sources f =
  let dir = temp_dir () in
  let endpoint, join = start_daemon ?max_engines ?tune ?same_domain ~dir sources in
  Fun.protect
    ~finally:(fun () ->
      (* the shutdown frame can be refused under an active fault storm,
         or while the daemon is still evicting stormed peers: retry
         until acknowledged (faults are probabilistic) *)
      let rec shut n =
        if n = 0 then Alcotest.fail "daemon refused shutdown"
        else
          match Serve.Client.connect endpoint with
          | Error _ -> shut (n - 1)
          | Ok c ->
            let r = Serve.Client.shutdown c in
            Serve.Client.close c;
            (match r with Ok () -> () | Error _ -> shut (n - 1))
      in
      shut 500;
      join ();
      rm_rf dir)
    (fun () -> f endpoint)

(* a raw peer, below the client layer: the hardening tests need to
   misbehave in ways the client cannot *)
let raw_connect endpoint =
  let path =
    match endpoint with
    | Protocol.Unix_sock p -> p
    | Protocol.Tcp _ -> Alcotest.fail "expected a unix endpoint"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* a slow loris: half a frame header (its version byte), then silence *)
let loris endpoint =
  let fd = raw_connect endpoint in
  ignore (Unix.write_substring fd (String.make 1 (Char.chr Protocol.version)) 0 1);
  fd
