(* Chaos suite for the serving plane: seeded fault storms over the
   injection sites the hardened daemon and client expose —
   serve.accept, serve.send, serve.deadline, client.connect, and
   serve.recv together with codec.load under reloads — plus a combined
   storm over the first four. Gates, per storm:

   - survival: every stormed operation resolves to Ok or a typed
     error (no exception escapes, no hang), and some operations —
     including Ping — succeed through the storm via with_retry;
   - recovery: once the storm lifts, Ping answers a sane health
     snapshot and a batch estimate is bit-identical to the pre-storm
     reference;
   - observability: the counter matching the stormed site moved.

   Storms are seeded through Fault's private RNG stream, so a failing
   run replays exactly. *)

module Serve = Xcluster.Serve
module Protocol = Serve.Protocol
module Error = Serve.Error
module Metrics = Xc_util.Metrics
module Fault = Xc_util.Fault
open Daemon_harness

let check = Alcotest.check
let counter name = Metrics.counter_value Metrics.global name

(* ---- fixtures ----------------------------------------------------------- *)

let synopsis =
  lazy
    (let doc = Xc_data.Imdb.generate ~seed:91 ~n_movies:30 () in
     Xcluster.Build.run ~min_extent:4
       ~budget:(Xcluster.Build.budget ~bstr_kb:4 ~bval_kb:16 ())
       doc)

let batch_queries = [| "//movie/title"; "//movie"; "//title" |]

(* The daemon under chaos: short deadlines so evictions happen inside
   the test's patience, a quick backoff hint so retries stay fast. *)
let with_daemon sources f =
  Daemon_harness.with_daemon ~max_engines:4
    ~tune:(fun c ->
      { c with
        Serve.Daemon.workers = 3;
        max_pending = 16;
        recv_timeout_s = 0.5;
        request_budget_s = 1.0;
        retry_after_ms = 10 })
    sources f

(* ---- the storm harness --------------------------------------------------- *)

let bits = Array.map Int64.bits_of_float

(* Each storm rides at these offsets to its seed — distinct,
   reproducible fault sequences over the same sites — one after the
   other against one daemon, which must recover from each. *)
let seed_offsets = [ 0; 100; 200 ]

(* [run_storm fault ~moved] boots a daemon, records a reference batch
   answer, rides out [fault] at each seed offset, and checks the gates
   after each. [moved] is the counter that proves the storm hit its
   site. With [reload], every fifth operation is a Reload frame, so the
   storm also reaches the daemon's artifact loads. *)
let run_storm ?(ops = 30) ?(attempts = 10) ?(reload = false) fault ~moved () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis);
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let reference =
    match Serve.Client.connect endpoint with
    | Error e -> Alcotest.failf "reference connect: %s" (Error.to_string e)
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () -> (
        match Serve.Client.estimate_batch c ~synopsis:"imdb" batch_queries with
        | Ok r -> bits r
        | Error e -> Alcotest.failf "reference batch: %s" (Error.to_string e))
  in
  Fun.flip List.iter seed_offsets @@ fun offset ->
  let moved0 = counter moved in
  let saved = Fault.current () in
  Fault.configure (Some { fault with Fault.seed = fault.Fault.seed + offset });
  let ok = ref 0 and typed = ref 0 and pings = ref 0 in
  Fun.protect
    ~finally:(fun () -> Fault.configure saved)
    (fun () ->
      for i = 1 to ops do
        let r =
          Serve.Client.with_retry ~attempts ~base_delay_s:0.005
            ~max_delay_s:0.05 ~seed:i ~timeout_s:5.0 endpoint (fun c ->
              if reload && i mod 5 = 0 then
                match Serve.Client.reload c with
                | Ok _ -> Ok ()
                | Error e -> Error e
              else if i mod 3 = 0 then
                match Serve.Client.ping c with
                | Ok h ->
                  check Alcotest.int "ping sees the synopsis" 1
                    h.Protocol.h_synopses;
                  incr pings;
                  Ok ()
                | Error e -> Error e
              else
                match
                  Serve.Client.estimate c ~synopsis:"imdb"
                    ~query:"//movie/title"
                with
                | Ok _ -> Ok ()
                | Error e -> Error e)
        in
        match r with
        | Ok () -> incr ok
        | Error _ -> incr typed
      done);
  (* survival: everything resolved, and the retry policy pushed most
     operations — pings included — through the storm *)
  check Alcotest.int "every stormed operation resolved" ops (!ok + !typed);
  check Alcotest.bool "operations survived the storm" true (!ok > 0);
  check Alcotest.bool "ping answered during the storm" true (!pings > 0);
  check Alcotest.bool (moved ^ " moved") true (counter moved > moved0);
  (* recovery: storm lifted, the daemon is intact and exact *)
  (match
     Serve.Client.with_retry ~attempts:10 ~timeout_s:5.0 endpoint
       Serve.Client.ping
   with
  | Ok h ->
    check Alcotest.int "post-storm synopses" 1 h.Protocol.h_synopses;
    check Alcotest.bool "post-storm not draining" true
      (not h.Protocol.h_draining)
  | Error e -> Alcotest.failf "post-storm ping: %s" (Error.to_string e));
  match
    Serve.Client.with_retry ~attempts:10 ~timeout_s:5.0 endpoint (fun c ->
        Serve.Client.estimate_batch c ~synopsis:"imdb" batch_queries)
  with
  | Error e -> Alcotest.failf "post-storm batch: %s" (Error.to_string e)
  | Ok r ->
    let got = bits r in
    check Alcotest.int "post-storm batch width" (Array.length reference)
      (Array.length got);
    Array.iteri
      (fun i b ->
        check Alcotest.bool "post-storm batch bit-identical" true
          (b = reference.(i)))
      got

let storm ?seed:(s = 0) prob sites kinds =
  { Fault.seed = 900 + s; prob; kinds; sites }

let test_accept_storm () =
  run_storm
    (storm ~seed:1 0.5 [ "serve.accept" ] [ Fault.Eio ])
    ~moved:"daemon.accept_error" ()

let test_send_storm () =
  run_storm
    (storm ~seed:2 0.3 [ "serve.send" ] [ Fault.Eio; Fault.Enospc ])
    ~moved:"fault.injected" ()

let test_deadline_storm () =
  run_storm
    (storm ~seed:3 0.2 [ "serve.deadline" ] [ Fault.Eio ])
    ~moved:"daemon.timeouts" ()

let test_connect_storm () =
  run_storm
    (storm ~seed:4 0.4 [ "client.connect" ] [ Fault.Eio ])
    ~moved:"client.connect_error" ()

(* damaged request frames, and damaged artifact reads on reload: the
   daemon answers typed errors, keeps the admitted synopsis, and stays
   exact *)
let test_recv_storm () =
  run_storm ~reload:true
    (storm ~seed:6 0.3 [ "serve.recv"; "codec.load" ]
       [ Fault.Truncate; Fault.Bit_flip ])
    ~moved:"daemon.request_error" ()

let test_combined_storm () =
  run_storm ~attempts:12
    (storm ~seed:5 0.15
       [ "serve.accept"; "serve.send"; "serve.deadline"; "client.connect" ]
       [ Fault.Eio ])
    ~moved:"fault.injected" ()

let () =
  Alcotest.run "chaos"
    [ ( "storms",
        [ Alcotest.test_case "accept storm" `Quick test_accept_storm;
          Alcotest.test_case "send storm" `Quick test_send_storm;
          Alcotest.test_case "deadline storm" `Quick test_deadline_storm;
          Alcotest.test_case "connect storm" `Quick test_connect_storm;
          Alcotest.test_case "recv storm with reloads" `Quick test_recv_storm;
          Alcotest.test_case "combined storm" `Quick test_combined_storm ] ) ]
