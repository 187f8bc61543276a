module Codec = Xc_core.Codec
module Sealed = Xc_core.Synopsis.Sealed
module Plan = Xc_core.Plan
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters

type t = {
  sources : (string, string) Hashtbl.t; (* name -> path *)
  admitted : (string, Sealed.t) Hashtbl.t;
  generations : (string, int) Hashtbl.t; (* name -> admissions of distinct content *)
  engines : Plan.Batch.t Lru.t;
}

let create ?(max_engines = 8) () =
  {
    sources = Hashtbl.create 16;
    admitted = Hashtbl.create 16;
    generations = Hashtbl.create 16;
    engines = Lru.create max_engines;
  }

let add_source t ~name ~path = Hashtbl.replace t.sources name path

let add_dir t dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error (Error.Io msg)
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".syn" then
          add_source t ~name:(Filename.remove_extension f)
            ~path:(Filename.concat dir f))
      files;
    Ok ()

let sources t =
  Hashtbl.fold (fun name path acc -> (name, path) :: acc) t.sources []
  |> List.sort compare

type load_report = { loaded : int; skipped : int }

let generation t name =
  Option.value ~default:0 (Hashtbl.find_opt t.generations name)

let generations_total t =
  Hashtbl.fold (fun _ g acc -> acc + g) t.generations 0

(* Admission: the codec's loader is the verify step — an [Ok] here
   has passed framing, the directory checksum, and the node-attribute
   sections' CRCs; for a lazily mapped v3 artifact the CSR and
   value-summary sections verify on first touch, and a deferred
   failure (Codec.Lazy_failure) surfaces through the engine's
   result-typed serving path as Unavailable, never as a crash.
   The replace of [t.admitted] is the generation-swap commit point: a
   single Hashtbl write, so a reader resolving the name sees either
   the old complete generation or the new one, never a mixture (the
   daemon serializes requests; in-flight batches hold the Sealed.t
   they resolved and finish on it). *)
let admit t name syn =
  (match Hashtbl.find_opt t.admitted name with
  | Some old when Sealed.uid old <> Sealed.uid syn ->
    (* content changed: the engine compiled against the retired
       generation must go *)
    Lru.remove t.engines name;
    Hashtbl.replace t.generations name (generation t name + 1)
  | Some _ -> ()
  | None -> Hashtbl.replace t.generations name (generation t name + 1));
  Hashtbl.replace t.admitted name syn;
  Metrics.incr Meters.Serve.load_ok

let load_source t name path =
  match Codec.load path with
  | Ok syn ->
    admit t name syn;
    true
  | Error e ->
    Metrics.incr Meters.Serve.load_error;
    ignore (e : Codec.error);
    false

let load t =
  List.fold_left
    (fun acc (name, path) ->
      if load_source t name path then { acc with loaded = acc.loaded + 1 }
      else { acc with skipped = acc.skipped + 1 })
    { loaded = 0; skipped = 0 } (sources t)

(* ---- generation swap ---------------------------------------------------- *)

let swap t ~name syn =
  Metrics.incr Meters.Serve.swap;
  admit t name syn;
  generation t name

let swap_from t ~name ~path =
  match Codec.load path with
  | Ok syn ->
    add_source t ~name ~path;
    Ok (swap t ~name syn)
  | Error e ->
    (* skip-and-count: the previous good generation keeps serving *)
    Metrics.incr Meters.Serve.load_error;
    Metrics.incr Meters.Serve.swap_skipped;
    Error (Error.Codec e)

let find t name = Hashtbl.find_opt t.admitted name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.admitted []
  |> List.sort compare

let n_admitted t = Hashtbl.length t.admitted

let engine t name =
  match Hashtbl.find_opt t.admitted name with
  | None ->
    Error (Error.Admission (Printf.sprintf "unknown synopsis %S" name))
  | Some syn -> (
    match Lru.find t.engines name with
    | Some eng -> Metrics.incr Meters.Serve.engine_hit; Ok (syn, eng)
    | None ->
      let eng = Plan.Batch.create syn in
      Metrics.incr Meters.Serve.engine_admit;
      (match Lru.put t.engines name eng with
      | Some (_, _) -> Metrics.incr Meters.Serve.engine_evict
      | None -> ());
      Ok (syn, eng))

let engine_names t = Lru.keys_by_recency t.engines
let max_engines t = Lru.capacity t.engines
