(* The XCluster benchmark: one seeded workload per invocation.

   Usage: xcbench.exe --workload NAME --seed N --seconds S --trace 0|1
                      --xcluster PATH --workdir DIR [--trace-out FILE]
                      [--nproc N --cpu K]  (for the header only)

   Workloads: batch-hot, point-skew (README.md).
   With --trace 0 the run reports the end-to-end metrics; with --trace 1
   it replays every request in this process under spans and reports the
   per-layer metrics. Human-readable lines come first; the last line of
   standard output is the JSON result. The exit code is non-zero on any
   answer that differs from the oracle. *)

module M = Measure

let usage () =
  prerr_endline
    "usage: xcbench.exe --workload batch-hot|point-skew --seed N --seconds S --trace 0|1 \
     --xcluster PATH --workdir DIR [--trace-out FILE] [--nproc N --cpu K]";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  (get, int, Hashtbl.find_opt tbl)

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Printf.ksprintf failwith "metric %s is not a finite number" name

let () =
  let get, int, opt = args () in
  let workload = get "workload" in
  let ctx =
    {
      Serving.seed = int "seed";
      seconds = float_of_int (int "seconds");
      trace = int "trace" <> 0;
      xcluster = get "xcluster";
      dir = get "workdir";
    }
  in
  let run, scale =
    match workload with
    | "batch-hot" -> (Serving.batch_hot, Serving.batch_hot_spec.Serving.scale)
    | "point-skew" -> (Serving.point_skew, Serving.point_skew_spec.Serving.scale)
    | _ -> usage ()
  in
  Printf.printf "xcbench %s: seed %d, %.0f s, trace %b, scale %.2f, nproc %s, pinned to CPU %s, OCaml %s\n%!"
    workload ctx.seed ctx.seconds ctx.trace scale
    (Option.value ~default:(string_of_int (Domain.recommended_domain_count ())) (opt "nproc"))
    (Option.value ~default:"-" (opt "cpu"))
    Sys.ocaml_version;
  let o = run ctx in
  let names = List.map (fun m -> m.M.name) o.Serving.metrics in
  if names <> List.map fst (if ctx.trace then Catalogue.per_layer else Catalogue.end_to_end) then
    failwith "reported metrics differ from the catalogue";
  List.iter print_endline o.Serving.info;
  List.iter
    (fun m -> Printf.printf "  %-30s %14.6g %-6s n=%d\n" m.M.name m.M.value m.M.unit_ m.M.n)
    o.Serving.metrics;
  if not ctx.trace then
    List.iter (fun m -> Printf.printf "  (%s %.6g %s)\n" m.M.name m.M.value m.M.unit_) o.Serving.also;
  Printf.printf "attempted %d, failed %d, mismatched %d\n" o.Serving.attempted o.Serving.failed
    o.Serving.mismatched;
  (match opt "trace-out" with
  | Some path when ctx.trace -> Trace.write ~keep:20_000 path
  | _ -> ());
  let metrics =
    String.concat ","
      (List.map
         (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.M.name (json_number m.M.name m.M.value) m.M.unit_)
         o.Serving.metrics)
  in
  let correct = o.Serving.mismatched = 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (max 1 o.Serving.attempted) o.Serving.failed metrics;
  if not correct then exit 1
