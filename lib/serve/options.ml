type fallback = Degrade | Strict

type t = {
  domains : int option;
  fallback : fallback;
  max_batch : int;
  max_frame_bytes : int;
}

let default_max_batch = 8192
let default_max_frame_bytes = 1 lsl 26

let default =
  {
    domains = None;
    fallback = Degrade;
    max_batch = default_max_batch;
    max_frame_bytes = default_max_frame_bytes;
  }

let make ?domains ?(fallback = Degrade) ?(max_batch = default_max_batch)
    ?(max_frame_bytes = default_max_frame_bytes) () =
  (match domains with
  | Some d when d <= 0 ->
    invalid_arg "Xc_serve.Options.make: domains must be positive (omit it for the XC_DOMAINS default)"
  | _ -> ());
  if max_batch <= 0 then
    invalid_arg "Xc_serve.Options.make: max_batch must be positive";
  if max_frame_bytes <= 0 then
    invalid_arg "Xc_serve.Options.make: max_frame_bytes must be positive";
  { domains; fallback; max_batch; max_frame_bytes }

let pp ppf t =
  Format.fprintf ppf "{domains=%s; fallback=%s; max_batch=%d; max_frame_bytes=%d}"
    (match t.domains with None -> "env" | Some d -> string_of_int d)
    (match t.fallback with Degrade -> "degrade" | Strict -> "strict")
    t.max_batch t.max_frame_bytes
