type protocol =
  | Truncated of { need : int }
  | Bad_tag of int
  | Bad_length of { len : int; what : string }
  | Checksum_mismatch of { stored : int; actual : int }
  | Closed
  | Bad_version of int

type t =
  | Codec of Xc_core.Codec.error
  | Protocol of protocol
  | Admission of string
  | Query of string
  | Unavailable of string
  | Io of string
  | Timeout of { elapsed_ms : int }
  | Overloaded of { retry_after_ms : int }

let pp_protocol ppf = function
  | Truncated { need } ->
    Format.fprintf ppf "truncated frame (%d more bytes needed)" need
  | Bad_tag tag -> Format.fprintf ppf "unknown frame tag %d" tag
  | Bad_length { len; what } -> Format.fprintf ppf "implausible %s %d" what len
  | Checksum_mismatch { stored; actual } ->
    Format.fprintf ppf "frame checksum mismatch (stored %08x, computed %08x)"
      (stored land 0xFFFFFFFF) (actual land 0xFFFFFFFF)
  | Closed -> Format.fprintf ppf "connection closed"
  | Bad_version v -> Format.fprintf ppf "frame version byte 0x%02x is not this peer's" v

let pp ppf = function
  | Codec e -> Format.fprintf ppf "codec: %a" Xc_core.Codec.pp_error e
  | Protocol p -> Format.fprintf ppf "protocol: %a" pp_protocol p
  | Admission msg -> Format.fprintf ppf "admission: %s" msg
  | Query msg -> Format.fprintf ppf "query: %s" msg
  | Unavailable msg -> Format.fprintf ppf "unavailable: %s" msg
  | Io msg -> Format.fprintf ppf "io: %s" msg
  | Timeout { elapsed_ms } ->
    Format.fprintf ppf "timeout: deadline exceeded after %d ms" elapsed_ms
  | Overloaded { retry_after_ms } ->
    Format.fprintf ppf "overloaded: retry after %d ms" retry_after_ms

let to_string e = Format.asprintf "%a" pp e

(* Wire codes are protocol constants — renumbering breaks mixed-version
   deployments, so additions append. The two variants that carry a
   number a peer must act on (a backoff hint, an elapsed budget) put
   that number first in the message as a bare decimal so [of_wire] can
   reconstruct the structured form, not just the category. *)
let to_wire = function
  | Codec e -> (1, Xc_core.Codec.error_to_string e)
  | Protocol (Bad_version v as p) -> (9, Format.asprintf "%d: %a" v pp_protocol p)
  | Protocol p -> (2, Format.asprintf "%a" pp_protocol p)
  | Admission msg -> (3, msg)
  | Query msg -> (4, msg)
  | Unavailable msg -> (5, msg)
  | Io msg -> (6, msg)
  | Timeout { elapsed_ms } -> (7, string_of_int elapsed_ms)
  | Overloaded { retry_after_ms } -> (8, string_of_int retry_after_ms)

(* leading decimal of a wire message, for the structured codes; a
   damaged or foreign message falls back to [default] rather than
   failing the whole frame *)
let leading_int ~default message =
  let n = String.length message in
  let rec digits i = if i < n && message.[i] >= '0' && message.[i] <= '9' then digits (i + 1) else i in
  let stop = digits 0 in
  if stop = 0 then default
  else match int_of_string_opt (String.sub message 0 stop) with
    | Some v -> v
    | None -> default

let of_wire code message =
  match code with
  | 1 -> Codec (Xc_core.Codec.Io message)
  | 2 -> Io ("remote protocol error: " ^ message)
  | 3 -> Admission message
  | 4 -> Query message
  | 5 -> Unavailable message
  | 7 -> Timeout { elapsed_ms = leading_int ~default:0 message }
  | 8 -> Overloaded { retry_after_ms = leading_int ~default:100 message }
  | 9 -> Protocol (Bad_version (leading_int ~default:(-1) message))
  | _ -> Io message
