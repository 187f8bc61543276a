module Vs = Xc_vsumm.Value_summary
module S = Synopsis.Sealed
module Crc32 = Xc_util.Crc32
module Safe_io = Xc_util.Safe_io
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
open Xc_xml

let magic = "XCLU"
let version = 3

(* v3 layout, the only one read or written: a fixed 13-entry section
   directory up front, then raw alignment-padded section payloads.
   Numeric sections are little-endian 64-bit words so [Unix.map_file]
   can expose them as Bigarray slices zero-copy on little-endian hosts;
   byte-granular sections (labels, terms, value summaries) are
   big-endian length-prefixed records, parsed, not mapped. Every byte
   of the container from offset 12 on is CRC-covered: the directory
   (including the 4 alignment pad bytes) by the directory CRC, each
   payload (including its trailing pad) by its entry's CRC — a single
   flipped bit anywhere is detectable.

     0  magic "XCLU"
     4  version (int64 BE) = 3
    12  pad (4 zero bytes)            --+
    16  n_sections (int64 BE) = 13      | directory CRC covers [12, 440)
    24  13 x 32-byte entries:           |
        tag | offset | length | crc    --+   (int64 BE each)
   440  directory CRC-32 (int64 BE)
   448  section payloads, in tag order, each 8-aligned and a
        multiple of 8 bytes long (zero-padded inside the CRC) *)

let v3_n_sections = 13
let v3_dir_pos = 12
let v3_entry_size = 32
let v3_dir_crc_pos = 24 + (v3_n_sections * v3_entry_size)
let v3_data_pos = v3_dir_crc_pos + 8

let v3_section_names =
  [| "header"; "sids"; "counts"; "labels"; "vtypes"; "child_off"; "child_idx";
     "child_avg"; "parent_off"; "parent_idx"; "terms"; "vsumm_off"; "vsumm_blob" |]

let v3_section_name tag =
  if tag >= 1 && tag <= v3_n_sections then v3_section_names.(tag - 1)
  else Printf.sprintf "section-%d" tag

(* ---- errors ------------------------------------------------------------ *)

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of { pos : int; need : int }
  | Bad_length of { pos : int; len : int; what : string }
  | Checksum_mismatch of { section : string; stored : int; actual : int }
  | Corrupt of { pos : int; what : string }
  | Io of string

exception Lazy_failure of error
(* deferred-verification failure: a lazily loaded v3 section failed a
   check of the decoder's on first touch, after load had already
   returned [Ok]. Serving layers catch this and degrade. *)

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "bad magic (not an XCluster synopsis file)"
  | Unsupported_version v ->
    Format.fprintf ppf
      "unsupported format version %d (this build reads only v%d: rebuild the synopsis \
       from its document)"
      v version
  | Truncated { pos; need } ->
    Format.fprintf ppf "truncated input at byte %d (%d more bytes needed)" pos need
  | Bad_length { pos; len; what } ->
    Format.fprintf ppf "implausible %s %d at byte %d" what len pos
  | Checksum_mismatch { section; stored; actual } ->
    Format.fprintf ppf "%s section checksum mismatch (stored %08x, computed %08x)"
      section (stored land 0xFFFFFFFF) actual
  | Corrupt { pos; what } -> Format.fprintf ppf "%s at byte %d" what pos
  | Io msg -> Format.fprintf ppf "%s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

let () =
  Printexc.register_printer (function
    | Lazy_failure e -> Some ("Codec.Lazy_failure: " ^ error_to_string e)
    | _ -> None)

exception Decode of error

let err e = raise (Decode e)

(* [e] with its byte position moved [off] further on: a section read
   out of its own copy reports where its bytes sit in the file *)
let at_offset off = function
  | Truncated r -> Truncated { r with pos = r.pos + off }
  | Bad_length r -> Bad_length { r with pos = r.pos + off }
  | Corrupt r -> Corrupt { r with pos = r.pos + off }
  | (Bad_magic | Unsupported_version _ | Checksum_mismatch _ | Io _) as e -> e

let within off f = try f () with Decode e -> err (at_offset off e)

(* Corrupt input can surface as stray exceptions from components the
   decoder feeds (histogram/suffix-tree constructors, freeze): each
   failure mode has one typed error, whichever reader met it *)
let error_of_exn = function
  | Decode e -> e
  | Stack_overflow -> Corrupt { pos = 0; what = "decoder stack overflow" }
  | exn -> Corrupt { pos = 0; what = "decoder failure: " ^ Printexc.to_string exn }

let record_error e =
  Metrics.incr Meters.Codec.decode_error;
  match e with
  | Checksum_mismatch _ -> Metrics.incr Meters.Codec.crc_mismatch
  | _ -> ()

(* ---- primitive encoders ------------------------------------------------ *)

let put_int buf n = Buffer.add_int64_be buf (Int64.of_int n)
let put_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_list buf f xs =
  put_int buf (List.length xs);
  List.iter (f buf) xs

(* ---- bounded reader ----------------------------------------------------
   Every read checks against [limit] (the end of the enclosing section,
   or of the input) and every count is validated against the remaining
   bytes before anything is allocated, so hostile length fields cannot
   drive [String.sub]/[List.init]/[Array.init] sizes. *)

type reader = {
  src : string;
  mutable pos : int;
  limit : int;
}

let remaining r = r.limit - r.pos

let get_int r =
  if r.pos + 8 > r.limit then err (Truncated { pos = r.pos; need = r.pos + 8 - r.limit });
  let v64 = String.get_int64_be r.src r.pos in
  let v = Int64.to_int v64 in
  (* the writer only emits OCaml ints, so a field outside the 63-bit
     range is damage — and [Int64.to_int] would silently drop the high
     bit, letting a flipped sign bit through framing fields that no
     checksum covers *)
  if Int64.of_int v <> v64 then
    err (Corrupt { pos = r.pos; what = "integer field out of 63-bit range" });
  r.pos <- r.pos + 8;
  v

let get_float r =
  if r.pos + 8 > r.limit then err (Truncated { pos = r.pos; need = r.pos + 8 - r.limit });
  let v = Int64.float_of_bits (String.get_int64_be r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_string r =
  let at = r.pos in
  let n = get_int r in
  if n < 0 || n > remaining r then err (Bad_length { pos = at; len = n; what = "string length" });
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* [elt_min] is the fewest bytes one element can occupy, so the count
   is bounded by the remaining input before the list is built *)
let get_list r ~elt_min ~what f =
  let at = r.pos in
  let n = get_int r in
  if n < 0 || n > remaining r / max 1 elt_min then
    err (Bad_length { pos = at; len = n; what });
  List.init n (fun _ -> f r)

(* ---- little-endian section primitives (v3 numeric payloads) ----------- *)

let put_int_le buf n = Buffer.add_int64_le buf (Int64.of_int n)

let pad8 buf =
  while Buffer.length buf land 7 <> 0 do
    Buffer.add_char buf '\000'
  done

(* same 63-bit round-trip discipline as [get_int]: stored words outside
   OCaml's int range are damage (the writer only emits ints), and
   [Int64.to_int] would silently drop the top bit *)
let get_int_le src pos =
  let v64 = String.get_int64_le src pos in
  let v = Int64.to_int v64 in
  if Int64.of_int v <> v64 then
    err (Corrupt { pos; what = "integer field out of 63-bit range" });
  v

module BA1 = Bigarray.Array1

(* decode a little-endian int64 section into a fresh Bigarray (the
   string decoder's endianness-independent path; the mmap path aliases
   the file bytes instead) *)
let ba_i_of_le src ~pos ~count =
  let b = BA1.create Bigarray.int Bigarray.c_layout count in
  for i = 0 to count - 1 do
    BA1.unsafe_set b i (get_int_le src (pos + (8 * i)))
  done;
  b

let ba_f_of_le src ~pos ~count =
  let b = BA1.create Bigarray.float64 Bigarray.c_layout count in
  for i = 0 to count - 1 do
    BA1.unsafe_set b i (Int64.float_of_bits (String.get_int64_le src (pos + (8 * i))))
  done;
  b

let ints_of_le src ~pos ~count = Array.init count (fun i -> get_int_le src (pos + (8 * i)))

(* ---- term table ---------------------------------------------------------
   Term identifiers are process-local, so the encoding embeds the spelling
   of every term it references and the decoder re-interns them. The
   table lists the spellings in ascending text order, and each text
   summary lists its terms in table order, so the bytes written depend
   on the synopsis alone — not on the order in which this process
   happened to intern its terms. *)

type term_table = {
  spellings : string list; (* ascending *)
  index : (int, int) Hashtbl.t; (* global id -> local index *)
}

(* the table of every term the synopsis's text summaries reference *)
let term_table syn =
  let ids = Hashtbl.create 256 in
  let add id = Hashtbl.replace ids id () in
  for i = 0 to S.n_nodes syn - 1 do
    match S.vsumm syn i with
    | Vs.Vtext th ->
      let top, bucket, _ = Xc_vsumm.Term_hist.parts th in
      List.iter (fun (id, _) -> add id) top;
      List.iter add bucket
    | Vs.Vnone | Vs.Vnum _ | Vs.Vstr _ -> ()
  done;
  let by_text =
    Hashtbl.fold (fun id () acc -> (Dictionary.to_string (Dictionary.unsafe_of_int id), id) :: acc) ids []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let index = Hashtbl.create (List.length by_text) in
  List.iteri (fun local (_, id) -> Hashtbl.add index id local) by_text;
  { spellings = List.map fst by_text; index }

let tt_local tt id = Hashtbl.find tt.index id

(* ---- value summaries ----------------------------------------------------- *)

let put_vsumm tt buf = function
  | Vs.Vnone -> put_int buf 0
  | Vs.Vnum h ->
    put_int buf 1;
    let bounds, counts = Xc_vsumm.Histogram.raw h in
    put_int buf (Array.length counts);
    Array.iter (put_int buf) bounds;
    Array.iter (put_float buf) counts
  | Vs.Vstr p ->
    put_int buf 2;
    put_float buf (Xc_vsumm.Pst.n_strings p);
    put_float buf (Xc_vsumm.Pst.total_len p);
    put_int buf (Xc_vsumm.Pst.max_depth p);
    let entries = ref [] in
    Xc_vsumm.Pst.iter_substrings (fun s c -> entries := (s, c) :: !entries) p;
    (* depth-first order lists prefixes before extensions once reversed *)
    put_list buf
      (fun buf (s, c) ->
        put_string buf s;
        put_float buf c)
      (List.rev !entries)
  | Vs.Vtext th ->
    put_int buf 3;
    put_float buf (Xc_vsumm.Term_hist.n_documents th);
    let top, bucket, bucket_avg = Xc_vsumm.Term_hist.parts th in
    let top =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.map (fun (id, f) -> (tt_local tt id, f)) top)
    in
    put_list buf
      (fun buf (local, f) ->
        put_int buf local;
        put_float buf f)
      top;
    put_list buf put_int (List.sort Int.compare (List.map (tt_local tt) bucket));
    put_float buf bucket_avg

let get_vsumm terms r =
  let at = r.pos in
  match get_int r with
  | 0 -> Vs.Vnone
  | 1 ->
    let n_at = r.pos in
    let n = get_int r in
    (* (n+1) bounds + n counts = 16n + 8 bytes; compare by division so
       a hostile count cannot overflow the bound itself *)
    if n < 0 || remaining r < 8 || n > (remaining r - 8) / 16 then
      err (Bad_length { pos = n_at; len = n; what = "histogram bucket count" });
    let bounds = Array.init (n + 1) (fun _ -> get_int r) in
    let counts = Array.init n (fun _ -> get_float r) in
    Vs.Vnum (Xc_vsumm.Histogram.of_raw ~bounds ~counts)
  | 2 ->
    let n = get_float r in
    let total_len = get_float r in
    let d_at = r.pos in
    let max_depth = get_int r in
    if max_depth < 0 || max_depth > 1_000_000 then
      err (Bad_length { pos = d_at; len = max_depth; what = "suffix-tree depth" });
    let entries =
      get_list r ~elt_min:16 ~what:"substring count" (fun r ->
          let s = get_string r in
          let c = get_float r in
          (s, c))
    in
    Vs.Vstr (Xc_vsumm.Pst.of_substrings ~total_len ~n ~max_depth entries)
  | 3 ->
    let n = get_float r in
    let remap at local =
      if local < 0 || local >= Array.length terms then
        err
          (Corrupt
             { pos = at; what = Printf.sprintf "term index %d out of range" local });
      (terms.(local) : Dictionary.term :> int)
    in
    let top =
      get_list r ~elt_min:16 ~what:"term count" (fun r ->
          let at = r.pos in
          let local = get_int r in
          let f = get_float r in
          (remap at local, f))
    in
    let bucket =
      get_list r ~elt_min:8 ~what:"term-bucket count" (fun r ->
          let at = r.pos in
          remap at (get_int r))
    in
    let bucket_avg = get_float r in
    Vs.Vtext (Xc_vsumm.Term_hist.of_parts ~n ~top ~bucket ~bucket_avg)
  | tag ->
    err (Corrupt { pos = at; what = Printf.sprintf "unknown value-summary tag %d" tag })

let vtype_tag = function
  | Value.Tnull -> 0
  | Value.Tnumeric -> 1
  | Value.Tstring -> 2
  | Value.Ttext -> 3

let vtype_of_tag ~pos = function
  | 0 -> Value.Tnull
  | 1 -> Value.Tnumeric
  | 2 -> Value.Tstring
  | 3 -> Value.Ttext
  | tag -> err (Corrupt { pos; what = Printf.sprintf "unknown value-type tag %d" tag })

(* ---- encoding (the layout at the top) ------------------------------------ *)

let to_string syn =
  let n = S.n_nodes syn in
  let ne = S.n_edges syn in
  let tt = term_table syn in
  let blob = Buffer.create 65536 in
  let voff = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    voff.(i) <- Buffer.length blob;
    put_vsumm tt blob (S.vsumm syn i)
  done;
  voff.(n) <- Buffer.length blob;
  pad8 blob;
  let ints count f =
    let b = Buffer.create (8 * count) in
    for i = 0 to count - 1 do
      put_int_le b (f i)
    done;
    Buffer.contents b
  in
  let header = ints 4 (function
    | 0 -> S.doc_height syn
    | 1 -> S.root_sid syn
    | 2 -> n
    | _ -> ne)
  in
  let labels =
    let b = Buffer.create (16 * n) in
    for i = 0 to n - 1 do
      put_string b (Label.to_string (S.label syn i))
    done;
    pad8 b;
    Buffer.contents b
  in
  let vtypes =
    let b = Buffer.create (n + 8) in
    for i = 0 to n - 1 do
      Buffer.add_char b (Char.chr (vtype_tag (S.vtype syn i)))
    done;
    pad8 b;
    Buffer.contents b
  in
  let ints_ba count b = ints count (BA1.get b) in
  let floats count f =
    let b = Buffer.create (8 * count) in
    for i = 0 to count - 1 do
      Buffer.add_int64_le b (Int64.bits_of_float (f i))
    done;
    Buffer.contents b
  in
  let terms =
    let b = Buffer.create 4096 in
    put_list b put_string tt.spellings;
    pad8 b;
    Buffer.contents b
  in
  let counts = S.counts syn in
  let payloads =
    [| header;
       ints n (S.sid_of_index syn);
       ints n (fun i -> counts.(i));
       labels;
       vtypes;
       ints_ba (n + 1) (S.child_off_ba syn);
       ints_ba ne (S.child_idx_ba syn);
       floats ne (BA1.get (S.child_avg_ba syn));
       ints_ba (n + 1) (S.parent_off_ba syn);
       ints_ba ne (S.parent_idx_ba syn);
       terms;
       ints (n + 1) (fun i -> voff.(i));
       Buffer.contents blob |]
  in
  let total =
    Array.fold_left (fun acc p -> acc + String.length p) v3_data_pos payloads
  in
  let out = Buffer.create total in
  Buffer.add_string out magic;
  put_int out version;
  Buffer.add_string out "\000\000\000\000";
  put_int out v3_n_sections;
  let pos = ref v3_data_pos in
  Array.iteri
    (fun i pay ->
      put_int out (i + 1);
      put_int out !pos;
      put_int out (String.length pay);
      put_int out (Crc32.digest pay);
      pos := !pos + String.length pay)
    payloads;
  let dir = Buffer.contents out in
  put_int out (Crc32.sub dir ~pos:v3_dir_pos ~len:(v3_dir_crc_pos - v3_dir_pos));
  Array.iter (Buffer.add_string out) payloads;
  Buffer.contents out

let size_on_disk syn = String.length (to_string syn)

(* ---- decoding -------------------------------------------------------------- *)

let decode_terms r =
  Array.of_list
    (get_list r ~elt_min:8 ~what:"term-table size" (fun r ->
         Dictionary.of_string (get_string r)))

(* ---- v3 ---------------------------------------------------------------- *)

type v3_entry = {
  e_name : string;
  e_off : int;
  e_len : int;
  e_crc : int;
}

(* Parse and validate the fixed-size v3 prologue. [src] must hold at
   least the prologue bytes; [total] is the full container length.
   Offsets are required to equal the canonical packed layout, so
   sections can never overlap, shadow the directory, or leave covert
   unchecksummed gaps. *)
let parse_v3_dir src ~total =
  if String.length src < v3_data_pos then
    err (Truncated { pos = String.length src; need = v3_data_pos - String.length src });
  let r = { src; pos = 16; limit = v3_data_pos } in
  let nsec = get_int r in
  if nsec <> v3_n_sections then
    err (Corrupt { pos = 16; what = Printf.sprintf "unexpected section count %d" nsec });
  let entries =
    Array.init v3_n_sections (fun i ->
        let at = r.pos in
        let tag = get_int r in
        let off = get_int r in
        let len = get_int r in
        let crc = get_int r in
        if tag <> i + 1 then
          err
            (Corrupt
               { pos = at;
                 what = Printf.sprintf "expected section tag %d, found %d" (i + 1) tag
               });
        { e_name = v3_section_name tag; e_off = off; e_len = len; e_crc = crc })
  in
  let stored = get_int r in
  let actual = Crc32.sub src ~pos:v3_dir_pos ~len:(v3_dir_crc_pos - v3_dir_pos) in
  if actual <> stored then
    err (Checksum_mismatch { section = "directory"; stored; actual });
  let pos = ref v3_data_pos in
  Array.iter
    (fun e ->
      if e.e_len < 0 || e.e_len land 7 <> 0 then
        err (Bad_length { pos = e.e_off; len = e.e_len; what = e.e_name ^ " section length" });
      if e.e_off <> !pos then
        err
          (Corrupt
             { pos = e.e_off;
               what = Printf.sprintf "%s section offset %d, expected %d" e.e_name e.e_off !pos
             });
      pos := !pos + e.e_len)
    entries;
  if !pos <> total then
    err
      (Corrupt
         { pos = !pos; what = Printf.sprintf "container length %d, sections end at %d" total !pos });
  entries

let check_v3_crc src e =
  let actual = Crc32.sub src ~pos:e.e_off ~len:e.e_len in
  if actual <> e.e_crc then
    err (Checksum_mismatch { section = e.e_name; stored = e.e_crc; actual })

(* header section: doc_height | root_sid | n_nodes | n_edges *)
let parse_v3_header src e =
  if e.e_len <> 32 then
    err (Bad_length { pos = e.e_off; len = e.e_len; what = "header section length" });
  let doc_height = get_int_le src e.e_off in
  let root_sid = get_int_le src (e.e_off + 8) in
  let n = get_int_le src (e.e_off + 16) in
  let ne = get_int_le src (e.e_off + 24) in
  if doc_height < 0 || doc_height > 1_000_000 then
    err (Bad_length { pos = e.e_off; len = doc_height; what = "document height" });
  if n <= 0 then err (Bad_length { pos = e.e_off + 16; len = n; what = "node count" });
  if ne < 0 then err (Bad_length { pos = e.e_off + 24; len = ne; what = "edge count" });
  (doc_height, root_sid, n, ne)

(* a section holding [count] 8-byte words, exactly *)
let expect_words e count =
  if e.e_len / 8 <> count then
    err (Bad_length { pos = e.e_off; len = e.e_len; what = e.e_name ^ " section length" })

(* a byte-packed section (labels, terms): [f] reads its records, and
   only the zero pad to 8 may follow them *)
let parse_v3_packed src e f =
  let r = { src; pos = e.e_off; limit = e.e_off + e.e_len } in
  let out = f r in
  if remaining r >= 8 then
    err (Corrupt { pos = r.pos; what = "trailing bytes in " ^ e.e_name ^ " section" });
  out

let parse_v3_vtypes src e n =
  if e.e_len < n || e.e_len - n >= 8 then
    err (Bad_length { pos = e.e_off; len = e.e_len; what = "vtypes section length" });
  Array.init n (fun i ->
      vtype_of_tag ~pos:(e.e_off + i) (Char.code (String.unsafe_get src (e.e_off + i))))

(* value-summary offsets: monotone, starting at 0, ending within the
   blob (the blob's trailing distance is its alignment pad, < 8) *)
let parse_v3_voff src e ~n ~blob_len =
  let voff = ints_of_le src ~pos:e.e_off ~count:(n + 1) in
  if voff.(0) <> 0 then
    err (Corrupt { pos = e.e_off; what = "value-summary offsets do not start at 0" });
  for i = 0 to n - 1 do
    if voff.(i) > voff.(i + 1) then
      err (Corrupt { pos = e.e_off + (8 * i); what = "value-summary offsets not monotone" })
  done;
  if voff.(n) > blob_len || blob_len - voff.(n) >= 8 then
    err (Bad_length { pos = e.e_off + (8 * n); len = voff.(n); what = "value-summary blob length" });
  voff

let root_index_of_sid sids root_sid ~pos =
  let lo = ref 0 and hi = ref (Array.length sids - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if sids.(mid) = root_sid then found := mid
    else if sids.(mid) < root_sid then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then
    err (Corrupt { pos; what = Printf.sprintf "root id %d not among nodes" root_sid });
  !found

let get_vsumm_slice terms blob ~lo ~hi =
  let r = { src = blob; pos = lo; limit = hi } in
  let v = get_vsumm terms r in
  if r.pos <> r.limit then
    err (Corrupt { pos = r.pos; what = "trailing bytes in value summary" });
  v

type v3_nodes = {
  doc_height : int;
  root : int;  (* index, not sid *)
  n : int;
  ne : int;
  sids : int array;
  counts : int array;
  labels : Label.t array;
  vtypes : Value.vtype array;
}

(* The node-attribute sections (header, sids, counts, labels, vtypes)
   plus the shape checks: what the string decoder and the mapped loader
   both read up front. Byte 0 of [src] is file offset [base] — the
   whole container, or the prefix read after the prologue; errors
   report file offsets either way. Sid order and positive counts are
   among {!check_invariants}' rules. *)
let parse_v3_nodes src entries ~base =
  within base @@ fun () ->
  let at i = { (entries.(i)) with e_off = entries.(i).e_off - base } in
  let doc_height, root_sid, n, ne = parse_v3_header src (at 0) in
  (* every word-array section's length follows from the header's
     counts: check them all before any is read *)
  List.iter
    (fun (i, count) -> expect_words (at i) count)
    [ (1, n); (2, n); (5, n + 1); (6, ne); (7, ne); (8, n + 1); (9, ne); (11, n + 1) ];
  let sids = ints_of_le src ~pos:(at 1).e_off ~count:n in
  let counts = ints_of_le src ~pos:(at 2).e_off ~count:n in
  let labels =
    parse_v3_packed src (at 3) (fun r ->
        Array.init n (fun _ -> Label.of_string (get_string r)))
  in
  let vtypes = parse_v3_vtypes src (at 4) n in
  let root = root_index_of_sid sids root_sid ~pos:((at 0).e_off + 8) in
  { doc_height; root; n; ne; sids; counts; labels; vtypes }

(* The structural rules every v3 reader holds a synopsis to (CSR shape
   and agreement, sid order, positive counts) — the decoder before it
   returns, the mapped loader at first touch. *)
let check_invariants syn =
  match S.invariants syn with
  | Ok () -> ()
  | Error e -> err (Corrupt { pos = 0; what = "decoded synopsis is inconsistent: " ^ e })

(* magic, then version: the first checks every reader makes, on the
   whole input or on the prefix of a file it has read *)
let check_version src =
  if String.length src < 4 || not (String.equal (String.sub src 0 4) magic) then
    err Bad_magic;
  let v = get_int { src; pos = 4; limit = String.length src } in
  if v <> version then err (Unsupported_version v)

(* the one definition of a valid artifact: what this decoder accepts.
   Every CRC checked, every section copied out of the string, every
   value summary materialized. The totality/fuzzing contract lives
   here; the mmap path below is the fast lane. *)
let decode src =
  check_version src;
  let entries = parse_v3_dir src ~total:(String.length src) in
  Array.iter (fun e -> check_v3_crc src e) entries;
  let { doc_height; root; n; ne; sids; counts; labels; vtypes } =
    parse_v3_nodes src entries ~base:0
  in
  let child_off = ba_i_of_le src ~pos:entries.(5).e_off ~count:(n + 1) in
  let child_idx = ba_i_of_le src ~pos:entries.(6).e_off ~count:ne in
  let child_avg = ba_f_of_le src ~pos:entries.(7).e_off ~count:ne in
  let parent_off = ba_i_of_le src ~pos:entries.(8).e_off ~count:(n + 1) in
  let parent_idx = ba_i_of_le src ~pos:entries.(9).e_off ~count:ne in
  let terms = parse_v3_packed src entries.(10) decode_terms in
  let voff = parse_v3_voff src entries.(11) ~n ~blob_len:entries.(12).e_len in
  let blob_off = entries.(12).e_off in
  let vsumms =
    Array.init n (fun i ->
        Some
          (get_vsumm_slice terms src ~lo:(blob_off + voff.(i)) ~hi:(blob_off + voff.(i + 1))))
  in
  let syn =
    S.of_flat ~doc_height ~root ~sids ~labels ~vtypes ~counts ~child_off ~child_idx
      ~child_avg ~parent_off ~parent_idx ~vsumms ~vsumm_decode:None ~on_first_touch:None
  in
  check_invariants syn;
  syn

(* every failure mode becomes the typed error — decoding is total *)
let guard ?(path = "") f =
  match f () with
  | v -> Ok v
  | exception exn ->
    let e =
      match exn with
      | Xc_util.Fault.Injected _ -> Io (path ^ ": injected map fault")
      | Unix.Unix_error (ec, _, _) -> Io (path ^ ": " ^ Unix.error_message ec)
      | exn -> error_of_exn exn
    in
    record_error e;
    Error e

let of_string src = guard (fun () -> decode src)

let of_string_exn src =
  match of_string src with
  | Ok syn -> syn
  | Error e -> failwith ("Codec: " ^ error_to_string e)

(* ---- files ------------------------------------------------------------- *)

let save path syn =
  match Safe_io.write_atomic path (to_string syn) with
  | Ok () -> Ok ()
  | Error e ->
    Metrics.incr Meters.Codec.save_error;
    Error (Io (path ^ ": " ^ Safe_io.error_to_string e))

let save_exn path syn =
  match save path syn with
  | Ok () -> ()
  | Error e -> failwith ("Codec: " ^ error_to_string e)

let read_file path =
  match Safe_io.read path with
  | Ok src -> Ok (Xc_util.Fault.mutate ~site:"codec.load" src)
  | Error e ->
    let e = Io (path ^ ": " ^ Safe_io.error_to_string e) in
    record_error e;
    Error e

(* ---- the v3 mmap load path --------------------------------------------

   On a little-endian host a container loads in ~O(directory): the
   prologue and the small node-attribute sections (header, sids, counts,
   labels, vtypes) are read, CRC-verified and checked eagerly, the five
   CSR sections become file-backed Bigarray slices ([Unix.map_file])
   whose CRCs and the decoder's structural checks run once on the
   synopsis's first numeric access, and value summaries decode per node
   on first touch. No check here is the mapped path's own: each is one
   the decoder runs, with the same typed error. Deferred failures
   surface as {!Lazy_failure} at the access point — [load] itself has
   already returned [Ok] — and the synopsis re-raises that same
   exception at every later access. The mapping is released
   when the synopsis is collected (eviction from the serve engine's LRU
   drops the last reference; the GC then unmaps). *)

let with_fd path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then len
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | k -> go (off + k)
  in
  let got = go 0 in
  if got < len then err (Truncated { pos = got; need = len - got });
  Bytes.unsafe_to_string buf

let string_of_map cmap ~pos ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (BA1.unsafe_get cmap (pos + i))
  done;
  Bytes.unsafe_to_string b

(* a deferred check's failure, as the decoder would have typed it *)
let lazily f =
  match f () with
  | v -> v
  | exception (Lazy_failure _ as exn) -> raise exn
  | exception exn -> raise (Lazy_failure (error_of_exn exn))

(* every word of an int section read back through [get_int_le]: a
   [Bigarray.int] view would silently drop the top bit of a word the
   decoder refuses *)
let check_words s =
  for k = 0 to (String.length s / 8) - 1 do
    ignore (get_int_le s (8 * k))
  done

let map_v3 path =
  Xc_util.Fault.raise_io ~site:"codec.map";
  with_fd path @@ fun fd ->
  let total = (Unix.fstat fd).Unix.st_size in
  (* the prologue, or the whole file when it is shorter, checked in the
     decoder's order: a short, foreign or old-format file gets the
     error {!decode} gives it *)
  let prologue =
    Xc_util.Fault.mutate ~site:"codec.load" (read_exact fd (min total v3_data_pos))
  in
  check_version prologue;
  let entries = parse_v3_dir prologue ~total in
  (* eager group: the prologue plus everything a registry needs to admit
     and describe the artifact — node attributes stay boxed anyway *)
  let eager_len = entries.(5).e_off - v3_data_pos in
  let eager0 = read_exact fd eager_len in
  let eager = Xc_util.Fault.mutate ~site:"codec.load" eager0 in
  for i = 0 to 4 do
    check_v3_crc eager { (entries.(i)) with e_off = entries.(i).e_off - v3_data_pos }
  done;
  let { doc_height; root; n; ne = _; sids; counts; labels; vtypes } =
    parse_v3_nodes eager entries ~base:v3_data_pos
  in
  let cmap =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| total |])
  in
  let map_i e =
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int e.e_off) Bigarray.int Bigarray.c_layout false
         [| e.e_len / 8 |])
  in
  let map_f e =
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int e.e_off) Bigarray.float64 Bigarray.c_layout false
         [| e.e_len / 8 |])
  in
  let child_off = map_i entries.(5) in
  let child_idx = map_i entries.(6) in
  let child_avg = map_f entries.(7) in
  let parent_off = map_i entries.(8) in
  let parent_idx = map_i entries.(9) in
  (* first-touch verification of a mapped/deferred section: extract the
     bytes, CRC them, count it *)
  let verify_lazy e =
    let s =
      Xc_util.Fault.mutate ~site:"codec.section_verify"
        (string_of_map cmap ~pos:e.e_off ~len:e.e_len)
    in
    let actual = Crc32.digest s in
    Metrics.incr Meters.Codec.lazy_verify;
    if actual <> e.e_crc then begin
      Metrics.incr Meters.Codec.crc_mismatch;
      err (Checksum_mismatch { section = e.e_name; stored = e.e_crc; actual })
    end;
    s
  in
  (* the CSR group, in the decoder's order: CRCs, the int words, then
     the invariants the decoder checks before it returns *)
  let on_first_touch syn =
    lazily @@ fun () ->
    List.iter
      (fun i ->
        let s = verify_lazy entries.(i) in
        if i <> 7 then within entries.(i).e_off (fun () -> check_words s))
      [ 5; 6; 7; 8; 9 ];
    check_invariants syn
  in
  let vgroup =
    lazy
      (let terms_s = verify_lazy entries.(10) in
       let voff_s = verify_lazy entries.(11) in
       let blob = verify_lazy entries.(12) in
       let terms =
         within entries.(10).e_off (fun () ->
             parse_v3_packed terms_s { (entries.(10)) with e_off = 0 } decode_terms)
       in
       let voff =
         within entries.(11).e_off (fun () ->
             parse_v3_voff voff_s { (entries.(11)) with e_off = 0 } ~n
               ~blob_len:(String.length blob))
       in
       (terms, voff, blob))
  in
  let vsumm_decode i =
    lazily @@ fun () ->
    let terms, voff, blob = Lazy.force vgroup in
    within entries.(12).e_off (fun () ->
        get_vsumm_slice terms blob ~lo:voff.(i) ~hi:voff.(i + 1))
  in
  Metrics.incr Meters.Codec.mmap_load;
  S.of_flat ~doc_height ~root ~sids ~labels ~vtypes ~counts ~child_off ~child_idx
    ~child_avg ~parent_off ~parent_idx ~vsumms:(Array.make n None)
    ~vsumm_decode:(Some vsumm_decode) ~on_first_touch:(Some on_first_touch)

(* a big-endian host cannot alias the little-endian words: the string
   decode is its only path *)
let load path =
  if Sys.big_endian then Result.bind (read_file path) of_string
  else guard ~path (fun () -> map_v3 path)

let load_exn path =
  match load path with
  | Ok syn -> syn
  | Error e -> failwith ("Codec: " ^ error_to_string e)

(* ---- integrity ---------------------------------------------------------- *)

type info = {
  i_nodes : int;
  i_bytes : int;
}

type section_status = {
  sec_name : string;
  sec_bytes : int;
  sec_crc_ok : bool;
}

let verify path =
  Result.bind (read_file path) (fun src ->
      guard (fun () ->
          let syn = decode src in
          { i_nodes = S.n_nodes syn; i_bytes = String.length src }))

(* Per-section CRC report. Unlike {!verify} this does not stop at the
   first mismatch — the point is to localize damage. Framing errors
   (bad magic, a corrupt directory) still fail the whole call. *)
let sections_string src =
  guard (fun () ->
      check_version src;
      Array.to_list
        (Array.map
           (fun e ->
             { sec_name = e.e_name;
               sec_bytes = e.e_len;
               sec_crc_ok = Crc32.sub src ~pos:e.e_off ~len:e.e_len = e.e_crc
             })
           (parse_v3_dir src ~total:(String.length src))))

let sections path = Result.bind (read_file path) sections_string
