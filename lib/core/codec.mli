(** Synopsis persistence.

    A synopsis is built once (minutes for a large document) and consulted
    many times by an optimizer, so it must survive the process that built
    it — and survive what disks do to long-lived artifacts. The format
    is a self-contained, versioned binary encoding that embeds the label
    names and dictionary terms it references; loading re-interns them,
    so identifiers are stable across processes even though the global
    intern tables differ. Terms are numbered in text order, so the
    bytes {!to_string} writes for a synopsis do not depend on the order
    in which the writing process interned its terms.

    {b Format v3} (what {!to_string}/{!save} write) lays the synopsis
    out as a fixed 13-entry section directory followed by raw,
    8-aligned section payloads: node attributes, the child/parent CSR
    adjacency as little-endian 64-bit words, the term table, and a
    value-summary blob with a per-node offset index. Every byte from
    the directory on is CRC-32 covered ({!Xc_util.Crc32}) — the
    directory by its own checksum, each payload (alignment padding
    included) by its entry — so a single flipped bit anywhere is
    detectable. The layout is what makes {!load} near-constant-time:
    on a little-endian host the numeric sections are memory-mapped
    ([Unix.map_file]) straight into the sealed synopsis's Bigarray
    backing store, zero-copy, with CRC verification deferred to first
    touch (see {e lazy verification} below). {b v2} (framed sections,
    big-endian records) and {b v1} (unframed, no checksums) files are
    readable, not writable: the decoder negotiates on the version
    field, and v3 is the only format this module writes.

    {b Failure contract.} Decoding via {!of_string} is total: every
    way an input can be wrong — foreign file, truncation, bit rot,
    hostile length fields — surfaces as an [Error] of the typed
    {!error}, never an exception and never an attacker-controlled
    allocation (length fields are validated against the remaining
    input before anything is allocated). The [_exn] variants exist
    for callers that have already verified their input; they raise
    [Failure] with the rendered error.

    {b Lazy verification} extends that contract along one explicit
    seam: a {e lazy} {!load} of a v3 file verifies the prologue,
    directory, and node-attribute sections before returning [Ok], but
    defers the CSR sections' CRCs (and structural bounds) to the
    synopsis's first numeric access and each value summary's decode to
    its first read. Those deferred checks raise {!Lazy_failure}
    carrying the same typed {!error} at the {e access} point — the
    serve layer catches it and degrades, exactly as it would for a
    load-time [Error]. Pass [~eager:true] (or run on a big-endian
    host) to get the fully-verified string path with no deferred
    failures. Each lazily verified section bumps [codec.lazy_verify].

    Persistence goes through {!Xc_util.Safe_io}: {!save} writes
    atomically (temp file → fsync → rename), so a crash mid-save
    leaves the previous synopsis intact; {!load} reads through the
    fault-injection sites ([codec.load] on the string path and eager
    prefix, [codec.map] before mapping, [codec.section_verify] at
    first touch), so the harness can exercise every failure path.
    Decode failures bump [codec.decode_error] (and CRC failures
    additionally [codec.crc_mismatch]) in {!Xc_util.Metrics.global}.

    Only sealed synopses are persisted — a builder is an intermediate
    construction state, not an artifact. Decoding validates the graph
    before sealing it. *)

type error =
  | Bad_magic  (** not an XCluster synopsis file *)
  | Unsupported_version of int
  | Truncated of { pos : int; need : int }
      (** the input ends where [need] more bytes were required *)
  | Bad_length of { pos : int; len : int; what : string }
      (** a count or length field is negative or larger than the
          remaining input could possibly satisfy *)
  | Checksum_mismatch of { section : string; stored : int; actual : int }
      (** a section (or the v3 directory) failed its CRC-32 *)
  | Corrupt of { pos : int; what : string }
      (** structurally invalid content (bad tag, duplicate node,
          inconsistent graph, …) *)
  | Io of string  (** the file could not be read or written *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

exception Lazy_failure of error
(** A deferred verification or decode failure from a lazily loaded v3
    synopsis, raised at the first access that needed the damaged
    section (see the lazy-verification contract above). Never escapes
    an {e eager} load. *)

(* ---- encoding --------------------------------------------------------- *)

val to_string : Synopsis.Sealed.t -> string
(** The v3 encoding. *)

val size_on_disk : Synopsis.Sealed.t -> int
(** Byte length of the v3 encoding — directory, checksums, and
    alignment padding beyond the model's
    {!Synopsis.Sealed.structural_bytes} +
    {!Synopsis.Sealed.value_bytes} accounting, plus the embedded string
    tables. *)

(* ---- decoding --------------------------------------------------------- *)

val of_string : string -> (Synopsis.Sealed.t, error) result
(** Decode any format version (v1, v2 or v3). Total: never raises. *)

val of_string_exn : string -> Synopsis.Sealed.t
(** @raise Failure with the rendered error on any decode failure. *)

(* ---- files ------------------------------------------------------------ *)

val save : string -> Synopsis.Sealed.t -> (unit, error) result
(** Atomic write via {!Xc_util.Safe_io.write_atomic}; on [Error _] a
    pre-existing file at the path is untouched. *)

val save_exn : string -> Synopsis.Sealed.t -> unit
(** @raise Failure on I/O failure. *)

val load : ?eager:bool -> string -> (Synopsis.Sealed.t, error) result
(** Read and decode. [load] itself never raises. With [eager:false]
    (the default), a v3 file on a little-endian host is memory-mapped
    with per-section verification deferred to first touch — the
    near-constant-time path; deferred failures later raise
    {!Lazy_failure} at the access point. [eager:true] (and every
    v1/v2 or big-endian load) reads and fully verifies up front, so
    the returned synopsis can never raise. *)

val load_exn : string -> Synopsis.Sealed.t
(** Lazy {!load}. @raise Failure on read or decode failure. *)

(* ---- integrity -------------------------------------------------------- *)

type info = {
  i_version : int;
  i_nodes : int;
  i_bytes : int;  (** encoded size *)
  i_checksummed : bool;
      (** whether every section CRC was verified by this call: true
          for v2 and eager v3; false for v1 (no checksums — a full
          decode is the only check) and lazy v3 (directory + header
          only, the admission-time subset) *)
}

val verify_string : ?eager:bool -> string -> (info, error) result
(** Integrity check without building a synopsis: validates magic,
    version, and section framing, plus every CRC (v2, and v3 with
    [eager:true], the default), the directory/header subset a lazy
    load would check (v3 with [eager:false]), or fully decodes (v1,
    which has nothing cheaper). *)

val verify : ?eager:bool -> string -> (info, error) result
(** {!verify_string} over a file's contents. *)

type section_status = {
  sec_name : string;
  sec_bytes : int;
  sec_crc_ok : bool option;
      (** [None] when the section carries no CRC (v1) or the check was
          skipped (lazy mode) *)
}

val sections_string : ?eager:bool -> string -> (section_status list, error) result
(** Per-section CRC report, in file order. Unlike {!verify_string}
    this does not stop at the first bad checksum — it localizes the
    damage. [eager:false] checks only what a lazy v3 load would at
    admission (the header section), reporting the rest unchecked.
    Framing damage (bad magic, corrupt directory) still fails the
    whole call. *)

val sections : ?eager:bool -> string -> (section_status list, error) result
(** {!sections_string} over a file's contents. *)
