(** Synopsis persistence.

    A synopsis is built once (minutes for a large document) and consulted
    many times by an optimizer, so it must survive the process that built
    it — and survive what disks do to long-lived artifacts. The format
    is a self-contained binary encoding that embeds the label names
    and dictionary terms it references; loading re-interns them,
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
    backing store, zero-copy, with their verification deferred to
    first touch (see {e one definition of a valid artifact} below).
    v3 is the only format this module reads or writes: a file in an
    older format (v1, v2) is refused by every reader with
    [Unsupported_version], and its remedy is to rebuild the synopsis
    from its document, as a synopsis is derived data.

    {b Failure contract.} Decoding via {!of_string} is total: every
    way an input can be wrong — foreign file, truncation, bit rot,
    hostile length fields — surfaces as an [Error] of the typed
    {!error}, never an exception and never an attacker-controlled
    allocation (length fields are validated against the remaining
    input before anything is allocated). The [_exn] variants exist
    for callers that have already verified their input; they raise
    [Failure] with the rendered error.

    {b One definition of a valid artifact.} What {!of_string} accepts
    is valid, and every other reader holds a file to exactly those
    checks: {!verify} {e is} that decode, and a mapped {!load} runs
    the same checks, only later. It checks magic and version first,
    as the decoder does, then verifies the prologue, directory,
    and node-attribute sections before returning [Ok], runs the CSR
    sections' CRCs and the decoder's structural invariants
    ({!Synopsis.Sealed.invariants}: CSR shape, sid order, positive
    counts) on the synopsis's first numeric access, and decodes each
    value summary on its first read. Those deferred checks raise
    {!Lazy_failure} carrying the error the decoder would have returned
    at the {e access} point — the serve layer catches it and degrades,
    exactly as it would for a load-time [Error]. A synopsis whose
    deferred check failed remembers it: every later access re-raises
    the same exception at once, without re-reading the file. A caller
    that wants a synopsis checked in full up front reads the file and
    calls {!of_string}. Each lazily verified section bumps
    [codec.lazy_verify].

    Persistence goes through {!Xc_util.Safe_io}: {!save} writes
    atomically (temp file → fsync → rename), so a crash mid-save
    leaves the previous synopsis intact; {!load} reads through the
    fault-injection sites ([codec.load] on the string path and the
    mapped path's prologue and node-attribute prefix, [codec.map]
    before mapping, [codec.section_verify] at first touch), so the
    harness can exercise every failure path.
    Decode failures bump [codec.decode_error] (and CRC failures
    additionally [codec.crc_mismatch]) in {!Xc_util.Metrics.global}.

    Only sealed synopses are persisted — a builder is an intermediate
    construction state, not an artifact. Decoding validates the graph
    before sealing it. *)

val version : int
(** The one format version read and written: 3. *)

type error =
  | Bad_magic  (** not an XCluster synopsis file *)
  | Unsupported_version of int
      (** the version field is not v3's; an older-format file is
          rebuilt from its document *)
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
(** A deferred verification or decode failure from a mapped v3
    synopsis, raised at the first access that needed the damaged
    section; it carries the error {!of_string} returns for the same
    bytes. Never raised by a synopsis {!of_string} returned. *)

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
(** Decode a v3 encoding; any other version is [Unsupported_version].
    Total: never raises. *)

val of_string_exn : string -> Synopsis.Sealed.t
(** @raise Failure with the rendered error on any decode failure. *)

(* ---- files ------------------------------------------------------------ *)

val save : string -> Synopsis.Sealed.t -> (unit, error) result
(** Atomic write via {!Xc_util.Safe_io.write_atomic}; on [Error _] a
    pre-existing file at the path is untouched. *)

val save_exn : string -> Synopsis.Sealed.t -> unit
(** @raise Failure on I/O failure. *)

val load : string -> (Synopsis.Sealed.t, error) result
(** Read and decode. [load] itself never raises. On a little-endian
    host the file is memory-mapped with the rest of the decoder's
    checks deferred to first touch — the near-constant-time path;
    deferred failures later raise {!Lazy_failure} at the access point.
    Magic, version and container length are checked before [load]
    returns, in the decoder's order, so a foreign, truncated or
    older-format file is refused with the error {!of_string} gives it.
    On a big-endian host the file takes the string path,
    {!of_string}, so the returned synopsis can never raise. *)

val load_exn : string -> Synopsis.Sealed.t
(** {!load}. @raise Failure on read or decode failure. *)

(* ---- integrity -------------------------------------------------------- *)

type info = {
  i_nodes : int;
  i_bytes : int;  (** encoded size *)
}
(** What {!verify} decoded; the format is always {!version}. *)

val verify : string -> (info, error) result
(** Integrity check of a file: the same full decode {!of_string} runs
    (every checksum and every structural check), so [verify] refuses
    exactly what {!of_string} refuses, with the same error. *)

type section_status = {
  sec_name : string;
  sec_bytes : int;
  sec_crc_ok : bool;
}

val sections_string : string -> (section_status list, error) result
(** Per-section CRC report, in file order, with every section's CRC
    checked. Unlike {!verify} this does not stop at the first bad
    checksum — it localizes the damage. Framing damage (bad magic,
    corrupt directory) still fails the whole call. *)

val sections : string -> (section_status list, error) result
(** {!sections_string} over a file's contents. *)
