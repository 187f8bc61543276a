(** Crash-safe file persistence.

    [write_atomic] never leaves a half-written file where a good one
    was: the payload goes to a temporary file in the target's
    directory, is fsynced, and only then renamed over the target (a
    POSIX-atomic replace). A crash or injected fault at any point
    leaves either the old file or the new one — never a torn mix — and
    the temporary is removed on every failure this process survives.

    Both entry points are {!Fault} injection sites (see the site names
    below), so the fault harness can simulate truncated reads, flipped
    bits, short writes, a full disk, and generic I/O errors without a
    real faulty device. With no {!Fault.configure} configuration
    active they cost one pointer test over plain [Unix] I/O.

    Injection sites: [safe_io.open], [safe_io.write], [safe_io.fsync],
    [safe_io.rename] (via {!Fault.raise_io} / {!Fault.short_write})
    and [safe_io.read] (via {!Fault.mutate}). *)

type error =
  | No_space of string  (** the device is full; payload names the failing step *)
  | Io of string  (** any other I/O failure, with a human-readable message *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val read : string -> (string, error) result
(** The file's entire contents. Never raises. An [Io] message names the
    path exactly once. *)

val write_atomic : string -> string -> (unit, error) result
(** [write_atomic path data] replaces [path] with [data] atomically
    (temp file → fsync → rename → best-effort directory fsync). On
    [Error _] the previous contents of [path], if any, are intact.
    Never raises. *)
