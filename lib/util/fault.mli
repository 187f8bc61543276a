(** Deterministic, seeded fault injection for the persistence layer
    and the serving plane.

    Production code calls the injection points below at the places
    where real storage and sockets fail — reads ({!mutate}), writes
    ({!raise_io}, {!short_write}). With no configuration the points
    are no-ops (one pointer test, no allocation), so they can sit on
    I/O paths permanently. A configuration is installed only by
    {!configure} — tests toggle faults on and off around specific
    operations; no production binary reads one from its environment.
    While one is active, each point fires with the configured
    probability, drawing from a private seeded {!Rng} stream, so a
    failing run replays exactly from its configuration.

    Every fired fault bumps the [fault.injected] counter in
    {!Metrics.global}. *)

type kind =
  | Truncate  (** a read returns fewer bytes than were written *)
  | Bit_flip  (** a read returns the payload with one bit flipped *)
  | Short_write  (** a write is accepted only partially *)
  | Enospc  (** the device is full *)
  | Eio  (** a generic I/O error *)

val kind_name : kind -> string

type config = {
  seed : int;
  prob : float;
  kinds : kind list;
  sites : string list;  (** empty means every site *)
}

exception Injected of { site : string; kind : kind }
(** Raised by {!raise_io} (and by callers that turn a {!short_write}
    grant into a failure). [Safe_io] catches it at its API boundary and
    returns a typed error — the exception never escapes the
    persistence layer. *)

val configure : config option -> unit
(** Install (or with [None] remove) a configuration. Resets the
    injection RNG to the configuration's seed. *)

val current : unit -> config option
(** The active configuration. Save/restore around a critical region
    with {!configure}. *)

(* ---- injection points ------------------------------------------------- *)

val mutate_sub : site:string -> bytes -> pos:int -> len:int -> int
(** A read-path injection point over the [len]-byte payload at [pos]
    in a caller-owned buffer: returns [len] and leaves the bytes alone,
    or — when a fault fires — damages them in place. [Bit_flip] flips
    one bit of one payload byte and returns [len]; [Truncate] returns
    a shorter visible length (possibly 0) and leaves the bytes as they
    were. Allocates nothing. *)

val mutate : site:string -> string -> string
(** {!mutate_sub} over a copy of a whole string: returns the payload
    unchanged (physically, when no configuration is active), or a
    deterministically damaged copy. The two forms draw the same random
    values, so a seeded storm replays identically through either. *)

val raise_io : site:string -> unit
(** A write-path injection point: returns unit, or raises {!Injected}
    with [Enospc] or [Eio] when such a fault fires. *)

val short_write : site:string -> int -> int
(** [short_write ~site len] is the byte count the simulated device
    accepts for a [len]-byte write: [len] normally, fewer (possibly 0)
    when a [Short_write] fault fires. *)
