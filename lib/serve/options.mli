(** Kept only so the benchmark compiles: the benchmark's request replay
    still builds [Protocol.Estimate_batch { ...; options = default }].
    Serving policy belongs to the daemon ({!Daemon.config}), and no
    request carries options on the wire. ROADMAP item 2's benchmark PR
    deletes this module with the replay. *)

type t
(** Has one value, {!default}. *)

val default : t
