(** Serving options.

    One record threaded from the client API through the daemon down to
    the batch evaluator, replacing the old loose [?domains:int]
    convention where [<= 0] silently meant "read the [XC_DOMAINS]
    environment variable". Here the sentinel is the type:
    [domains = None] defers to the process default
    ({!Xc_util.Par.env_domains}), [Some d] requests exactly [d]
    workers. *)

type fallback =
  | Degrade
      (** on a fast-path failure, answer through the slower but
          bit-identical uncached estimator and bump one counter,
          [serve.fallback] for a single query or [serve.batch_fallback]
          for a whole batch *)
  | Strict
      (** on a fast-path failure, return {!Error.Unavailable} instead
          of degrading — for callers that would rather re-route than
          absorb a latency cliff *)

type t = {
  domains : int option;
      (** batch evaluation worker count; [None] means the [XC_DOMAINS]
          environment default *)
  fallback : fallback;
  max_batch : int;
      (** admission limit on queries per [Estimate_batch] request; an
          oversized batch is refused with {!Error.Admission} (a
          permanent error — retrying the same batch cannot succeed, so
          it is deliberately {e not} {!Error.Overloaded}) *)
  max_frame_bytes : int;
      (** admission limit on a single wire frame's payload, clamped to
          the protocol ceiling ({!Protocol.max_payload}); an oversized
          frame is refused with {!Error.Admission} before the payload
          is read *)
}

val default : t
(** [{ domains = None; fallback = Degrade;
      max_batch = 8192; max_frame_bytes = 1 lsl 26 }]. *)

val make :
  ?domains:int ->
  ?fallback:fallback ->
  ?max_batch:int ->
  ?max_frame_bytes:int ->
  unit ->
  t
(** [domains], when given, must be positive; [max_batch] and
    [max_frame_bytes] must be positive.
    @raise Invalid_argument on [domains <= 0] — the old "non-positive
    means environment" sentinel is exactly what this record retires —
    and on non-positive limits. *)

val pp : Format.formatter -> t -> unit
