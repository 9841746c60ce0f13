(** Deterministic, process-global fault injection.

    The injector drives every simulated failure in the stack — store I/O
    errors and torn writes — from one seeded plan so a failing run can be
    replayed exactly.  It is disabled by default and costs one
    mutex-guarded branch per probe site when enabled.

    Enable it either from the environment ([MM_FAULT_SEED=<int>], read
    lazily on the first probe) or programmatically with {!configure}
    (tests).

    Each {!site} owns an independent split RNG stream, so firing one site
    never perturbs another site's decision sequence.  Within a single
    thread the decision sequence per site is a pure function of the seed
    and its rate; across domains the interleaving (and therefore which
    particular operation absorbs a fault) is scheduling-dependent — the
    invariant the rest of the stack enforces is that retries and
    self-healing make *outputs* fault-independent, not that the fault
    pattern itself is stable.

    The contract for every injection point: a fault plan may change
    counters, timings, and logs — never experiment output bytes. *)

type site =
  | Store_read  (** I/O error while reading a store entry *)
  | Store_write  (** I/O error while writing a store entry *)
  | Store_torn  (** store write published truncated (torn write) *)

exception Injected of site
(** Raised by injection points to simulate the failure; carries the site so
    handlers can tell injected failures from real I/O errors. *)

val all_sites : site list

val site_name : site -> string
(** Stable lower-case name, e.g. ["store-read"], for reports and keys. *)

val default_rate : site -> float
(** Per-probe firing probability used when no explicit rate is given. *)

val configure : ?rates:(site * float) list -> seed:int -> unit -> unit
(** [configure ~seed ()] (re)arms the injector with fresh per-site streams
    derived from [seed] and resets all counters.  [rates] overrides the
    default per-site probabilities (entries not listed keep their
    default).  Takes precedence over [MM_FAULT_SEED]. *)

val disable : unit -> unit
(** Disarm the injector and reset counters.  Also suppresses any later
    lazy [MM_FAULT_SEED] arming in this process. *)

val enabled : unit -> bool
(** Whether a fault plan is armed (arming lazily from the environment if
    that has not been checked yet). *)

val seed : unit -> int option
(** The armed plan's seed, if any. *)

val fire : site -> bool
(** [fire site] asks the plan whether this probe should fail, advancing
    [site]'s stream and counting the injection when it fires.  Always
    [false] when disabled. *)

val fraction : site -> float
(** A uniform draw in [0, 1) from [site]'s stream (e.g. where to truncate
    a torn write).  [0.5] when disabled. *)

val injected : site -> int
(** How many times [site] has fired since the plan was (re)armed. *)

val total_injected : unit -> int
