(** The discrete-event serving simulator: open-loop arrivals dispatched
    onto per-core FIFO run queues.

    One run plays [requests] arrivals through [cores] servers.  Service
    demand per request is [service.(k - 1) * m_i] where [k] is the number
    of concurrently busy cores when the request starts (the contention
    table from {!Contention.service_seconds}) and [m_i] an exponential
    mean-1 multiplier fixed per request.  Every run is a pure function of
    its configuration: arrivals, service multipliers, flow ids and retry
    jitter are pre-drawn from (or deterministically consumed off) split
    {!Mm_stats.Rng} streams seeded by [seed], so a run is deterministic
    and independent of wall clock, process or domain count.

    Load sweeps reuse {e one} unit-rate arrival sequence scaled by
    [1 / rate] (see {!Arrival}), so raising the rate compresses the same
    traffic pattern: sweep points differ only in load, and latency curves
    are monotone in load by construction.

    {b Overload resilience.}  A {!Policy.t} adds client deadlines,
    retries with capped exponential backoff + jitter, and admission
    control.  A client request (an "original") then becomes a chain of
    attempts; the outcome separates {e throughput} (all completions,
    including work finished after its client timed out) from {e goodput}
    (completions that made their deadline).  [?policy] defaults to
    {!Policy.none}, which reproduces the happy-path simulator exactly —
    same streams, same event order, same numbers.

    {b Event order.}  Besides departures (a scan of the at most [cores]
    busy servers, ties to the lowest core), events come from three
    sources, and the loop takes the least by (time, push sequence):
    - a cursor over the pre-drawn arrivals, already sorted; original [i]
      has sequence [i], below every later push;
    - a FIFO of timeouts: each is pushed [deadline] after the arrival
      being handled, the clock never goes back and the deadline is
      fixed, so the FIFO is sorted by (time, sequence) as it stands;
    - a binary heap of retries, whose backoff and jitter vary.
    Later pushes take the next sequence number of one running counter,
    so merging the three sources gives exactly the order of a single
    heap holding every arrival, timeout and retry, and a departure still
    wins any tie.  Attempts are int ids into flat columns, run queues
    are int rings, and the float accumulators live in a float array, so
    the loop allocates nothing per event beyond the histogram sample and
    the retry jitter draw. *)

type config = {
  cores : int;
  arrival : Arrival.kind;
  dispatch : Dispatch.policy;
  rate : float;  (** offered load, requests/second; must be positive *)
  requests : int;
  warmup_frac : float;
      (** leading fraction of requests excluded from the histogram *)
  seed : int;
}

type outcome = {
  o_config : config;
  o_policy : Policy.t;
  hist : Mm_stats.Histogram.t;
      (** sojourn time (queueing + service) of successful attempts,
          seconds, post-warmup *)
  measured : int;  (** requests recorded in [hist] *)
  achieved_rps : float;  (** all completions / makespan — raw throughput *)
  utilization : float;
      (** busy core-seconds / (cores × makespan), including wasted work *)
  saturated : bool;
      (** the run could not keep up: completing all requests overran the
          arrival horizon by more than the drain slack (5% of the
          horizon, floored at ten all-busy service times so short runs
          are not flagged for ordinary tail draining), i.e. the backlog
          grew without bound and sojourn times are departure-rate
          artifacts *)
  max_outstanding : int;  (** peak requests in the system at once *)
  attempts : int;
      (** arrivals processed, originals + retries ([= requests] under
          {!Policy.none}) *)
  completions : int;  (** attempts served to completion, timely or not *)
  ok : int;  (** completions that beat their deadline (goodput count) *)
  timeouts : int;  (** attempts whose client deadline expired *)
  sheds : int;  (** attempts rejected by admission control *)
  give_ups : int;  (** originals that exhausted every retry *)
  goodput_rps : float;  (** [ok] / makespan *)
  retry_amplification : float;
      (** [attempts] / [requests] — 1.0 means no retry storm *)
}

val run : ?policy:Policy.t -> config -> service:float array -> outcome
(** [service] is the contention table: [service.(k - 1)] seconds of
    demand with [k] cores busy; its length must be at least
    [config.cores] (higher concurrency clamps to the last entry).
    Raises [Invalid_argument] on a non-positive rate or request count,
    [warmup_frac] outside [0, 1), a short/empty/non-positive [service]
    table, or an invalid [policy] (see {!Policy.validate}). *)

val replay :
  ?policy:Policy.t ->
  config ->
  service:float array ->
  arrivals:float array ->
  mult:float array ->
  flow:int array ->
  outcome
(** {!run} with the pre-drawn streams given instead of drawn from
    [config.seed]: absolute arrival times (so [config.rate] is not
    applied), per-request service multipliers and flow ids; retry jitter
    is still drawn from [config.seed].  [run] is [replay] of the streams
    it draws.  Tests use it to place events on exact ties.  Raises
    [Invalid_argument] as {!run} does, and when an array's length is not
    [config.requests], an arrival time is negative, non-finite or
    earlier than its predecessor, a multiplier is not positive and
    finite, or a flow id is negative. *)
