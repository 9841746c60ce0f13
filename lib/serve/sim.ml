module Rng = Mm_stats.Rng
module Histogram = Mm_stats.Histogram

type config = {
  cores : int;
  arrival : Arrival.kind;
  dispatch : Dispatch.policy;
  rate : float;
  requests : int;
  warmup_frac : float;
  seed : int;
}

type outcome = {
  o_config : config;
  o_policy : Policy.t;
  hist : Histogram.t;
  measured : int;
  achieved_rps : float;
  utilization : float;
  saturated : bool;
  max_outstanding : int;
  attempts : int;
  completions : int;
  ok : int;
  timeouts : int;
  sheds : int;
  give_ups : int;
  goodput_rps : float;
  retry_amplification : float;
}

let validate cfg ~service =
  if cfg.cores < 1 then invalid_arg "Sim.run: cores must be >= 1";
  if cfg.requests < 1 then invalid_arg "Sim.run: requests must be >= 1";
  if not (cfg.rate > 0.0 && Float.is_finite cfg.rate) then
    invalid_arg "Sim.run: rate must be positive";
  if cfg.warmup_frac < 0.0 || cfg.warmup_frac >= 1.0 then
    invalid_arg "Sim.run: warmup_frac must be in [0, 1)";
  if Array.length service < cfg.cores then
    invalid_arg "Sim.run: service table shorter than the core count";
  Array.iter
    (fun s ->
      if not (s > 0.0 && Float.is_finite s) then
        invalid_arg "Sim.run: service times must be positive")
    service

(* A copy of [a] at twice its length, the new tail zeroed. *)
let doubled a zero =
  let b = Array.make (2 * Array.length a) zero in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Growable FIFO of ints in a power-of-two ring: the per-core run queues
   and the timeout queue.  [length] counts every entry still held,
   abandoned ones included. *)
module Ring = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 16 0; head = 0; len = 0 }

  let length r = r.len

  let push r x =
    let cap = Array.length r.buf in
    if r.len = cap then begin
      let buf = Array.make (2 * cap) 0 in
      for i = 0 to r.len - 1 do
        buf.(i) <- r.buf.((r.head + i) land (cap - 1))
      done;
      r.buf <- buf;
      r.head <- 0
    end;
    r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- x;
    r.len <- r.len + 1

  (* [peek] and [pop] require a non-empty ring. *)
  let peek r = r.buf.(r.head)

  let pop r =
    let x = r.buf.(r.head) in
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    x
end

(* Binary min-heap of pending retries on (time, push sequence), in flat
   arrays: equal-time retries pop in push order. *)
module Retries = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable ids : int array;
    mutable len : int;
  }

  let create () =
    { times = Array.make 16 0.0; seqs = Array.make 16 0; ids = Array.make 16 0; len = 0 }

  let before h i j =
    h.times.(i) < h.times.(j)
    || (h.times.(i) = h.times.(j) && h.seqs.(i) < h.seqs.(j))

  let swap h i j =
    let t = h.times.(i) in h.times.(i) <- h.times.(j); h.times.(j) <- t;
    let s = h.seqs.(i) in h.seqs.(i) <- h.seqs.(j); h.seqs.(j) <- s;
    let d = h.ids.(i) in h.ids.(i) <- h.ids.(j); h.ids.(j) <- d

  let grow h =
    h.times <- doubled h.times 0.0;
    h.seqs <- doubled h.seqs 0;
    h.ids <- doubled h.ids 0

  (* Inlined so the time is never boxed. *)
  let[@inline] push h time seq id =
    if h.len = Array.length h.seqs then grow h;
    let i = ref h.len in
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.ids.(!i) <- id;
    h.len <- h.len + 1;
    while !i > 0 && before h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Drop the minimum; read it from slot 0 first.  Requires [len > 0]. *)
  let pop h =
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.times.(0) <- h.times.(h.len);
      h.seqs.(0) <- h.seqs.(h.len);
      h.ids.(0) <- h.ids.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && before h l !smallest then smallest := l;
        if r < h.len && before h r !smallest then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done
    end
end

(* One attempt = one request as the front-end sees it.  A client request
   (an "original") is a chain of attempts: the original arrival plus any
   retries its policy spawns after sheds or timeouts.  Attempts are int
   ids into these columns; ids [0, n) are the originals, in arrival
   order, and each retry takes the next free id. *)
type attempts = {
  mutable orig : int array;  (** index of the original request *)
  mutable tries : int array;  (** 0 = original, k = k-th retry *)
  mutable arrival : float array;
  mutable state : Bytes.t;  (** [queued] | [serving] | [finished] | [abandoned] *)
  mutable timed_out : Bytes.t;  (** ['\001'] once its deadline expired *)
  mutable count : int;
}

let queued = '\000'
let serving = '\001'
let finished = '\002'
let abandoned = '\003'

let grow_attempts at =
  let cap = Array.length at.orig in
  at.orig <- doubled at.orig 0;
  at.tries <- doubled at.tries 0;
  at.arrival <- doubled at.arrival 0.0;
  at.state <- Bytes.extend at.state 0 cap;
  at.timed_out <- Bytes.extend at.timed_out 0 cap

(* Slots of the float state array [fs]: floats kept there, not in refs
   captured by the handlers, stay unboxed. *)
let f_now = 0 (* time of the event being handled *)
let f_busy = 1 (* busy core-seconds, wasted work included *)
let f_last = 2 (* time of the last completion *)

(* The event loop.  Events come from four sources: departures (a scan of
   at most [cores] busy servers), the arrivals array (sorted, read by a
   cursor), the timeout FIFO and the retry heap.  Their merge reproduces
   the order of one binary heap on (time, push sequence) holding every
   arrival, timeout and retry: see the interface. *)
let simulate ~policy cfg ~service ~arrivals ~mult ~flow ~retry_rng =
  let n = cfg.requests in
  let cores = cfg.cores in
  let warmup = int_of_float (cfg.warmup_frac *. float_of_int n) in
  let deadline = Option.value policy.Policy.deadline ~default:infinity in
  let has_deadline = Option.is_some policy.Policy.deadline in

  let at =
    {
      orig = Array.init n Fun.id;
      tries = Array.make n 0;
      arrival = Array.copy arrivals;
      state = Bytes.make n queued;
      timed_out = Bytes.make n '\000';
      count = n;
    }
  in
  let queues = Array.init cores (fun _ -> Ring.create ()) in
  let busy = Array.make cores (-1) in
  let busy_done = Array.make cores infinity in
  let busy_count = ref 0 in
  let fs = Array.make 3 0.0 in
  let dispatcher = Dispatch.create cfg.dispatch ~cores in
  let load c = Ring.length queues.(c) + if busy.(c) >= 0 then 1 else 0 in

  let hist = Histogram.create () in
  let measured = ref 0 in
  let outstanding = ref 0 in
  let max_outstanding = ref 0 in
  let attempts = ref 0 in
  let completions = ref 0 in
  let ok = ref 0 in
  let timeouts = ref 0 in
  let sheds = ref 0 in
  let give_ups = ref 0 in

  (* An original is resolved by its first successful completion or by
     exhausting its retries; the run ends when every original is resolved
     and the servers have drained the leftover (zombie) work. *)
  let resolved = ref 0 in
  let orig_done = Bytes.make n '\000' in
  let resolve_orig i =
    if Bytes.get orig_done i = '\000' then begin
      Bytes.set orig_done i '\001';
      incr resolved
    end
  in

  (* Original [i] has push sequence [i]; every later push (a timeout or a
     retry) takes the next one. *)
  let next_arrival = ref 0 in
  let seq = ref n in
  let timeout_ids = Ring.create () and timeout_seqs = Ring.create () in
  let retries = Retries.create () in

  let retry_or_give_up a =
    let try_ = at.tries.(a) in
    if try_ < policy.Policy.max_retries then begin
      (* Capped exponential: base, 2*base, 4*base, ... up to cap, scaled
         by a deterministic jitter draw from [1 - jitter, 1]. *)
      let k = try_ + 1 in
      let b =
        Float.min policy.Policy.backoff_cap
          (policy.Policy.backoff_base *. (2.0 ** float_of_int (k - 1)))
      in
      let j = policy.Policy.jitter in
      let b = if j <= 0.0 then b else b *. (1.0 -. j +. (j *. Rng.float retry_rng)) in
      let t = fs.(f_now) +. b in
      if at.count = Array.length at.orig then grow_attempts at;
      let r = at.count in
      at.count <- r + 1;
      at.orig.(r) <- at.orig.(a);
      at.tries.(r) <- k;
      at.arrival.(r) <- t;
      Bytes.set at.state r queued;
      Bytes.set at.timed_out r '\000';
      Retries.push retries t !seq r;
      incr seq
    end
    else begin
      incr give_ups;
      resolve_orig at.orig.(a)
    end
  in

  let start_service core a =
    incr busy_count;
    let k = Stdlib.min !busy_count (Array.length service) in
    let dur = service.(k - 1) *. mult.(at.orig.(a)) in
    Bytes.set at.state a serving;
    busy.(core) <- a;
    busy_done.(core) <- fs.(f_now) +. dur;
    fs.(f_busy) <- fs.(f_busy) +. dur
  in
  (* Dequeue the next live attempt, discarding ones abandoned by their
     timeout while they waited; -1 when none is left. *)
  let next_live core =
    let q = queues.(core) in
    let next = ref (-1) in
    while !next < 0 && Ring.length q > 0 do
      let a = Ring.pop q in
      if Bytes.get at.state a = abandoned then decr outstanding else next := a
    done;
    !next
  in

  let handle_arrival a =
    incr attempts;
    let core = Dispatch.pick dispatcher ~load ~flow:flow.(at.orig.(a)) in
    let admitted =
      match policy.Policy.admission with
      | Policy.Always -> true
      | Policy.Queue_limit l -> load core < l
      | Policy.Deadline_aware ->
        (* Predicted wait from the chosen core's backlog at current
           contention; pessimistic admission sheds work that would only
           time out in the queue. *)
        (not has_deadline)
        ||
        let k = Stdlib.min (!busy_count + 1) (Array.length service) in
        float_of_int (load core) *. service.(k - 1) <= deadline
    in
    if not admitted then begin
      incr sheds;
      retry_or_give_up a
    end
    else begin
      incr outstanding;
      if !outstanding > !max_outstanding then max_outstanding := !outstanding;
      if has_deadline then begin
        Ring.push timeout_ids a;
        Ring.push timeout_seqs !seq;
        incr seq
      end;
      if busy.(core) < 0 then start_service core a else Ring.push queues.(core) a
    end
  in

  let handle_timeout a =
    let state = Bytes.get at.state a in
    if state = queued || state = serving then begin
      (* Queued: the client walks away; the slot is discarded when the
         core reaches it, so the abandoned request wastes queue space but
         no CPU.  Serving: too late to shed; the server finishes the
         request anyway and the work is wasted — the essence of
         metastable overload. *)
      if state = queued then Bytes.set at.state a abandoned;
      Bytes.set at.timed_out a '\001';
      incr timeouts;
      retry_or_give_up a
    end
  in

  let handle_departure core =
    let a = busy.(core) in
    let now = fs.(f_now) in
    Bytes.set at.state a finished;
    incr completions;
    decr outstanding;
    fs.(f_last) <- now;
    busy.(core) <- -1;
    busy_done.(core) <- infinity;
    decr busy_count;
    if Bytes.get at.timed_out a = '\000' then begin
      let i = at.orig.(a) in
      incr ok;
      resolve_orig i;
      if i >= warmup then begin
        Histogram.add hist (Float.max 0.0 (now -. at.arrival.(a)));
        incr measured
      end
    end;
    let b = next_live core in
    if b >= 0 then start_service core b
  in

  while !resolved < n || !busy_count > 0 do
    (* Next departure: linear scan — at most [cores] candidates, ties to
       the lowest core index so event order is deterministic. *)
    let dep_core = ref (-1) in
    for c = 0 to cores - 1 do
      if busy.(c) >= 0 && (!dep_core < 0 || busy_done.(c) < busy_done.(!dep_core))
      then dep_core := c
    done;
    let dep_t = if !dep_core >= 0 then busy_done.(!dep_core) else infinity in
    (* The earliest pending timeout or retry by (time, seq).  A timeout
       fires [deadline] after its attempt arrived. *)
    let timeout_t =
      if Ring.length timeout_ids > 0 then
        at.arrival.(Ring.peek timeout_ids) +. deadline
      else infinity
    in
    let timeout_first =
      Ring.length timeout_ids > 0
      && (retries.Retries.len = 0
         || timeout_t < retries.Retries.times.(0)
         || timeout_t = retries.Retries.times.(0)
            && Ring.peek timeout_seqs < retries.Retries.seqs.(0))
    in
    let later_t =
      if timeout_first then timeout_t
      else if retries.Retries.len > 0 then retries.Retries.times.(0)
      else infinity
    in
    (* An original's seq is below every later push, so it wins any tie. *)
    let arrival_first = !next_arrival < n && arrivals.(!next_arrival) <= later_t in
    let ev_t = if arrival_first then arrivals.(!next_arrival) else later_t in
    if dep_t <= ev_t then begin
      (* Departure first on a tie: the freed core is visible to the
         arrival dispatched at the same instant. *)
      fs.(f_now) <- dep_t;
      handle_departure !dep_core
    end
    else begin
      fs.(f_now) <- ev_t;
      if arrival_first then begin
        let a = !next_arrival in
        incr next_arrival;
        handle_arrival a
      end
      else if timeout_first then begin
        ignore (Ring.pop timeout_seqs);
        handle_timeout (Ring.pop timeout_ids)
      end
      else begin
        let a = retries.Retries.ids.(0) in
        Retries.pop retries;
        handle_arrival a
      end
    end
  done;
  let horizon = arrivals.(n - 1) in
  let makespan = Float.max fs.(f_last) epsilon_float in
  (* Saturation = the backlog outlived the arrivals by more than drain
     slack: 5% of the horizon, but never less than a handful of all-busy
     service times, so short sweeps are not flagged for the ordinary
     tail-draining every finite run ends with. *)
  let slack = Float.max (0.05 *. horizon) (10.0 *. service.(cores - 1)) in
  {
    o_config = cfg;
    o_policy = policy;
    hist;
    measured = !measured;
    achieved_rps = float_of_int !completions /. makespan;
    utilization = fs.(f_busy) /. (float_of_int cores *. makespan);
    saturated = makespan > horizon +. slack;
    max_outstanding = !max_outstanding;
    attempts = !attempts;
    completions = !completions;
    ok = !ok;
    timeouts = !timeouts;
    sheds = !sheds;
    give_ups = !give_ups;
    goodput_rps = float_of_int !ok /. makespan;
    retry_amplification = float_of_int !attempts /. float_of_int n;
  }

(* All randomness is drawn up front, one split stream per purpose, so the
   event loop is pure bookkeeping and a sweep's streams do not interleave
   differently as the rate changes.  The retry stream is split last: with
   [Policy.none] it is never drawn and the first three streams are
   bit-identical to the pre-policy simulator's. *)
let streams cfg =
  let root = Rng.create ~seed:cfg.seed in
  let arr_rng = Rng.split root in
  let svc_rng = Rng.split root in
  let flow_rng = Rng.split root in
  let retry_rng = Rng.split root in
  (arr_rng, svc_rng, flow_rng, retry_rng)

let run ?(policy = Policy.none) cfg ~service =
  validate cfg ~service;
  Policy.validate policy;
  let n = cfg.requests in
  let arr_rng, svc_rng, flow_rng, retry_rng = streams cfg in
  let arrivals = Arrival.unit_times cfg.arrival arr_rng n in
  for i = 0 to n - 1 do
    arrivals.(i) <- arrivals.(i) /. cfg.rate
  done;
  let mult = Array.make n 0.0 in
  for i = 0 to n - 1 do
    mult.(i) <- Rng.exponential svc_rng ~mean:1.0
  done;
  let flow = Array.init n (fun _ -> Rng.int flow_rng ~bound:(8 * cfg.cores)) in
  simulate ~policy cfg ~service ~arrivals ~mult ~flow ~retry_rng

let replay ?(policy = Policy.none) cfg ~service ~arrivals ~mult ~flow =
  validate cfg ~service;
  Policy.validate policy;
  let n = cfg.requests in
  if Array.length arrivals <> n || Array.length mult <> n || Array.length flow <> n
  then invalid_arg "Sim.replay: arrivals, mult and flow need one entry per request";
  Array.iteri
    (fun i t ->
      if not (t >= 0.0 && Float.is_finite t && (i = 0 || t >= arrivals.(i - 1)))
      then invalid_arg "Sim.replay: arrival times must be finite, >= 0 and nondecreasing")
    arrivals;
  Array.iter
    (fun m ->
      if not (m > 0.0 && Float.is_finite m) then
        invalid_arg "Sim.replay: service multipliers must be positive")
    mult;
  Array.iter (fun f -> if f < 0 then invalid_arg "Sim.replay: flow ids must be >= 0") flow;
  let _, _, _, retry_rng = streams cfg in
  simulate ~policy cfg ~service ~arrivals ~mult ~flow ~retry_rng
