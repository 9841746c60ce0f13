(* Reference model for the serving simulator: the event core [Sim.run]
   had before its allocation-free rewrite, kept verbatim — one binary
   heap on (time, push sequence) holding every arrival, timeout and
   retry, and a boxed record per attempt.  Slow and plainly right, it is
   the oracle test_serve checks the fast core against, outcome field by
   outcome field.  Only the random draws are split off ([run] draws them
   exactly as [Sim.run] does; [replay] takes them given), and inputs are
   assumed valid.  Test-only: nothing in lib/ uses it. *)

open Mm_serve
open Sim
module Rng = Mm_stats.Rng
module Histogram = Mm_stats.Histogram

(* One attempt = one request as the front-end sees it.  A client request
   (an "original") is a chain of attempts: the original arrival plus any
   retries its policy spawns after sheds or timeouts. *)
type req_state = Queued | Serving | Done | Abandoned

type attempt = {
  a_orig : int;  (** index of the original request *)
  a_try : int;  (** 0 = original, k = k-th retry *)
  a_arrival : float;
  mutable a_state : req_state;
  mutable a_timed_out : bool;
}

type event = Arrive of attempt | Timeout of attempt

(* Binary min-heap on (time, push sequence): equal-time events pop in
   push order, which keeps the event order — and therefore the run — a
   pure function of the configuration. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable evs : event array;
    mutable len : int;
  }

  let dummy = Arrive { a_orig = -1; a_try = 0; a_arrival = 0.0; a_state = Done; a_timed_out = false }

  let create cap =
    let cap = Stdlib.max 16 cap in
    { times = Array.make cap 0.0; seqs = Array.make cap 0; evs = Array.make cap dummy; len = 0 }

  let before h i j =
    h.times.(i) < h.times.(j)
    || (h.times.(i) = h.times.(j) && h.seqs.(i) < h.seqs.(j))

  let swap h i j =
    let t = h.times.(i) in h.times.(i) <- h.times.(j); h.times.(j) <- t;
    let s = h.seqs.(i) in h.seqs.(i) <- h.seqs.(j); h.seqs.(j) <- s;
    let e = h.evs.(i) in h.evs.(i) <- h.evs.(j); h.evs.(j) <- e

  let push h time seq ev =
    if h.len = Array.length h.times then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      h.times <- grow h.times 0.0;
      h.seqs <- grow h.seqs 0;
      h.evs <- grow h.evs dummy
    end;
    let i = ref h.len in
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.evs.(!i) <- ev;
    h.len <- h.len + 1;
    while !i > 0 && before h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let min_time h = if h.len = 0 then None else Some h.times.(0)

  let pop h =
    assert (h.len > 0);
    let ev = h.evs.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.times.(0) <- h.times.(h.len);
      h.seqs.(0) <- h.seqs.(h.len);
      h.evs.(0) <- h.evs.(h.len);
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
    end;
    ev
end

let replay_on ~policy cfg ~service ~arrivals ~mult ~flow ~retry_rng =
  let n = cfg.requests in
  let cores = cfg.cores in
  let warmup = int_of_float (cfg.warmup_frac *. float_of_int n) in

  let queues : attempt Queue.t array = Array.init cores (fun _ -> Queue.create ()) in
  let busy : attempt option array = Array.make cores None in
  let busy_done = Array.make cores infinity in
  let busy_count = ref 0 in
  let busy_seconds = ref 0.0 in
  let dispatcher = Dispatch.create cfg.dispatch ~cores in
  let load c =
    Queue.length queues.(c) + (match busy.(c) with Some _ -> 1 | None -> 0)
  in

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
  let last_completion = ref 0.0 in

  (* An original is resolved by its first successful completion or by
     exhausting its retries; the run ends when every original is resolved
     and the servers have drained the leftover (zombie) work. *)
  let resolved = ref 0 in
  let orig_done = Array.make n false in
  let resolve_orig i =
    if not orig_done.(i) then begin
      orig_done.(i) <- true;
      incr resolved
    end
  in

  let heap = Heap.create (2 * n) in
  let seq = ref 0 in
  let push time ev =
    Heap.push heap time !seq ev;
    incr seq
  in
  Array.iteri
    (fun i t ->
      push t
        (Arrive { a_orig = i; a_try = 0; a_arrival = t; a_state = Queued; a_timed_out = false }))
    arrivals;

  let backoff k =
    (* Capped exponential: base, 2*base, 4*base, ... up to cap, scaled by
       a deterministic jitter draw from [1 - jitter, 1]. *)
    let b =
      Float.min policy.Policy.backoff_cap
        (policy.Policy.backoff_base *. (2.0 ** float_of_int (k - 1)))
    in
    let j = policy.Policy.jitter in
    if j <= 0.0 then b else b *. (1.0 -. j +. (j *. Rng.float retry_rng))
  in
  let retry_or_give_up (a : attempt) ~now =
    if a.a_try < policy.Policy.max_retries then begin
      let t = now +. backoff (a.a_try + 1) in
      push t
        (Arrive
           { a_orig = a.a_orig; a_try = a.a_try + 1; a_arrival = t;
             a_state = Queued; a_timed_out = false })
    end
    else begin
      incr give_ups;
      resolve_orig a.a_orig
    end
  in

  let start_service core (a : attempt) now =
    incr busy_count;
    let k = Stdlib.min !busy_count (Array.length service) in
    let dur = service.(k - 1) *. mult.(a.a_orig) in
    a.a_state <- Serving;
    busy.(core) <- Some a;
    busy_done.(core) <- now +. dur;
    busy_seconds := !busy_seconds +. dur
  in
  (* Dequeue the next live attempt, discarding ones abandoned by their
     timeout while they waited. *)
  let rec next_live core =
    match Queue.take_opt queues.(core) with
    | None -> None
    | Some a ->
      if a.a_state = Abandoned then begin
        decr outstanding;
        next_live core
      end
      else Some a
  in

  let handle_arrival (a : attempt) now =
    incr attempts;
    let core = Dispatch.pick dispatcher ~load ~flow:flow.(a.a_orig) in
    let admitted =
      match policy.Policy.admission with
      | Policy.Always -> true
      | Policy.Queue_limit l -> load core < l
      | Policy.Deadline_aware -> (
        match policy.Policy.deadline with
        | None -> true
        | Some d ->
          (* Predicted wait from the chosen core's backlog at current
             contention; pessimistic admission sheds work that would
             only time out in the queue. *)
          let k = Stdlib.min (!busy_count + 1) (Array.length service) in
          float_of_int (load core) *. service.(k - 1) <= d)
    in
    if not admitted then begin
      incr sheds;
      retry_or_give_up a ~now
    end
    else begin
      incr outstanding;
      if !outstanding > !max_outstanding then max_outstanding := !outstanding;
      (match policy.Policy.deadline with
      | Some d -> push (now +. d) (Timeout a)
      | None -> ());
      match busy.(core) with
      | None -> start_service core a now
      | Some _ -> Queue.push a queues.(core)
    end
  in

  let handle_timeout (a : attempt) now =
    match a.a_state with
    | Done | Abandoned -> ()
    | Queued ->
      (* Client walks away; the slot is discarded when the core reaches
         it, so the abandoned request wastes queue space but no CPU. *)
      a.a_state <- Abandoned;
      a.a_timed_out <- true;
      incr timeouts;
      retry_or_give_up a ~now
    | Serving ->
      (* Too late to shed: the server finishes the request anyway and
         the work is wasted — the essence of metastable overload. *)
      a.a_timed_out <- true;
      incr timeouts;
      retry_or_give_up a ~now
  in

  let handle_departure core dep_t =
    let a = match busy.(core) with Some a -> a | None -> assert false in
    a.a_state <- Done;
    incr completions;
    decr outstanding;
    last_completion := dep_t;
    busy.(core) <- None;
    busy_done.(core) <- infinity;
    decr busy_count;
    if not a.a_timed_out then begin
      incr ok;
      resolve_orig a.a_orig;
      if a.a_orig >= warmup then begin
        Histogram.add hist (Float.max 0.0 (dep_t -. a.a_arrival));
        incr measured
      end
    end;
    match next_live core with
    | Some b -> start_service core b dep_t
    | None -> ()
  in

  while !resolved < n || !busy_count > 0 do
    (* Next departure: linear scan — at most [cores] candidates, ties to
       the lowest core index so event order is deterministic. *)
    let dep_core = ref (-1) in
    for c = 0 to cores - 1 do
      if
        busy.(c) <> None
        && (!dep_core < 0 || busy_done.(c) < busy_done.(!dep_core))
      then dep_core := c
    done;
    let dep_t = if !dep_core >= 0 then busy_done.(!dep_core) else infinity in
    let ev_t = match Heap.min_time heap with Some t -> t | None -> infinity in
    if dep_t <= ev_t then
      (* Departure first on a tie: the freed core is visible to the
         arrival dispatched at the same instant. *)
      handle_departure !dep_core dep_t
    else
      match Heap.pop heap with
      | Arrive a -> handle_arrival a ev_t
      | Timeout a -> handle_timeout a ev_t
  done;
  let horizon = arrivals.(n - 1) in
  let makespan = Float.max !last_completion epsilon_float in
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
    utilization = !busy_seconds /. (float_of_int cores *. makespan);
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

let streams cfg =
  let root = Rng.create ~seed:cfg.seed in
  let arr_rng = Rng.split root in
  let svc_rng = Rng.split root in
  let flow_rng = Rng.split root in
  let retry_rng = Rng.split root in
  (arr_rng, svc_rng, flow_rng, retry_rng)

(* The draws of [Sim.run], as the old core made them. *)
let run ?(policy = Policy.none) cfg ~service =
  let n = cfg.requests in
  let cores = cfg.cores in
  let arr_rng, svc_rng, flow_rng, retry_rng = streams cfg in
  let unit = Arrival.unit_times cfg.arrival arr_rng n in
  let arrivals = Array.map (fun t -> t /. cfg.rate) unit in
  let mult = Array.init n (fun _ -> Rng.exponential svc_rng ~mean:1.0) in
  let flow = Array.init n (fun _ -> Rng.int flow_rng ~bound:(8 * cores)) in
  replay_on ~policy cfg ~service ~arrivals ~mult ~flow ~retry_rng

let replay ?(policy = Policy.none) cfg ~service ~arrivals ~mult ~flow =
  let _, _, _, retry_rng = streams cfg in
  replay_on ~policy cfg ~service ~arrivals ~mult ~flow ~retry_rng
