(* Tests for lib/serve: arrival processes, dispatch policies, the
   discrete-event loop and its reference model, the sweep codec, and the end-to-end claim the
   subsystem exists for — the region allocator hits the latency cliff at
   lower offered load than default on 8 Xeon cores. *)

module Rng = Mm_stats.Rng
module Arrival = Mm_serve.Arrival
module Dispatch = Mm_serve.Dispatch
module Contention = Mm_serve.Contention
module Sim = Mm_serve.Sim
module Policy = Mm_serve.Policy
module Sweep = Mm_serve.Sweep
module Ctx = Mm_experiments.Context
module Lat = Mm_experiments.Exp_latency
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Spec = Mm_workload.Spec

(* --- Arrival --- *)

let test_arrival_nondecreasing () =
  List.iter
    (fun kind ->
      let t = Arrival.unit_times kind (Rng.create ~seed:7) 5000 in
      Alcotest.(check int) "length" 5000 (Array.length t);
      for i = 1 to Array.length t - 1 do
        if t.(i) < t.(i - 1) then
          Alcotest.failf "%s: decreasing at %d" (Arrival.name kind) i
      done;
      if t.(0) < 0.0 then Alcotest.fail "negative timestamp")
    Arrival.all

let test_arrival_unit_mean_rate () =
  (* n arrivals at unit mean rate span ~n time units — for the MMPP too,
     whose stationary rate is normalized to 1. *)
  List.iter
    (fun kind ->
      let n = 40_000 in
      let t = Arrival.unit_times kind (Rng.create ~seed:11) n in
      let rate = float_of_int n /. t.(n - 1) in
      if Float.abs (rate -. 1.0) > 0.08 then
        Alcotest.failf "%s: mean rate %.3f not ~1" (Arrival.name kind) rate)
    Arrival.all

let test_arrival_deterministic () =
  List.iter
    (fun kind ->
      let a = Arrival.unit_times kind (Rng.create ~seed:3) 1000 in
      let b = Arrival.unit_times kind (Rng.create ~seed:3) 1000 in
      Alcotest.(check bool) "same sequence" true (a = b))
    Arrival.all

let test_arrival_prefix_stable () =
  List.iter
    (fun kind ->
      let long = Arrival.unit_times kind (Rng.create ~seed:5) 1000 in
      let short = Arrival.unit_times kind (Rng.create ~seed:5) 100 in
      Alcotest.(check bool) "prefix" true
        (Array.sub long 0 100 = short))
    Arrival.all

let test_arrival_bursty_is_burstier () =
  (* Squared coefficient of variation of interarrival gaps: 1 for
     Poisson, above 1 for the MMPP. *)
  let scv kind =
    let n = 40_000 in
    let t = Arrival.unit_times kind (Rng.create ~seed:13) n in
    let s = Mm_stats.Summary.create () in
    for i = 1 to n - 1 do
      Mm_stats.Summary.add s (t.(i) -. t.(i - 1))
    done;
    let m = Mm_stats.Summary.mean s in
    Mm_stats.Summary.variance s /. (m *. m)
  in
  let poisson = scv Arrival.Poisson and bursty = scv Arrival.Bursty in
  Alcotest.(check bool)
    (Printf.sprintf "bursty scv %.2f > poisson scv %.2f +20%%" bursty poisson)
    true
    (bursty > poisson *. 1.2)

let test_arrival_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "roundtrip" true
        (Arrival.of_name (Arrival.name k) = Some k))
    Arrival.all;
  Alcotest.(check bool) "unknown" true (Arrival.of_name "weibull" = None)

(* --- Dispatch --- *)

let test_dispatch_round_robin_cycles () =
  let d = Dispatch.create Dispatch.Round_robin ~cores:3 in
  let picks =
    List.init 7 (fun _ -> Dispatch.pick d ~load:(fun _ -> 0) ~flow:0)
  in
  Alcotest.(check (list int)) "cycle" [ 0; 1; 2; 0; 1; 2; 0 ] picks

let test_dispatch_least_loaded () =
  let d = Dispatch.create Dispatch.Least_loaded ~cores:4 in
  let loads = [| 3; 1; 0; 2 |] in
  Alcotest.(check int) "min load" 2
    (Dispatch.pick d ~load:(fun i -> loads.(i)) ~flow:0);
  (* Ties break to the lowest index. *)
  let flat = [| 1; 1; 1; 1 |] in
  Alcotest.(check int) "tie to lowest" 0
    (Dispatch.pick d ~load:(fun i -> flat.(i)) ~flow:0)

let test_dispatch_affinity () =
  let d = Dispatch.create Dispatch.Affinity ~cores:4 in
  List.iter
    (fun flow ->
      Alcotest.(check int)
        (Printf.sprintf "flow %d" flow)
        (flow mod 4)
        (Dispatch.pick d ~load:(fun _ -> 0) ~flow))
    [ 0; 1; 5; 11 ]

let test_dispatch_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Dispatch.of_name (Dispatch.name p) = Some p))
    Dispatch.all

(* --- Sim --- *)

let flat_service cores s = Array.make cores s

let cfg ?(cores = 1) ?(arrival = Arrival.Poisson)
    ?(dispatch = Dispatch.Round_robin) ?(rate = 50.0) ?(requests = 2000)
    ?(warmup_frac = 0.1) ?(seed = 42) () =
  { Sim.cores; arrival; dispatch; rate; requests; warmup_frac; seed }

let test_sim_validation () =
  let raises c service =
    match Sim.run c ~service with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let service = flat_service 1 0.01 in
  Alcotest.(check bool) "rate 0" true (raises (cfg ~rate:0.0 ()) service);
  Alcotest.(check bool) "cores 0" true (raises (cfg ~cores:0 ()) service);
  Alcotest.(check bool) "requests 0" true
    (raises (cfg ~requests:0 ()) service);
  Alcotest.(check bool) "warmup 1.0" true
    (raises (cfg ~warmup_frac:1.0 ()) service);
  Alcotest.(check bool) "short table" true
    (raises (cfg ~cores:2 ()) service);
  Alcotest.(check bool) "negative service" true
    (raises (cfg ()) (flat_service 1 (-0.01)))

let test_sim_accounting () =
  let c = cfg ~requests:1000 ~warmup_frac:0.1 () in
  let o = Sim.run c ~service:(flat_service 1 0.01) in
  Alcotest.(check int) "measured excludes warmup" 900 o.Sim.measured;
  Alcotest.(check int) "histogram count" 900
    (Mm_stats.Histogram.count o.Sim.hist);
  Alcotest.(check bool) "achieved positive" true (o.Sim.achieved_rps > 0.0);
  Alcotest.(check bool) "utilization in (0, 1]" true
    (o.Sim.utilization > 0.0 && o.Sim.utilization <= 1.0 +. 1e-9);
  Alcotest.(check bool) "outstanding >= 1" true (o.Sim.max_outstanding >= 1)

let test_sim_deterministic () =
  let run () =
    Sweep.point_of_outcome
      (Sim.run
         (cfg ~cores:4 ~dispatch:Dispatch.Least_loaded ~rate:300.0 ())
         ~service:(flat_service 4 0.01))
  in
  Alcotest.(check bool) "identical points" true (run () = run ())

let test_sim_saturation_boundaries () =
  (* One core, 10 ms flat service: capacity is 100 req/s exactly. *)
  let service = flat_service 1 0.01 in
  let at rate =
    (Sim.run (cfg ~rate ~requests:4000 ()) ~service).Sim.saturated
  in
  Alcotest.(check bool) "well below capacity" false (at 50.0);
  Alcotest.(check bool) "well above capacity" true (at 200.0)

let test_sim_p99_monotone_in_load () =
  (* Single FIFO queue, flat service: compressing the same arrival
     sequence can only increase every sojourn, so p99 is nondecreasing
     in the offered rate. *)
  List.iter
    (fun arrival ->
      let service = flat_service 1 0.01 in
      let rates = [ 30.0; 50.0; 70.0; 85.0; 95.0 ] in
      let points =
        Sweep.run (cfg ~arrival ~requests:3000 ()) ~service ~rates
      in
      let p99s = List.map (fun p -> p.Sweep.p99) points in
      let rec check_mono = function
        | a :: (b :: _ as rest) ->
          if a > b +. 1e-12 then
            Alcotest.failf "%s: p99 fell from %g to %g"
              (Arrival.name arrival) a b;
          check_mono rest
        | _ -> ()
      in
      check_mono p99s)
    Arrival.all

let test_sim_contention_hurts () =
  (* A table that inflates with concurrency yields higher p99 at high
     load than a flat table with the same single-core service time. *)
  let flat = flat_service 4 0.01 in
  let inflating = [| 0.01; 0.012; 0.016; 0.024 |] in
  let run service rate =
    (Sweep.point_of_outcome
       (Sim.run
          (cfg ~cores:4 ~dispatch:Dispatch.Least_loaded ~rate ~requests:3000 ())
          ~service))
      .Sweep.p99
  in
  let rate = 300.0 in
  Alcotest.(check bool) "contention raises p99" true
    (run inflating rate > run flat rate)

(* --- Sim against its reference model --- *)

(* [Sim_oracle] is the event core Sim.run had before its rewrite: one
   binary heap for every arrival, timeout and retry.  The fast core must
   reproduce it exactly — every outcome field, floats to the bit, and the
   latency histogram's count, extremes and quantiles. *)

module Histogram = Mm_stats.Histogram

let outcome_mismatches (a : Sim.outcome) (b : Sim.outcome) =
  let bits = Int64.bits_of_float in
  let fl name x y = if bits x = bits y then [] else [ name ] in
  let int name x y = if x = y then [] else [ name ] in
  let hist name f = fl name (f a.Sim.hist) (f b.Sim.hist) in
  List.concat
    [
      (if a.Sim.o_config = b.Sim.o_config then [] else [ "o_config" ]);
      (if a.Sim.o_policy = b.Sim.o_policy then [] else [ "o_policy" ]);
      int "hist count" (Histogram.count a.Sim.hist) (Histogram.count b.Sim.hist);
      hist "hist min" Histogram.min_recorded;
      hist "hist max" Histogram.max_recorded;
      hist "p50" (fun h -> Histogram.quantile h 0.5);
      hist "p90" (fun h -> Histogram.quantile h 0.9);
      hist "p99" (fun h -> Histogram.quantile h 0.99);
      hist "p999" (fun h -> Histogram.quantile h 0.999);
      int "measured" a.Sim.measured b.Sim.measured;
      fl "achieved_rps" a.Sim.achieved_rps b.Sim.achieved_rps;
      fl "utilization" a.Sim.utilization b.Sim.utilization;
      (if a.Sim.saturated = b.Sim.saturated then [] else [ "saturated" ]);
      int "max_outstanding" a.Sim.max_outstanding b.Sim.max_outstanding;
      int "attempts" a.Sim.attempts b.Sim.attempts;
      int "completions" a.Sim.completions b.Sim.completions;
      int "ok" a.Sim.ok b.Sim.ok;
      int "timeouts" a.Sim.timeouts b.Sim.timeouts;
      int "sheds" a.Sim.sheds b.Sim.sheds;
      int "give_ups" a.Sim.give_ups b.Sim.give_ups;
      fl "goodput_rps" a.Sim.goodput_rps b.Sim.goodput_rps;
      fl "retry_amplification" a.Sim.retry_amplification
        b.Sim.retry_amplification;
    ]

let agrees fast slow =
  match outcome_mismatches fast slow with
  | [] -> true
  | fields ->
    QCheck.Test.fail_reportf "fast core differs from the reference in: %s"
      (String.concat ", " fields)

let check_agrees label fast slow =
  match outcome_mismatches fast slow with
  | [] -> ()
  | fields ->
    Alcotest.failf "%s: fast core differs from the reference in: %s" label
      (String.concat ", " fields)

type diff_case = {
  d_cfg : Sim.config;
  d_policy : Policy.t;
  d_service : float array;
}

let print_diff_case c =
  Printf.sprintf "cores=%d %s %s rate=%h requests=%d warmup=%g seed=%d service=[%s] policy=%s"
    c.d_cfg.Sim.cores
    (Arrival.name c.d_cfg.Sim.arrival)
    (Dispatch.name c.d_cfg.Sim.dispatch)
    c.d_cfg.Sim.rate c.d_cfg.Sim.requests c.d_cfg.Sim.warmup_frac
    c.d_cfg.Sim.seed
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") c.d_service)))
    (Policy.to_key c.d_policy)

let gen_admission =
  QCheck.Gen.(
    oneof
      [
        return Policy.Always;
        map (fun l -> Policy.Queue_limit l) (int_range 1 8);
        return Policy.Deadline_aware;
      ])

(* Every knob of a sweep point: 1-8 cores, both arrival processes, all
   dispatch and admission policies, no deadline or 5-40x the all-busy
   service time, 0-3 retries, jitter 0 or 0.5, 1-3,000 requests, and
   offered load 0.3-1.6x capacity. *)
let gen_diff_case =
  QCheck.Gen.(
    let* cores = int_range 1 8 in
    let* arrival = oneofl Arrival.all in
    let* dispatch = oneofl Dispatch.all in
    let* base = float_range 1e-3 2e-2 in
    let* inflation = float_range 0.0 0.5 in
    let service =
      Array.init cores (fun k -> base *. (1.0 +. (inflation *. float_of_int k)))
    in
    let all_busy = service.(cores - 1) in
    let* deadline = opt (float_range 5.0 40.0) in
    let* max_retries = int_range 0 3 in
    let* jitter = oneofl [ 0.0; 0.5 ] in
    let* admission = gen_admission in
    let* requests = int_range 1 3000 in
    let* load = float_range 0.3 1.6 in
    let* warmup_frac = oneofl [ 0.0; 0.1; 0.5 ] in
    let* seed = int_range 0 1_000_000 in
    let rate = load *. Contention.capacity ~cores service in
    return
      {
        d_cfg = { Sim.cores; arrival; dispatch; rate; requests; warmup_frac; seed };
        d_policy =
          Policy.make
            ?deadline:(Option.map (fun f -> f *. all_busy) deadline)
            ~max_retries ~jitter ~admission ();
        d_service = service;
      })

let prop_sim_matches_reference =
  QCheck.Test.make ~count:300 ~name:"Sim.run = reference model"
    (QCheck.make ~print:print_diff_case gen_diff_case)
    (fun c ->
      agrees
        (Sim.run ~policy:c.d_policy c.d_cfg ~service:c.d_service)
        (Sim_oracle.run ~policy:c.d_policy c.d_cfg ~service:c.d_service))

(* Random draws almost never put two events on one instant.  On a coarse
   dyadic grid every sum is exact, so arrivals, departures, timeouts and
   retries collide all the time and each tie-break rule is exercised. *)
type grid_case = {
  g_cfg : Sim.config;
  g_policy : Policy.t;
  g_service : float array;
  g_arrivals : float array;
  g_mult : float array;
  g_flow : int array;
}

let floats a = String.concat ";" (Array.to_list (Array.map string_of_float a))

let print_grid_case c =
  Printf.sprintf "cores=%d %s policy=%s service=[%s] arrivals=[%s] mult=[%s] flow=[%s]"
    c.g_cfg.Sim.cores
    (Dispatch.name c.g_cfg.Sim.dispatch)
    (Policy.to_key c.g_policy) (floats c.g_service) (floats c.g_arrivals)
    (floats c.g_mult)
    (String.concat ";" (Array.to_list (Array.map string_of_int c.g_flow)))

let gen_grid_case =
  QCheck.Gen.(
    let* cores = int_range 1 4 in
    let* dispatch = oneofl Dispatch.all in
    let* requests = int_range 1 200 in
    let* service = array_repeat cores (oneofl [ 0.25; 0.5; 1.0; 1.5 ]) in
    let* gaps = array_repeat requests (oneofl [ 0.0; 0.25; 0.5; 1.0 ]) in
    let arrivals = Array.copy gaps in
    for i = 1 to requests - 1 do
      arrivals.(i) <- arrivals.(i - 1) +. gaps.(i)
    done;
    let* mult = array_repeat requests (oneofl [ 0.5; 1.0; 2.0 ]) in
    let* flow = array_repeat requests (int_range 0 ((8 * cores) - 1)) in
    let* deadline = opt (oneofl [ 1.0; 2.0; 3.0 ]) in
    let* max_retries = int_range 0 3 in
    let* backoff_base = oneofl [ 0.25; 0.5; 1.0 ] in
    let* cap_factor = oneofl [ 1.0; 2.0; 4.0 ] in
    let* jitter = oneofl [ 0.0; 0.0; 0.5 ] in
    let* admission = gen_admission in
    let* seed = int_range 0 1000 in
    return
      {
        g_cfg =
          {
            Sim.cores;
            arrival = Arrival.Poisson;
            dispatch;
            rate = 1.0;
            requests;
            warmup_frac = 0.0;
            seed;
          };
        g_policy =
          Policy.make ?deadline ~max_retries ~backoff_base
            ~backoff_cap:(backoff_base *. cap_factor) ~jitter ~admission ();
        g_service = service;
        g_arrivals = arrivals;
        g_mult = mult;
        g_flow = flow;
      })

let prop_sim_matches_reference_on_ties =
  QCheck.Test.make ~count:500 ~name:"Sim.replay = reference model on a tie-dense grid"
    (QCheck.make ~print:print_grid_case gen_grid_case)
    (fun c ->
      let replay run =
        run ?policy:(Some c.g_policy) c.g_cfg ~service:c.g_service
          ~arrivals:c.g_arrivals ~mult:c.g_mult ~flow:c.g_flow
      in
      agrees (replay Sim.replay) (replay Sim_oracle.replay))

let replay_both ~policy ~service ~arrivals ~mult =
  let n = Array.length arrivals in
  let cfg = cfg ~requests:n ~warmup_frac:0.0 ~rate:1.0 () in
  let flow = Array.make n 0 in
  let fast = Sim.replay ~policy cfg ~service ~arrivals ~mult ~flow in
  check_agrees "replay" fast
    (Sim_oracle.replay ~policy cfg ~service ~arrivals ~mult ~flow);
  fast

let test_tie_departure_before_arrival () =
  (* One core, one-deep admission: the first request leaves at t = 1,
     the instant the second arrives.  The departure goes first, so the
     second finds the core free and is admitted, not shed. *)
  let o =
    replay_both
      ~policy:(Policy.make ~admission:(Policy.Queue_limit 1) ())
      ~service:[| 1.0 |] ~arrivals:[| 0.0; 1.0 |] ~mult:[| 1.0; 1.0 |]
  in
  Alcotest.(check int) "no shed" 0 o.Sim.sheds;
  Alcotest.(check int) "both served" 2 o.Sim.ok;
  Alcotest.(check int) "never two in the system" 1 o.Sim.max_outstanding

let test_tie_timeout_before_retry () =
  (* One core, one-deep admission, deadline 3, every backoff 2, no
     jitter.  A (4 s of work) arrives at 0 and is admitted; B (1 s)
     arrives at 1, is shed and retries at 3 — the instant A's timeout
     fires.  The timeout was pushed first, so it goes first: A's retry
     is pushed before B's next one, both land at 5, and A's wins the
     core.  A then times out on every try and B is shed on every try:
     no request succeeds.  Served the other way round, B's 1 s retry
     would take the core at 5 and succeed. *)
  let policy =
    Policy.make ~deadline:3.0 ~max_retries:2 ~backoff_base:2.0 ~backoff_cap:2.0
      ~jitter:0.0 ~admission:(Policy.Queue_limit 1) ()
  in
  let o =
    replay_both ~policy ~service:[| 4.0 |] ~arrivals:[| 0.0; 1.0 |]
      ~mult:[| 1.0; 0.25 |]
  in
  Alcotest.(check int) "ok" 0 o.Sim.ok;
  Alcotest.(check int) "timeouts" 3 o.Sim.timeouts;
  Alcotest.(check int) "sheds" 3 o.Sim.sheds;
  Alcotest.(check int) "give-ups" 2 o.Sim.give_ups

let test_replay_validation () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let c = cfg ~requests:2 () in
  let service = flat_service 1 0.01 in
  let replay ?(arrivals = [| 0.0; 1.0 |]) ?(mult = [| 1.0; 1.0 |])
      ?(flow = [| 0; 0 |]) () =
    Sim.replay c ~service ~arrivals ~mult ~flow
  in
  Alcotest.(check bool) "valid" false (raises (fun () -> replay ()));
  Alcotest.(check bool) "short arrivals" true
    (raises (fun () -> replay ~arrivals:[| 0.0 |] ()));
  Alcotest.(check bool) "decreasing arrivals" true
    (raises (fun () -> replay ~arrivals:[| 1.0; 0.0 |] ()));
  Alcotest.(check bool) "zero multiplier" true
    (raises (fun () -> replay ~mult:[| 1.0; 0.0 |] ()));
  Alcotest.(check bool) "negative flow" true
    (raises (fun () -> replay ~flow:[| 0; -1 |] ()))

(* The serve loop allocates nothing per event beyond a boxed histogram
   sample, a jitter draw and the pre-drawn service multiplier; the old
   core allocated 30-42 minor words per attempt on this point. *)
let test_sim_allocation_bound () =
  let cores = 8 in
  let service =
    Array.init cores (fun k -> 0.01 *. (1.0 +. (0.1 *. float_of_int k)))
  in
  let c =
    cfg ~cores ~dispatch:Dispatch.Least_loaded
      ~rate:(1.3 *. Contention.capacity ~cores service)
      ~requests:20_000 ()
  in
  let policy =
    Policy.make ~deadline:(10.0 *. service.(cores - 1)) ~max_retries:3 ()
  in
  let w0 = Gc.minor_words () in
  let o = Sim.run ~policy c ~service in
  let per_attempt = (Gc.minor_words () -. w0) /. float_of_int o.Sim.attempts in
  Alcotest.(check bool) "retries happened" true (o.Sim.attempts > c.Sim.requests);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per attempt <= 8" per_attempt)
    true (per_attempt <= 8.0)

(* --- Sweep codec --- *)

let gen_point =
  QCheck.Gen.(
    let pos = float_range 1e-9 1e6 in
    let* rate = pos in
    let* p50 = pos in
    let* p90 = pos in
    let* p99 = pos in
    let* p999 = pos in
    let* lat_max = pos in
    let* achieved_rps = pos in
    let* goodput_rps = pos in
    let* utilization = float_range 0.0 1.0 in
    let* measured = int_range 0 1_000_000 in
    let* saturated = bool in
    let* shed_rate = float_range 0.0 1.0 in
    let* timeout_rate = float_range 0.0 1.0 in
    let* amplification = float_range 1.0 100.0 in
    let* failed = int_range 0 1_000_000 in
    return
      {
        Sweep.rate;
        p50;
        p90;
        p99;
        p999;
        lat_max;
        achieved_rps;
        goodput_rps;
        utilization;
        measured;
        saturated;
        shed_rate;
        timeout_rate;
        amplification;
        failed;
      })

let prop_sweep_codec_roundtrip =
  QCheck.Test.make ~name:"sweep codec: decode (encode pts) = pts"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) gen_point))
    (fun points ->
      match Sweep.points_of_string (Sweep.points_to_string points) with
      | Ok decoded -> decoded = points
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_sweep_codec_rejects_garbage () =
  let good =
    Sweep.points_to_string
      [
        {
          Sweep.rate = 1.0;
          p50 = 1.0;
          p90 = 1.0;
          p99 = 1.0;
          p999 = 1.0;
          lat_max = 1.0;
          achieved_rps = 1.0;
          goodput_rps = 1.0;
          utilization = 0.5;
          measured = 10;
          saturated = false;
          shed_rate = 0.0;
          timeout_rate = 0.0;
          amplification = 1.0;
          failed = 0;
        };
      ]
  in
  (match Sweep.points_of_string good with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected a good payload: %s" e);
  let edit_point extra =
    Str.replace_first
      (Str.regexp_string "failed=0\n")
      ("failed=0 " ^ extra ^ "\n")
      good
  in
  List.iter
    (fun s ->
      match Sweep.points_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "mmstudy.serve 999\npoints 0";
      "mmstudy.serve 1\npoints 2\npoint rate=0x1p0";
      "mmstudy.serve 1\npoints x";
      "not a sweep at all";
      String.sub good 0 (String.length good - 4);
      (* a token without '=', and a field given twice *)
      edit_point "junk";
      edit_point "rate=0x1p1";
    ]

let test_sweep_max_sustainable () =
  let mk rate saturated =
    {
      Sweep.rate;
      p50 = 0.0;
      p90 = 0.0;
      p99 = 0.0;
      p999 = 0.0;
      lat_max = 0.0;
      achieved_rps = rate;
      goodput_rps = rate;
      utilization = 0.5;
      measured = 1;
      saturated;
      shed_rate = 0.0;
      timeout_rate = 0.0;
      amplification = 1.0;
      failed = 0;
    }
  in
  Alcotest.(check (option (float 1e-9)))
    "highest unsaturated" (Some 80.0)
    (Sweep.max_sustainable [ mk 50.0 false; mk 80.0 false; mk 100.0 true ]);
  Alcotest.(check (option (float 1e-9)))
    "all saturated" None
    (Sweep.max_sustainable [ mk 50.0 true; mk 100.0 true ]);
  Alcotest.(check (option (float 1e-9))) "empty" None (Sweep.max_sustainable [])

(* --- Policy --- *)

let test_policy_none_is_degenerate () =
  (* Explicit Policy.none equals the default: same histogram, and every
     resilience counter sits at its vacuous value. *)
  let c = cfg ~requests:1500 () in
  let service = flat_service 1 0.01 in
  let a = Sim.run c ~service in
  let b = Sim.run ~policy:Policy.none c ~service in
  Alcotest.(check bool) "same points" true
    (Sweep.point_of_outcome a = Sweep.point_of_outcome b);
  Alcotest.(check int) "attempts = requests" c.Sim.requests b.Sim.attempts;
  Alcotest.(check int) "ok = completions" b.Sim.completions b.Sim.ok;
  Alcotest.(check int) "no timeouts" 0 b.Sim.timeouts;
  Alcotest.(check int) "no sheds" 0 b.Sim.sheds;
  Alcotest.(check int) "no give-ups" 0 b.Sim.give_ups;
  Alcotest.(check (float 1e-12)) "amplification 1" 1.0
    b.Sim.retry_amplification

let test_policy_validate () =
  let raises p =
    match Policy.validate p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "none valid" false (raises Policy.none);
  Alcotest.(check bool) "negative deadline" true
    (raises { Policy.none with Policy.deadline = Some (-1.0) });
  Alcotest.(check bool) "negative retries" true
    (raises { Policy.none with Policy.max_retries = -1 });
  Alcotest.(check bool) "jitter > 1" true
    (raises { Policy.none with Policy.jitter = 1.5 });
  Alcotest.(check bool) "cap below base" true
    (raises { Policy.none with Policy.backoff_cap = 1e-9 });
  Alcotest.(check bool) "queue limit 0" true
    (raises { Policy.none with Policy.admission = Policy.Queue_limit 0 })

let test_admission_names_roundtrip () =
  List.iter
    (fun adm ->
      Alcotest.(check bool)
        (Policy.admission_name adm)
        true
        (Policy.admission_of_name (Policy.admission_name adm) = Ok adm))
    [ Policy.Always; Policy.Queue_limit 1; Policy.Queue_limit 64;
      Policy.Deadline_aware ];
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (Result.is_error (Policy.admission_of_name s)))
    [ "sometimes"; "queue:"; "queue:0"; "queue:-3"; "queue:x"; "" ]

(* One slow core at twice its capacity: a tight deadline must produce
   timeouts, and with no retries every timeout is a lost original. *)
let overload_cfg = cfg ~rate:200.0 ~requests:1500 ()

let overload_service = flat_service 1 0.01

let test_timeouts_and_give_ups () =
  let policy = Policy.make ~deadline:0.05 () in
  let o = Sim.run ~policy overload_cfg ~service:overload_service in
  Alcotest.(check bool) "timeouts happened" true (o.Sim.timeouts > 0);
  Alcotest.(check bool) "give-ups happened" true (o.Sim.give_ups > 0);
  Alcotest.(check int) "every original accounted" overload_cfg.Sim.requests
    (o.Sim.ok + o.Sim.give_ups);
  Alcotest.(check bool) "goodput below raw throughput" true
    (o.Sim.goodput_rps < o.Sim.achieved_rps);
  Alcotest.(check (float 1e-12)) "no retries: amplification 1" 1.0
    o.Sim.retry_amplification

let test_retries_amplify () =
  let no_retry = Policy.make ~deadline:0.05 () in
  let retry = Policy.make ~deadline:0.05 ~max_retries:3 () in
  let a = Sim.run ~policy:no_retry overload_cfg ~service:overload_service in
  let b = Sim.run ~policy:retry overload_cfg ~service:overload_service in
  Alcotest.(check bool) "retries add attempts" true
    (b.Sim.attempts > overload_cfg.Sim.requests);
  Alcotest.(check bool) "amplification > 1" true
    (b.Sim.retry_amplification > 1.0);
  Alcotest.(check bool) "retry storm lowers goodput" true
    (b.Sim.goodput_rps < a.Sim.goodput_rps *. 1.05);
  Alcotest.(check int) "every original accounted" overload_cfg.Sim.requests
    (b.Sim.ok + b.Sim.give_ups)

let test_queue_limit_sheds_and_bounds () =
  let policy =
    Policy.make ~deadline:0.05 ~max_retries:1
      ~admission:(Policy.Queue_limit 2) ()
  in
  let o = Sim.run ~policy overload_cfg ~service:overload_service in
  Alcotest.(check bool) "sheds happened" true (o.Sim.sheds > 0);
  Alcotest.(check bool)
    (Printf.sprintf "outstanding bounded by limit (got %d)"
       o.Sim.max_outstanding)
    true
    (o.Sim.max_outstanding <= 2);
  Alcotest.(check int) "every original accounted" overload_cfg.Sim.requests
    (o.Sim.ok + o.Sim.give_ups)

let test_deadline_admission_sheds_doomed_work () =
  let tight d adm =
    Sim.run
      ~policy:(Policy.make ~deadline:d ~admission:adm ())
      overload_cfg ~service:overload_service
  in
  let shed = tight 0.05 Policy.Deadline_aware in
  let blind = tight 0.05 Policy.Always in
  Alcotest.(check bool) "deadline admission sheds" true (shed.Sim.sheds > 0);
  (* Shedding doomed arrivals cannot reduce timely completions. *)
  Alcotest.(check bool) "goodput no worse than admit-all" true
    (shed.Sim.goodput_rps >= blind.Sim.goodput_rps *. 0.95)

let test_policy_deterministic () =
  let policy = Policy.make ~deadline:0.05 ~max_retries:3 ~jitter:0.5 () in
  let run () =
    Sweep.point_of_outcome
      (Sim.run ~policy overload_cfg ~service:overload_service)
  in
  Alcotest.(check bool) "identical points" true (run () = run ())

let test_collapse_helpers () =
  let mk rate goodput =
    {
      Sweep.rate;
      p50 = 0.0;
      p90 = 0.0;
      p99 = 0.0;
      p999 = 0.0;
      lat_max = 0.0;
      achieved_rps = rate;
      goodput_rps = goodput;
      utilization = 0.5;
      measured = 1;
      saturated = false;
      shed_rate = 0.0;
      timeout_rate = 0.0;
      amplification = 1.0;
      failed = 0;
    }
  in
  Alcotest.(check bool) "keeping up" false (Sweep.collapsed (mk 100.0 99.0));
  Alcotest.(check bool) "collapsed" true (Sweep.collapsed (mk 100.0 49.0));
  Alcotest.(check (option (float 1e-9)))
    "onset is the lowest collapsed rate" (Some 80.0)
    (Sweep.collapse_rate [ mk 50.0 49.0; mk 80.0 20.0; mk 100.0 30.0 ]);
  Alcotest.(check (option (float 1e-9)))
    "no collapse" None
    (Sweep.collapse_rate [ mk 50.0 49.0; mk 100.0 90.0 ]);
  Alcotest.(check (option (float 1e-9))) "empty" None (Sweep.collapse_rate [])

(* --- Contention + end-to-end (engine-backed, small scale) --- *)

(* Scale 0.08, like test_experiments' paper-claim tests: the region
   penalty (and hence its capacity gap) needs the working set to
   overflow the shared caches, which a tiny scale suppresses — the same
   sensitivity fig9's render warns about. *)
let ctx = Ctx.create ~scale:0.08 ()

let machine = Machine.xeon

let spec = Spec.mediawiki_ro

let measurement kind = Ctx.run_php ctx ~machine ~cores:8 ~kind ~spec ()

let test_contention_table_shape () =
  let service =
    Contention.service_seconds ~machine
      ~measurement:(measurement Factory.Php_default)
  in
  Alcotest.(check int) "one entry per core" machine.Machine.cores
    (Array.length service);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "positive finite" true
        (s > 0.0 && Float.is_finite s))
    service;
  for k = 1 to Array.length service - 1 do
    if service.(k) < service.(k - 1) *. 0.999 then
      Alcotest.failf "service time fell at k=%d: %g -> %g" (k + 1)
        service.(k - 1) service.(k)
  done

let test_region_capacity_lower () =
  (* The headline: the region allocator's bus traffic inflates all-busy
     service time, so its saturation throughput is measurably below
     default's and DDmalloc's on 8 Xeon cores. *)
  let cap kind =
    Contention.capacity ~cores:8
      (Contention.service_seconds ~machine ~measurement:(measurement kind))
  in
  let d = cap Factory.Php_default in
  let r = cap Factory.Region in
  let m = cap (Factory.Dd None) in
  Alcotest.(check bool)
    (Printf.sprintf "region capacity (%.0f) < 0.9 x default (%.0f)" r d)
    true
    (r < d *. 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "dd capacity (%.0f) >= default (%.0f) x0.95" m d)
    true
    (m >= d *. 0.95)

let test_region_saturates_first () =
  (* Sweep both allocators on default's rate grid: at 0.9 x default's
     capacity the region allocator is saturated, default is not. *)
  let sweep kind rates =
    Lat.sweep_points ctx ~machine ~spec ~kind ~cores:8
      ~arrival:Arrival.Poisson ~dispatch:Dispatch.Least_loaded ~requests:2000
      ~warmup_frac:0.1 ~rates
  in
  let cap_d =
    Lat.capacity_of ctx ~machine ~spec ~kind:Factory.Php_default ~cores:8
  in
  let rates = [ 0.5 *. cap_d; 0.9 *. cap_d ] in
  let max_rps kind = Sweep.max_sustainable (sweep kind rates) in
  let d = max_rps Factory.Php_default in
  let r = max_rps Factory.Region in
  Alcotest.(check (option (float 1e-6)))
    "default sustains 0.9 x its capacity" (Some (0.9 *. cap_d)) d;
  Alcotest.(check bool) "region saturated by then" true
    (match r with
    | None -> true
    | Some rps -> rps < 0.9 *. cap_d -. 1e-6)

let test_sweep_blob_memoized () =
  (* Same parameters twice: the second call must be served from the
     in-memory sweep memo, not recomputed. *)
  let call () =
    Lat.sweep_points ctx ~machine ~spec ~kind:Factory.Php_default ~cores:8
      ~arrival:Arrival.Bursty ~dispatch:Dispatch.Round_robin ~requests:500
      ~warmup_frac:0.1
      ~rates:[ 10.0; 20.0 ]
  in
  let a = call () in
  let computed = Ctx.blob_computed ctx in
  let b = call () in
  Alcotest.(check int) "no recompute" computed (Ctx.blob_computed ctx);
  Alcotest.(check bool) "identical points" true (a = b)

let test_region_collapses_first () =
  (* The resilience experiment's headline, as an assertion: under the
     shared deadline+retry policy, the region allocator's retry-storm
     collapse onset sits strictly below default's and DDmalloc's on the
     shared load grid (8 Xeon cores, MediaWiki read-only). *)
  let module Res = Mm_experiments.Exp_resilience in
  let onset kind =
    Sweep.collapse_rate (Res.sweep ctx ~machine ~kind)
  in
  let r = onset Factory.Region in
  let d = onset Factory.Php_default in
  let m = onset (Factory.Dd None) in
  let region_onset =
    match r with
    | Some r -> r
    | None -> Alcotest.fail "region never collapsed inside the grid"
  in
  let below label = function
    | None -> ()
    | Some other ->
      Alcotest.(check bool)
        (Printf.sprintf "region onset %.0f < %s onset %.0f" region_onset
           label other)
        true
        (region_onset < other -. 1e-9)
  in
  below "default" d;
  below "ddmalloc" m;
  (* At 1.0x default capacity the region allocator is already deep in
     retry amplification while default is not. *)
  let amp_at_cap kind =
    let points = Res.sweep ctx ~machine ~kind in
    let i =
      match List.find_index (fun f -> f = 1.0) Res.fractions with
      | Some i -> i
      | None -> Alcotest.fail "1.0 not in the fraction grid"
    in
    (List.nth points i).Sweep.amplification
  in
  Alcotest.(check bool) "region amplifies at default's capacity" true
    (amp_at_cap Factory.Region > amp_at_cap Factory.Php_default)

let () =
  Alcotest.run "mm_serve"
    [
      ( "arrival",
        [
          Alcotest.test_case "nondecreasing" `Quick test_arrival_nondecreasing;
          Alcotest.test_case "unit mean rate" `Quick
            test_arrival_unit_mean_rate;
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "prefix stable" `Quick test_arrival_prefix_stable;
          Alcotest.test_case "bursty is burstier" `Quick
            test_arrival_bursty_is_burstier;
          Alcotest.test_case "names roundtrip" `Quick
            test_arrival_names_roundtrip;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "round robin cycles" `Quick
            test_dispatch_round_robin_cycles;
          Alcotest.test_case "least loaded" `Quick test_dispatch_least_loaded;
          Alcotest.test_case "affinity" `Quick test_dispatch_affinity;
          Alcotest.test_case "names roundtrip" `Quick
            test_dispatch_names_roundtrip;
        ] );
      ( "sim",
        [
          Alcotest.test_case "validation" `Quick test_sim_validation;
          Alcotest.test_case "accounting" `Quick test_sim_accounting;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "saturation boundaries" `Quick
            test_sim_saturation_boundaries;
          Alcotest.test_case "p99 monotone in load" `Quick
            test_sim_p99_monotone_in_load;
          Alcotest.test_case "contention hurts" `Quick
            test_sim_contention_hurts;
          Alcotest.test_case "allocation bound" `Quick
            test_sim_allocation_bound;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_sim_matches_reference;
          QCheck_alcotest.to_alcotest prop_sim_matches_reference_on_ties;
          Alcotest.test_case "tie: departure before arrival" `Quick
            test_tie_departure_before_arrival;
          Alcotest.test_case "tie: timeout before retry" `Quick
            test_tie_timeout_before_retry;
          Alcotest.test_case "replay validation" `Quick test_replay_validation;
        ] );
      ( "sweep",
        [
          QCheck_alcotest.to_alcotest prop_sweep_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_sweep_codec_rejects_garbage;
          Alcotest.test_case "max sustainable" `Quick
            test_sweep_max_sustainable;
        ] );
      ( "policy",
        [
          Alcotest.test_case "none is degenerate" `Quick
            test_policy_none_is_degenerate;
          Alcotest.test_case "validate" `Quick test_policy_validate;
          Alcotest.test_case "admission names roundtrip" `Quick
            test_admission_names_roundtrip;
          Alcotest.test_case "timeouts and give-ups" `Quick
            test_timeouts_and_give_ups;
          Alcotest.test_case "retries amplify" `Quick test_retries_amplify;
          Alcotest.test_case "queue limit sheds and bounds" `Quick
            test_queue_limit_sheds_and_bounds;
          Alcotest.test_case "deadline admission sheds doomed work" `Quick
            test_deadline_admission_sheds_doomed_work;
          Alcotest.test_case "deterministic" `Quick test_policy_deterministic;
          Alcotest.test_case "collapse helpers" `Quick test_collapse_helpers;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "contention table shape" `Slow
            test_contention_table_shape;
          Alcotest.test_case "region capacity lower" `Slow
            test_region_capacity_lower;
          Alcotest.test_case "region saturates first" `Slow
            test_region_saturates_first;
          Alcotest.test_case "sweep blob memoized" `Slow
            test_sweep_blob_memoized;
          Alcotest.test_case "region collapses first" `Slow
            test_region_collapses_first;
        ] );
    ]
