(* The repository benchmark: three workloads run through the libraries'
   public functions, timed from outside, with their outputs checked.

     perfbench --workload fig5-cold|fig7-cold|serve-sweep --seed N
               --seconds S --trace 0|1 [--record-reference]

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   records spans around its calls into each layer (written to
   .perfbench/trace-<workload>-s<seed>.json) and prints the per-layer
   metrics.  The last line of stdout is one JSON object; everything else
   goes to stderr.  The exit code is 1 when any output is wrong.  See
   README.md in this directory for what each workload and metric means. *)

module Context = Mm_experiments.Context
module Registry = Mm_experiments.Registry
module Paper = Mm_experiments.Paper_data
module Res = Mm_experiments.Exp_resilience
module Lat = Mm_experiments.Exp_latency
module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Store = Mm_store.Store
module Pool = Mm_sched.Pool
module Machine = Mm_cachesim.Machine
module Events = Mm_cachesim.Events
module Perf_model = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec
module Sim = Mm_serve.Sim
module Sweep = Mm_serve.Sweep
module Policy = Mm_serve.Policy
module Contention = Mm_serve.Contention

let fingerprint = Mm_runtime.Version.sim_fingerprint

(* The execute stage's pool size: the 2 cores of the machine the
   benchmark was sized on. *)
let jobs = 2

(* --- options ----------------------------------------------------------- *)

let workload = ref ""
let seed_arg = ref 42
let seconds = ref 58.0
let trace = ref false
let record_reference = ref false
let probe_setup = ref false

(* Workload seeds with stored reference outputs.  [--seed n] selects [n]
   itself when it is one of them and [n mod 4] otherwise, so every run is
   checked against a reference. *)
let reference_seeds = [| 42; 7; 1009; 65537 |]

let workload_seed n =
  if Array.mem n reference_seeds then n
  else reference_seeds.(abs n mod Array.length reference_seeds)

let seed () = workload_seed !seed_arg

(* --- small helpers ----------------------------------------------------- *)

let now = Span.now

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let md5 s = Digest.to_hex (Digest.string s)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it (the
   largest sample when there are fewer than eleven). *)
let tail l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    List.nth s (max 0 (min (n - 1) (n - 11)))

let sum l = List.fold_left ( +. ) 0.0 l

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Mean seconds per call of [f] over [items], repeating the whole list
   until [min_s] has elapsed. *)
let per_call ?(min_s = 0.05) items f =
  if items = [] then 0.0
  else begin
    let calls = ref 0 in
    let t0 = now () in
    while now () -. t0 < min_s || !calls = 0 do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      calls := !calls + List.length items
    done;
    (now () -. t0) /. float_of_int !calls
  end

(* Working files live in the checkout: .perfbench/run-<pid>/. *)
let work_root = ".perfbench"

let work_dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ()))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ work_root; path ]

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d = Filename.concat work_dir (Printf.sprintf "store-%d" !dir_counter) in
  Unix.mkdir d 0o755;
  d

(* Run [f] with stdout redirected to a file; return what it printed. *)
let capture f =
  flush stdout;
  let path = Filename.concat work_dir "render.out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  In_channel.with_open_bin path In_channel.input_all

(* The process's peak resident memory so far (VmHWM).  Each workload reads
   it for peak_rss_mb before its warm passes: they stand for a later run
   of the program, and the heap growth of thousands of them would tie the
   peak to how many fit the budget (they added 5 MB on fig5-cold). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' s)

(* Process start to ready: a fresh copy of this program started with
   --probe-setup loads, opens a fresh store and creates a context, then
   exits.  One start (a few milliseconds), in seconds. *)
let process_start_s () =
  let args =
    [| Sys.executable_name; "--workload"; !workload; "--probe-setup" |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process Sys.executable_name args devnull devnull devnull in
  let _, status = Unix.waitpid [] pid in
  let dt = Unix.gettimeofday () -. t0 in
  Unix.close devnull;
  match status with
  | Unix.WEXITED 0 -> dt
  | _ -> failwith "perfbench --probe-setup failed"

(* --- operations, failures and metrics ----------------------------------- *)

(* Every check that can fail is one attempted operation, and a failed
   check is one failure, so [failed] never exceeds [attempted]. *)
let attempted = ref 0
let failed = ref 0

let attempt n = attempted := !attempted + n

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      prerr_endline ("perfbench: FAIL: " ^ s))
    fmt

(* (name, value, unit, host-or-simulated) in report order. *)
let metrics : (string * float * string * string) list ref = ref []

let metric ?(kind = "host") name unit v =
  let v = if Float.is_finite v then v else 0.0 in
  metrics := (name, v, unit, kind) :: !metrics

(* Outputs of this run, checked against (and recordable as) the
   reference: (item, digest-or-value). *)
let outputs : (string * string) list ref = ref []

let reference = lazy (Reference.load ())

let has_reference () =
  Reference.has_fingerprint (Lazy.force reference) ~fp:fingerprint
    ~workload:!workload ~seed:(seed ())

(* Check one output digest against the reference, if there is one. *)
let check_output item digest =
  attempt 1;
  if not (List.mem_assoc item !outputs) then outputs := (item, digest) :: !outputs;
  match
    Reference.find (Lazy.force reference) ~fp:fingerprint ~workload:!workload
      ~seed:(seed ()) item
  with
  | Some d when d <> digest ->
    fail "%s differs from the reference (%s, seed %d)" item fingerprint (seed ())
  | Some _ | None -> ()

(* An operation that raises counts as one failed operation. *)
let guard what f =
  try Some (f ())
  with exn ->
    attempt 1;
    fail "%s raised %s" what (Printexc.to_string exn);
    None

(* A warm pass takes milliseconds, and the shared host's speed drifts by
   up to a third over tens of seconds, so one second of passes catches a
   single moment of it: at least 200 run, then more until [deadline], so
   the median spans the rest of the budget.  In an untraced run one fresh
   start of the program (for setup_s) is made between passes every half
   second, so that median spans the same stretch.  Returns the (seconds,
   disk hits) of the passes that did not raise, and the start times. *)
let warm_passes ~deadline f =
  Gc.compact ();
  let starts = ref [] and next_start = ref 0.0 in
  let rec go n acc =
    if n >= 200 && now () >= deadline then acc
    else begin
      if (not !trace) && now () >= !next_start then begin
        starts := process_start_s () :: !starts;
        next_start := now () +. 0.5
      end;
      go (n + 1) (match guard "warm pass" f with Some w -> w :: acc | None -> acc)
    end
  in
  let warms = go 0 [] in
  (warms, !starts)

let item_name prefix s = prefix ^ String.map (fun c -> if c = ' ' then '_' else c) s

(* --- the layers, timed from outside ---------------------------------- *)

let unique_keys keys =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun k ->
      let s = Context.store_key k in
      if Hashtbl.mem seen s then false
      else begin
        Hashtbl.add seen s ();
        true
      end)
    keys

type task = { t_run : float; t_end : float; t_dom : int }

(* The execute stage with spans: one pool task per unique key, each
   calling [Context.force].  Same work as [Registry.execute]. *)
let traced_execute ~pass ctx store keys =
  let keys = unique_keys keys in
  let pool = Pool.create ~jobs in
  let t_submit = now () in
  let promises =
    List.map
      (fun k ->
        let queued = now () in
        Pool.submit pool (fun () ->
            let start = now () in
            let digest = Store.digest_hex store ~key:(Context.store_key k) in
            ignore
              (Span.with_ ~cat:"runtime" ~name:"Context.force"
                 ~args:(fun _ -> [ ("key", Context.key_name k); ("id", digest); ("pass", pass) ])
                 (fun () -> Context.force ctx k));
            let t_end = now () in
            let dom = Span.domain_id () in
            Span.record ~cat:"sched" ~name:"pool task"
              ~args:
                [
                  ("queue_wait_ms", Printf.sprintf "%.3f" ((start -. queued) *. 1e3));
                  ("id", digest);
                ]
              ~t0:start ~t1:t_end ();
            { t_run = t_end -. start; t_end; t_dom = dom }))
      keys
  in
  let results =
    List.map (fun p -> try Ok (Pool.await p) with e -> Error e) promises
  in
  Pool.shutdown pool;
  let t_done = now () in
  Span.record ~cat:"wait" ~name:"execute barrier" ~t0:t_submit ~t1:t_done ();
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> raise e
  | None -> (List.filter_map Result.to_option results, t_done -. t_submit)

let sched_metrics tasks ~exec_s =
  let t_done = List.fold_left (fun acc t -> Float.max acc t.t_end) 0.0 tasks in
  let last_end dom =
    List.fold_left
      (fun acc t -> if t.t_dom = dom then Float.max acc t.t_end else acc)
      (t_done -. exec_s) tasks
  in
  let doms = List.sort_uniq compare (List.map (fun t -> t.t_dom) tasks) in
  let first_idle =
    if List.length doms < jobs then t_done -. exec_s
    else List.fold_left (fun acc d -> Float.min acc (last_end d)) t_done doms
  in
  metric "sched.tasks" "count" (float_of_int (List.length tasks));
  metric "sched.utilization" "ratio"
    (ratio (sum (List.map (fun t -> t.t_run) tasks)) (float_of_int jobs *. exec_s));
  metric "sched.tail_idle_s" "s" (t_done -. first_idle)

let txns_of (m : Engine.measurement) =
  m.Engine.cfg.Engine.warmup_txns + m.Engine.cfg.Engine.measure_txns

(* Simulated hierarchy statistics over a set of measurements. *)
let cachesim_stats ms =
  let tot c = float_of_int (List.fold_left (fun a m -> a + Events.total m.Engine.events c) 0 ms) in
  let txns = float_of_int (List.fold_left (fun a m -> a + m.Engine.txns) 0 ms) in
  let bus =
    float_of_int (List.fold_left (fun a m -> a + Events.bus_transactions m.Engine.events) 0 ms)
  in
  let kind = "simulated" in
  metric ~kind "cachesim.l1d_hit_ratio" "ratio"
    (1.0 -. ratio (tot Events.L1d_miss) (tot Events.Loads +. tot Events.Stores));
  metric ~kind "cachesim.l2_miss_per_txn" "count" (ratio (tot Events.L2_miss) txns);
  metric ~kind "cachesim.bus_tx_per_txn" "count" (ratio bus txns);
  metric ~kind "cachesim.dtlb_miss_per_txn" "count" (ratio (tot Events.Dtlb_miss) txns)

(* One [Perf_model.solve] per measurement at each active-core count in
   [cores m]. *)
let perf_model_metrics ms ~cores =
  let calls = List.concat_map (fun m -> List.map (fun k -> (m, k)) (cores m)) ms in
  let solve ((m : Engine.measurement), k) =
    Perf_model.solve ~machine:m.Engine.cfg.Engine.machine ~active_cores:k
      ~events:m.Engine.events ~txns:m.Engine.txns
  in
  metric "perf_model.calls" "count" (float_of_int (List.length calls));
  metric "perf_model.solve_us" "us" (1e6 *. per_call calls solve)

(* Store and codec calls on this pass's measurements: reads from the
   populated store, writes into a scratch one. *)
let store_metrics store keys ms =
  let payloads = List.map Engine.measurement_to_string ms in
  let pairs = List.combine (List.map Context.store_key keys) payloads in
  metric "store.read_us" "us"
    (1e6 *. per_call keys (fun k -> Store.find store ~key:(Context.store_key k)));
  metric "store.encode_us" "us" (1e6 *. per_call ms Engine.measurement_to_string);
  metric "store.decode_us" "us" (1e6 *. per_call payloads Engine.measurement_of_string);
  pairs

let write_us pairs ~kind =
  let scratch = Store.open_ ~dir:(fresh_dir ()) ~fingerprint () in
  let (), dt =
    timed (fun () ->
        List.iter (fun (key, data) -> Store.store scratch ~kind ~key ~data ()) pairs)
  in
  ratio (1e6 *. dt) (float_of_int (List.length pairs))

let zero names = List.iter (fun (n, u) -> metric n u 0.0) names

(* Every 11th unique key (4 of fig5's, 5 of fig7's): across machines,
   allocators, and core counts or applications. *)
let sample keys = List.filteri (fun i _ -> i mod 11 = 0) keys

(* The sampled keys run twice, sequentially on this domain: a full
   [Engine.run] (the runtime layer) and the generation-only replay (the
   gen layer); the hierarchy is the difference. *)
let layer_split ms_pool =
  let rows =
    List.map
      (fun (m : Engine.measurement) ->
        let cfg = m.Engine.cfg in
        let m', runtime_s, words =
          Span.with_ ~cat:"runtime" ~name:"Engine.run" (fun () ->
              let w0 = Gc.minor_words () in
              let t0 = now () in
              let m' = Engine.run cfg in
              let t1 = now () in
              (m', t1 -. t0, Gc.minor_words () -. w0))
        in
        attempt 1;
        if Engine.measurement_to_string m' <> Engine.measurement_to_string m then
          fail "sequential Engine.run differs from the pool's result (%s)"
            cfg.Engine.spec.Spec.name;
        let g, gen_s =
          timed (fun () -> Span.with_ ~cat:"gen" ~name:"generate" (fun () -> Gen.run cfg))
        in
        (runtime_s, gen_s, words, float_of_int (txns_of m), g, Gen.matches g m))
      ms_pool
  in
  let total f = sum (List.map f rows) in
  let txns = total (fun (_, _, _, t, _, _) -> t) in
  metric "runtime.minor_words_per_txn" "words" (ratio (total (fun (_, _, w, _, _, _) -> w)) txns);
  (* A replay that no longer runs what the engine runs measures nothing:
     the metrics taken from it read 0 and gen.replay_mismatch counts the
     keys. *)
  let mismatched = List.length (List.filter (fun (_, _, _, _, _, ok) -> not ok) rows) in
  metric "gen.replay_mismatch" "count" (float_of_int mismatched);
  if mismatched > 0 then begin
    Printf.eprintf
      "perfbench: MISMATCH: the gen replay of %d sampled key(s) differs from \
       Engine.run (malloc or data-line count); gen.*, memsim.* and \
       cachesim.self_s/ns_per_access read 0\n"
      mismatched;
    zero
      [
        ("gen.share", "ratio"); ("gen.ns_per_access", "ns"); ("memsim.accesses_per_txn", "count");
        ("memsim.backed_mb", "MB"); ("cachesim.self_s", "s"); ("cachesim.ns_per_access", "ns");
      ]
  end
  else begin
    let runtime_s = total (fun (r, _, _, _, _, _) -> r) in
    let gen_s = total (fun (_, g, _, _, _, _) -> g) in
    let accesses = total (fun (_, _, _, _, g, _) -> float_of_int g.Gen.accesses) in
    metric "gen.share" "ratio" (ratio gen_s runtime_s);
    metric "gen.ns_per_access" "ns" (1e9 *. ratio gen_s accesses);
    metric ~kind:"simulated" "memsim.accesses_per_txn" "count" (ratio accesses txns);
    metric "memsim.backed_mb" "MB"
      (ratio (total (fun (_, _, _, _, g, _) -> float_of_int g.Gen.backed_bytes) /. 1048576.0)
         (float_of_int (List.length rows)));
    metric "cachesim.self_s" "s" (runtime_s -. gen_s);
    metric "cachesim.ns_per_access" "ns" (1e9 *. ratio (runtime_s -. gen_s) accesses)
  end

(* The paper's 8-core relative throughputs (Table 4) against ours:
   region/default and DDmalloc/default for every (machine, application)
   whose three 8-core measurements are present. *)
let paper_mae (ms : Engine.measurement list) =
  let at8 = List.filter (fun m -> m.Engine.cfg.Engine.active_cores = 8) ms in
  let find machine spec pred =
    List.find_opt
      (fun m ->
        m.Engine.cfg.Engine.machine.Machine.name = machine
        && m.Engine.cfg.Engine.spec.Spec.name = spec
        && pred m.Engine.cfg.Engine.kind)
      at8
  in
  let cells =
    List.concat_map
      (fun (m : Engine.measurement) ->
        let machine = m.Engine.cfg.Engine.machine.Machine.name in
        let spec = m.Engine.cfg.Engine.spec.Spec.name in
        match (m.Engine.cfg.Engine.kind, Paper.find_row ~machine ~workload:spec) with
        | Factory.Php_default, Some row -> (
          match
            ( find machine spec (( = ) Factory.Region),
              find machine spec (function Factory.Dd _ -> true | _ -> false) )
          with
          | Some r, Some d ->
            let ours x = x.Engine.throughput /. m.Engine.throughput in
            let theirs (a : Paper.alloc_row) =
              a.Paper.eight_cores /. row.Paper.default_.Paper.eight_cores
            in
            [
              Float.abs (ours r -. theirs row.Paper.region);
              Float.abs (ours d -. theirs row.Paper.ddmalloc);
            ]
          | _ -> [])
        | _ -> [])
      at8
  in
  ratio (sum cells) (float_of_int (List.length cells))

(* --- fig5-cold / fig7-cold ------------------------------------------- *)

type pass = {
  keys : Context.key list;  (** unique, in plan order *)
  ms : Engine.measurement list;
  out : string;
  wall : float;
  cpu_s : float;
  plan_s : float;
  render_s : float;
  exec : (task list * float) option;  (** traced: tasks and execute wall *)
}

let cold_workload ~id ~scale =
  let e = Option.get (Registry.find id) in
  let seed = seed () in
  let setups = ref [] in
  let setup () =
    let (store, ctx), dt =
      timed (fun () ->
          let store = Store.open_ ~dir:(fresh_dir ()) ~fingerprint () in
          (store, Context.create ~scale ~seed ~store ()))
    in
    setups := dt :: !setups;
    (store, ctx)
  in
  let cold ~traced =
    (* Each timed phase starts from a compacted heap, as a fresh `mmstudy`
       process would, not from the garbage of the passes before it. *)
    Gc.compact ();
    let store, ctx = setup () in
    let c0 = cpu () and t0 = now () in
    let planned, plan_s =
      timed (fun () -> Span.with_ ~cat:"experiments" ~name:"plan" (fun () -> e.Registry.plan ctx))
    in
    let exec =
      if traced then Some (traced_execute ~pass:"cold" ctx store planned)
      else begin
        Registry.execute ~jobs ctx planned;
        None
      end
    in
    let out, render_s =
      timed (fun () ->
          Span.with_ ~cat:"experiments" ~name:"render" (fun () ->
              capture (fun () -> e.Registry.render ctx)))
    in
    let wall = now () -. t0 and cpu_s = cpu () -. c0 in
    let keys = unique_keys planned in
    let ms = List.map (Context.force ctx) keys in
    attempt 1;
    if Context.simulated ctx <> List.length keys then
      fail "cold pass simulated %d configurations, expected %d"
        (Context.simulated ctx) (List.length keys);
    List.iter2
      (fun k m ->
        check_output (item_name "m:" (Context.key_name k))
          (md5 (Engine.measurement_to_string m)))
      keys ms;
    check_output "render" (md5 out);
    (store, List.length planned, { keys; ms; out; wall; cpu_s; plan_s; render_s; exec })
  in
  (* A warm pass resolves on this domain: every key is a disk read, and
     spawning the pool's domains would cost more than the reads and tie
     the time to host scheduling. *)
  let warm ~traced store (c : pass) =
    let ctx = Context.create ~scale ~seed ~store () in
    let out, dt =
      timed (fun () ->
          Span.with_ ~cat:"experiments" ~name:"warm pass" (fun () ->
              let planned = e.Registry.plan ctx in
              if traced then ignore (traced_execute ~pass:"warm" ctx store planned)
              else Registry.execute ~jobs:1 ctx planned;
              capture (fun () -> e.Registry.render ctx)))
    in
    (* Checks: no re-simulation, the render, and each key. *)
    attempt (List.length c.keys + 2);
    if Context.simulated ctx > 0 then
      fail "warm pass re-simulated %d configuration(s)" (Context.simulated ctx);
    if out <> c.out then fail "warm render differs from the cold render";
    List.iter2
      (fun k m ->
        if Engine.measurement_to_string (Context.force ctx k) <> Engine.measurement_to_string m
        then fail "warm measurement differs from cold: %s" (Context.key_name k))
      c.keys c.ms;
    (dt, Context.disk_hits ctx)
  in
  let deadline = now () +. !seconds in
  (* One cold pass however fast the host is: peak_rss_mb grows with the
     number of passes, so that number must not depend on how many fit the
     budget.  Warm passes fill the rest of it. *)
  match guard "cold pass" (fun () -> cold ~traced:false) with
  | None -> ()
  | Some (store, planned_n, untraced) ->
    let traced_pass =
      if !trace then begin
        Span.enabled := true;
        guard "traced cold pass" (fun () -> cold ~traced:true)
      end
      else None
    in
    let store, last =
      match traced_pass with Some (s, _, p) -> (s, p) | None -> (store, untraced)
    in
    let peak_mb = peak_rss_mb () in
    let was_enabled = !Span.enabled in
    Span.enabled := false;
    let warms, starts = warm_passes ~deadline (fun () -> warm ~traced:false store last) in
    Span.enabled := was_enabled;
    while List.length !setups < 5 do
      ignore (setup ())
    done;
    if not !trace then begin
      metric "setup_s" "s" (median starts +. median !setups);
      metric "wall_s" "s" untraced.wall;
      metric "cpu_s" "s" untraced.cpu_s;
      metric "warm_s" "s" (median (List.map fst warms));
      metric ~kind:"simulated" "paper_mae" "ratio" (paper_mae last.ms);
      metric "peak_rss_mb" "MB" peak_mb
    end
    else begin
      let traced_warm = guard "traced warm pass" (fun () -> warm ~traced:true store last) in
      let n = float_of_int (List.length last.keys) in
      let tasks, exec_s = Option.value last.exec ~default:([], 0.0) in
      let force_s = List.map (fun t -> t.t_run) tasks in
      let busy = sum force_s in
      metric ~kind:"simulated" "runtime.configs" "count" n;
      metric "runtime.busy_s" "s" busy;
      metric "runtime.config_p50_s" "s" (median force_s);
      metric "runtime.config_tail_s" "s" (tail force_s);
      metric "runtime.us_per_txn" "us"
        (1e6 *. ratio busy (float_of_int (List.fold_left (fun a m -> a + txns_of m) 0 last.ms)));
      layer_split (sample last.ms);
      Span.enabled := false;
      cachesim_stats last.ms;
      perf_model_metrics last.ms ~cores:(fun m -> [ m.Engine.cfg.Engine.active_cores ]);
      sched_metrics tasks ~exec_s;
      let stats = Store.stats ~dir:(Store.dir store) in
      metric "store.writes" "count" (float_of_int stats.Store.entries);
      metric "store.bytes" "bytes" (float_of_int stats.Store.bytes);
      let hits = match traced_warm with Some (_, h) -> float_of_int h | None -> 0.0 in
      metric "store.reads" "count" hits;
      metric "store.hit_ratio" "ratio" (ratio hits n);
      let pairs = store_metrics store last.keys last.ms in
      metric "store.write_us" "us" (write_us pairs ~kind:Store.default_kind);
      metric "experiments.planned" "count" (float_of_int planned_n);
      metric "experiments.dedup_ratio" "ratio" (ratio n (float_of_int planned_n));
      metric "experiments.plan_s" "s" last.plan_s;
      metric "experiments.render_s" "s" last.render_s;
      zero
        [
          ("serve.contention_us", "us"); ("serve.sim_s", "s"); ("serve.attempts", "count");
          ("serve.ns_per_attempt", "ns"); ("serve.amplification", "ratio");
          ("serve.goodput_ratio", "ratio"); ("serve.codec_us", "us");
        ];
      metric "trace.overhead_frac" "ratio" (ratio last.wall untraced.wall -. 1.0)
    end

(* --- serve-sweep ---------------------------------------------------- *)

let serve_scale = 0.05
let serve_requests = 50_000
let serve_cores = 8
let serve_spec = Spec.mediawiki_ro
let machines = [ Machine.xeon; Machine.niagara ]

type sweep_job = {
  s_id : string;
  s_machine : Machine.t;
  s_kind : Factory.kind;
  s_policy : Policy.t;
  s_rates : float list;
}

(* Per machine: the shared load grid (fractions of default's capacity)
   and both client policies, for every PHP allocator. *)
let sweep_jobs ctx =
  List.concat_map
    (fun machine ->
      let cap = Res.default_capacity ctx ~machine in
      let rates = List.map (fun f -> f *. cap) Res.fractions in
      let retry = Res.policy_for ctx ~machine in
      List.concat_map
        (fun kind ->
          List.map
            (fun (pname, policy) ->
              {
                s_id =
                  Printf.sprintf "%s/%s/%s" machine.Machine.name (Factory.kind_name kind) pname;
                s_machine = machine;
                s_kind = kind;
                s_policy = policy;
                s_rates = rates;
              })
            [ ("none", Policy.none); ("retry", retry) ])
        Context.php_kinds)
    machines

let sweep_points ctx j =
  Lat.sweep_points ~policy:j.s_policy ctx ~machine:j.s_machine ~spec:serve_spec
    ~kind:j.s_kind ~cores:serve_cores ~arrival:Mm_serve.Arrival.Poisson
    ~dispatch:Mm_serve.Dispatch.Least_loaded ~requests:serve_requests
    ~warmup_frac:0.1 ~rates:j.s_rates

let measurement_of ctx j =
  Context.run_php ctx ~machine:j.s_machine ~cores:serve_cores ~kind:j.s_kind
    ~spec:serve_spec ()

let serve_workload () =
  let seed = seed () in
  let setups = ref [] in
  let setup () =
    let (store, ctx, keys), dt =
      timed (fun () ->
          let store = Store.open_ ~dir:(fresh_dir ()) ~fingerprint () in
          let ctx = Context.create ~scale:serve_scale ~seed ~store () in
          let keys = unique_keys (Res.plan ctx) in
          Registry.execute ~jobs ctx keys;
          (store, ctx, keys))
    in
    setups := dt :: !setups;
    List.iter
      (fun k ->
        check_output (item_name "m:" (Context.key_name k))
          (md5 (Engine.measurement_to_string (Context.force ctx k))))
      keys;
    (store, ctx, keys)
  in
  (* The timed phase: every sweep through the memoized path `mmstudy
     serve` uses (contention table, Sweep.run, codec, store write). *)
  let cold (store, ctx, keys) =
    Gc.compact ();
    let sims0 = Context.simulated ctx in
    let entries0 = (Store.stats ~dir:(Store.dir store)).Store.entries in
    let c0 = cpu () and t0 = now () in
    let payloads =
      List.map (fun j -> (j, Sweep.points_to_string (sweep_points ctx j))) (sweep_jobs ctx)
    in
    let wall = now () -. t0 and cpu_s = cpu () -. c0 in
    attempt 1;
    if Context.simulated ctx <> sims0 then
      fail "the timed serve phase ran %d simulation(s)" (Context.simulated ctx - sims0);
    List.iter (fun (j, p) -> check_output ("sweep:" ^ j.s_id) (md5 p)) payloads;
    let writes = (Store.stats ~dir:(Store.dir store)).Store.entries - entries0 in
    (store, ctx, keys, payloads, wall, cpu_s, writes)
  in
  let warm store payloads =
    let ctx = Context.create ~scale:serve_scale ~seed ~store () in
    let got, dt =
      timed (fun () ->
          List.map (fun (j, _) -> Sweep.points_to_string (sweep_points ctx j)) payloads)
    in
    (* Checks: no recomputation, and each sweep. *)
    attempt (List.length payloads + 1);
    let resims = Context.simulated ctx + Context.blob_computed ctx in
    if resims > 0 then fail "warm serve pass recomputed %d item(s)" resims;
    List.iter2
      (fun (j, p) p' -> if p <> p' then fail "warm sweep differs from cold: %s" j.s_id)
      payloads got;
    (dt, Context.disk_hits ctx + Context.blob_disk_hits ctx)
  in
  let deadline = now () +. !seconds in
  (* A fixed number of timed passes (three, so one slow pass does not set
     the median; one before the traced pass), as for the cold workloads;
     warm passes fill the rest of the budget. *)
  let reps = if !trace then 1 else 3 in
  match
    List.rev
      (List.filter_map
         (fun _ -> guard "serve pass" (fun () -> cold (setup ())))
         (List.init reps Fun.id))
  with
  | [] -> ()
  | ((store, ctx, keys, payloads, wall, _, writes) :: _) as runs ->
    let peak_mb = peak_rss_mb () in
    let warms, starts = warm_passes ~deadline (fun () -> warm store payloads) in
    while List.length !setups < 3 do
      ignore (setup ())
    done;
    let ms = List.map (Context.force ctx) keys in
    if not !trace then begin
      metric "setup_s" "s" (median starts +. median !setups);
      metric "wall_s" "s" (median (List.map (fun (_, _, _, _, w, _, _) -> w) runs));
      metric "cpu_s" "s" (median (List.map (fun (_, _, _, _, _, c, _) -> c) runs));
      metric "warm_s" "s" (median (List.map fst warms));
      metric ~kind:"simulated" "paper_mae" "ratio" (paper_mae ms);
      metric "peak_rss_mb" "MB" peak_mb
    end
    else begin
      (* The traced pass: the same sweeps with one span per contention
         table, Sim.run and codec call. *)
      Span.enabled := true;
      let attempts = ref 0 and oks = ref 0 and requests = ref 0 in
      let traced_wall =
        match
          guard "traced serve pass" (fun () ->
              snd
                (timed (fun () ->
                     List.iter
                       (fun (j, expected) ->
                         let m = measurement_of ctx j in
                         let service =
                           Span.with_ ~cat:"serve" ~name:"Contention.service_seconds"
                             (fun () -> Contention.service_seconds ~machine:j.s_machine ~measurement:m)
                         in
                         let cfg =
                           {
                             Sim.cores = serve_cores;
                             arrival = Mm_serve.Arrival.Poisson;
                             dispatch = Mm_serve.Dispatch.Least_loaded;
                             rate = 1.0;
                             requests = serve_requests;
                             warmup_frac = 0.1;
                             seed = Context.seed ctx;
                           }
                         in
                         let outcomes =
                           List.map
                             (fun rate ->
                               Span.with_ ~cat:"serve" ~name:"Sim.run"
                                 ~args:(fun (o : Sim.outcome) ->
                                   [ ("sweep", j.s_id); ("attempts", string_of_int o.Sim.attempts) ])
                                 (fun () -> Sim.run ~policy:j.s_policy { cfg with Sim.rate } ~service))
                             j.s_rates
                         in
                         List.iter
                           (fun (o : Sim.outcome) ->
                             attempts := !attempts + o.Sim.attempts;
                             oks := !oks + o.Sim.ok;
                             requests := !requests + serve_requests)
                           outcomes;
                         let payload =
                           Span.with_ ~cat:"serve" ~name:"codec" (fun () ->
                               Sweep.points_to_string (List.map Sweep.point_of_outcome outcomes))
                         in
                         attempt 1;
                         if payload <> expected then
                           fail "traced sweep differs from Sweep.run: %s" j.s_id)
                       payloads)))
        with
        | Some w -> w
        | None -> 0.0
      in
      Span.enabled := false;
      let sim_s = Span.total ~cat:"serve" ~name:"Sim.run" in
      zero
        [
          ("runtime.busy_s", "s"); ("runtime.config_p50_s", "s"); ("runtime.config_tail_s", "s");
          ("runtime.us_per_txn", "us"); ("runtime.minor_words_per_txn", "words");
          ("gen.share", "ratio"); ("gen.ns_per_access", "ns"); ("gen.replay_mismatch", "count");
          ("memsim.accesses_per_txn", "count");
          ("memsim.backed_mb", "MB"); ("cachesim.self_s", "s"); ("cachesim.ns_per_access", "ns");
          ("sched.tasks", "count"); ("sched.utilization", "ratio"); ("sched.tail_idle_s", "s");
          ("experiments.render_s", "s");
        ];
      metric ~kind:"simulated" "runtime.configs" "count" 0.0;
      cachesim_stats ms;
      perf_model_metrics ms ~cores:(fun _ -> List.init serve_cores (fun i -> i + 1));
      let stats = Store.stats ~dir:(Store.dir store) in
      metric "store.writes" "count" (float_of_int writes);
      metric "store.bytes" "bytes" (float_of_int stats.Store.bytes);
      let hits = match warms with (_, h) :: _ -> float_of_int h | [] -> 0.0 in
      metric "store.reads" "count" hits;
      metric "store.hit_ratio" "ratio"
        (ratio hits (float_of_int (List.length keys + List.length payloads)));
      ignore (store_metrics store keys ms);
      metric "store.write_us" "us"
        (write_us ~kind:"serve" (List.map (fun (j, p) -> ("bench-sweep:" ^ j.s_id, p)) payloads));
      let planned = float_of_int (List.length (Res.plan ctx)) in
      metric "experiments.planned" "count" planned;
      metric "experiments.dedup_ratio" "ratio" (ratio (float_of_int (List.length keys)) planned);
      metric "experiments.plan_s" "s" (snd (timed (fun () -> sweep_jobs ctx)));
      metric "serve.contention_us" "us"
        (1e6
        *. per_call (List.map fst payloads) (fun j ->
               Contention.service_seconds ~machine:j.s_machine ~measurement:(measurement_of ctx j)));
      metric "serve.sim_s" "s" sim_s;
      metric ~kind:"simulated" "serve.attempts" "count" (float_of_int !attempts);
      metric "serve.ns_per_attempt" "ns" (1e9 *. ratio sim_s (float_of_int !attempts));
      metric ~kind:"simulated" "serve.amplification" "ratio"
        (ratio (float_of_int !attempts) (float_of_int !requests));
      metric ~kind:"simulated" "serve.goodput_ratio" "ratio"
        (ratio (float_of_int !oks) (float_of_int !attempts));
      metric "serve.codec_us" "us"
        (1e6 *. per_call (List.map snd payloads) (fun p -> Sweep.points_of_string p));
      metric "trace.overhead_frac" "ratio" (ratio traced_wall wall -. 1.0)
    end

(* --- exact counters and the report ------------------------------------ *)

(* Deterministic counts: identical on every run of one tree and seed. *)
let exact =
  [
    "runtime.configs"; "runtime.minor_words_per_txn"; "memsim.accesses_per_txn";
    "memsim.backed_mb"; "cachesim.l1d_hit_ratio"; "cachesim.l2_miss_per_txn";
    "cachesim.bus_tx_per_txn"; "cachesim.dtlb_miss_per_txn"; "experiments.planned";
    "experiments.dedup_ratio"; "sched.tasks"; "store.writes"; "perf_model.calls";
    "serve.attempts"; "serve.amplification"; "serve.goodput_ratio";
  ]

let exact_drift () =
  let drift = ref 0 in
  List.iter
    (fun (name, v, _, _) ->
      if List.mem name exact then begin
        let item = "exact:" ^ name and s = Printf.sprintf "%.17g" v in
        outputs := (item, s) :: !outputs;
        match
          Reference.find (Lazy.force reference) ~fp:fingerprint ~workload:!workload
            ~seed:(seed ()) item
        with
        | Some r when float_of_string r <> v ->
          incr drift;
          Printf.eprintf "perfbench: DRIFT: %s = %s, reference %s\n" name s r
        | Some _ | None -> ()
      end)
    !metrics;
  !drift

let json_number v = Printf.sprintf "%.12g" v

let report () =
  if !trace then begin
    metric "exact.drift" "count" (float_of_int (exact_drift ()));
    List.iter (fun (name, ns) -> metric name "ns" ns) (Micro.run ~quota:0.2);
    metric "failed_frac" "ratio" (ratio (float_of_int !failed) (float_of_int !attempted));
    let path =
      Filename.concat work_root (Printf.sprintf "trace-%s-s%d.json" !workload (seed ()))
    in
    Span.write_chrome path;
    Printf.eprintf "perfbench: trace written to %s; self time by layer:\n" path;
    List.iter
      (fun (cat, s) -> Printf.eprintf "  %-12s %9.3f s\n" cat s)
      (Span.self_times (Span.all ()))
  end;
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, unit, kind) ->
      Printf.eprintf "  %-32s %14s %-6s (%s)\n" name (json_number v) unit kind)
    ms;
  if !record_reference then begin
    Reference.record (Lazy.force reference) ~fp:fingerprint ~workload:!workload
      ~seed:(seed ()) !outputs;
    Printf.eprintf "perfbench: recorded %d reference item(s)\n" (List.length !outputs)
  end
  else if not (has_reference ()) then
    Printf.eprintf
      "perfbench: no reference outputs for %s, seed %d, fingerprint %s; only \
       internal consistency was checked\n"
      !workload (seed ()) fingerprint;
  let correct = !failed = 0 && !attempted > 0 in
  (* The line before the result tells result-set tools (sweep.py) which
     workload seed --seed selected and which metrics are exact. *)
  Printf.printf "{\"workload\": %s, \"workload_seed\": %d, \"fingerprint\": %s, \"exact\": [%s]}\n"
    (Span.json_string !workload) (seed ()) (Span.json_string fingerprint)
    (String.concat ", " (List.map Span.json_string exact));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit, _) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
              (json_number v) (Span.json_string unit))
          ms));
  if not correct then exit 1

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "fig5-cold | fig7-cold | serve-sweep");
      ("--seed", Arg.Set_int seed_arg, "N  workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measurement budget (default 58)");
      ("--trace", Arg.Int (fun n -> trace := n <> 0), "0|1  per-layer run");
      ("--record-reference", Arg.Set record_reference, " store this run's outputs as the reference");
      ("--probe-setup", Arg.Set probe_setup, " start, open a store and a context, exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let scale, run =
    match !workload with
    | "fig5-cold" -> (0.1, fun () -> cold_workload ~id:"fig5" ~scale:0.1)
    | "fig7-cold" -> (0.05, fun () -> cold_workload ~id:"fig7" ~scale:0.05)
    | "serve-sweep" -> (serve_scale, serve_workload)
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  mkdir_p work_dir;
  if !probe_setup then begin
    let store = Store.open_ ~dir:(fresh_dir ()) ~fingerprint () in
    ignore (Context.create ~scale ~seed:(seed ()) ~store ());
    rm_rf work_dir;
    exit 0
  end;
  Fun.protect run ~finally:(fun () -> rm_rf work_dir);
  report ()
