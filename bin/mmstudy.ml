(* mmstudy — command-line driver for the reproduction study.

   Subcommands: list what can be run, run one experiment or all of them,
   and run a single simulation configuration with a detailed profile. *)

module Store = Mm_store.Store

let ctx_of ~scale ~seed ~cache ~refresh ~cache_dir =
  let store =
    if cache then
      Some
        (Store.open_ ?dir:cache_dir
           ~fingerprint:Mm_runtime.Version.sim_fingerprint ())
    else None
  in
  Mm_experiments.Context.create ~scale ~seed ?store ~refresh ()

(* Execution accounting goes to stderr so that a warm (store-served) run
   stays byte-identical to a cold run on stdout — check.sh diffs them
   (and greps the "simulations: N," and "serve sims: N," fields). *)
let print_exec_summary ctx =
  match Mm_experiments.Context.store ctx with
  | None -> ()
  | Some s ->
    Printf.eprintf
      "[mmstudy] simulations: %d, disk hits: %d, serve sims: %d, serve \
       hits: %d, store errors: %d%s, store: %s\n%!"
      (Mm_experiments.Context.simulated ctx)
      (Mm_experiments.Context.disk_hits ctx)
      (Mm_experiments.Context.blob_computed ctx)
      (Mm_experiments.Context.blob_disk_hits ctx)
      (Mm_experiments.Context.store_errors ctx)
      (if Mm_experiments.Context.store_degraded ctx then
         " (store degraded: running in-memory)"
       else "")
      (Store.dir s)

let scale_arg =
  let doc =
    "Transaction scale: fraction of Table 3's per-transaction call counts \
     to simulate (results are reported at full-transaction equivalents)."
  in
  Cmdliner.Arg.(value & opt float 0.25 & info [ "scale" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Random seed (every run is deterministic given the seed)." in
  Cmdliner.Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the execute stage: independent simulation \
     configurations are planned up front and run J at a time.  Output is \
     byte-identical at any J (measurements are memoized per configuration \
     and each simulation is hermetic)."
  in
  Cmdliner.Arg.(
    value
    & opt int (Mm_sched.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"J" ~doc)

let check_jobs jobs =
  if jobs < 1 then Error (Printf.sprintf "--jobs must be >= 1 (got %d)" jobs)
  else Ok jobs

let cache_arg =
  let on =
    Cmdliner.Arg.info [ "cache" ]
      ~doc:
        "Serve measurements from the persistent store when possible and \
         record fresh ones into it (the default)."
  in
  let off =
    Cmdliner.Arg.info [ "no-cache" ]
      ~doc:
        "Disable the persistent measurement store entirely: neither read \
         nor write it (process-local memoization only)."
  in
  Cmdliner.Arg.(value & vflag true [ (true, on); (false, off) ])

let refresh_arg =
  let doc =
    "Ignore existing store entries and recompute every configuration, \
     writing the fresh results back into the store."
  in
  Cmdliner.Arg.(value & flag & info [ "refresh" ] ~doc)

let cache_dir_arg =
  let doc =
    "Measurement store directory (default: \\$MMSTUDY_CACHE_DIR if set, \
     else _mmstudy_cache)."
  in
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* --no-cache asks for no store at all; flags that only make sense with a
   store are conflicts, not silent no-ops. *)
let check_cache_flags ~cache ~refresh ~cache_dir =
  if (not cache) && refresh then
    Error "--no-cache conflicts with --refresh (nothing to refresh)"
  else if (not cache) && cache_dir <> None then
    Error "--no-cache conflicts with --cache-dir (no store will be opened)"
  else Ok ()

let list_cmd =
  let run () =
    print_endline "Experiments (ids for `mmstudy run`):";
    List.iter
      (fun e ->
        Printf.printf "  %-9s %s\n" e.Mm_experiments.Registry.id
          e.Mm_experiments.Registry.title;
        Printf.printf "  %-9s %s [scale %g]\n" ""
          e.Mm_experiments.Registry.desc
          e.Mm_experiments.Registry.default_scale)
      Mm_experiments.Registry.all;
    print_endline "\nWorkloads:";
    List.iter
      (fun s ->
        Printf.printf "  %-14s %s (%d mallocs/txn, mean %.1f B)\n"
          s.Mm_workload.Spec.name s.Mm_workload.Spec.paper_name
          s.Mm_workload.Spec.mallocs s.Mm_workload.Spec.mean_size)
      (Mm_workload.Spec.php_apps @ [ Mm_workload.Spec.rails ]);
    print_endline "\nAllocators:";
    List.iter
      (fun k ->
        Printf.printf "  %s\n" (Mm_runtime.Alloc_factory.kind_name k))
      Mm_runtime.Alloc_factory.all_kinds;
    print_endline "\nMachines: xeon (2x quad-core Clovertown), niagara (UltraSPARC T1)"
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List experiments, workloads, allocators.")
    Cmdliner.Term.(const run $ const ())

let run_cmd =
  let id_arg =
    let doc = "Experiment id (see `mmstudy list`), or `all`." in
    Cmdliner.Arg.(
      required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run id scale seed jobs cache refresh cache_dir =
    match (check_jobs jobs, check_cache_flags ~cache ~refresh ~cache_dir) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok jobs, Ok () -> (
      if id <> "all" && Option.is_none (Mm_experiments.Registry.find id) then
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; valid ids: %s" id
              (String.concat ", " (Mm_experiments.Registry.ids @ [ "all" ])) )
      else begin
        let ctx = ctx_of ~scale ~seed ~cache ~refresh ~cache_dir in
        (match Mm_experiments.Registry.find id with
        | Some e -> Mm_experiments.Registry.run ~jobs ctx e
        | None -> Mm_experiments.Registry.run_all ~jobs ctx);
        print_exec_summary ctx;
        `Ok ()
      end)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run"
       ~doc:"Run one experiment (a table or figure of the paper) or all.")
    Cmdliner.Term.(
      ret
        (const run $ id_arg $ scale_arg $ seed_arg $ jobs_arg $ cache_arg
       $ refresh_arg $ cache_dir_arg))

(* Configuration flags and name lookups shared by `sim` and `serve`. *)
let machine_arg =
  let doc = "Machine model: xeon or niagara." in
  Cmdliner.Arg.(value & opt string "xeon" & info [ "machine" ] ~docv:"M" ~doc)

let workload_arg =
  let doc = "Workload (see `mmstudy list`)." in
  Cmdliner.Arg.(
    value & opt string "mediawiki-ro" & info [ "workload" ] ~docv:"W" ~doc)

let alloc_names =
  List.map Mm_runtime.Alloc_factory.kind_name Mm_runtime.Alloc_factory.all_kinds

let unknown what name valid =
  `Error
    (false, Printf.sprintf "unknown %s %S; valid: %s" what name
       (String.concat ", " valid))

let unknown_machine name =
  unknown "machine" name
    (List.map (fun m -> m.Mm_cachesim.Machine.name) Mm_cachesim.Machine.all)

let unknown_workload name =
  unknown "workload" name
    (List.map
       (fun s -> s.Mm_workload.Spec.name)
       (Mm_workload.Spec.php_apps @ [ Mm_workload.Spec.rails ]))

let sim_cmd =
  let cores_arg =
    let doc = "Active cores (1 to the machine's core count)." in
    Cmdliner.Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc)
  in
  let alloc_arg =
    let doc = "Allocator (see `mmstudy list`)." in
    Cmdliner.Arg.(
      value & opt string "ddmalloc" & info [ "alloc" ] ~docv:"A" ~doc)
  in
  let run machine cores alloc workload scale seed jobs cache refresh cache_dir =
    match
      ( Mm_cachesim.Machine.of_name machine,
        Mm_runtime.Alloc_factory.of_name alloc,
        Mm_workload.Spec.by_name workload,
        check_jobs jobs,
        check_cache_flags ~cache ~refresh ~cache_dir )
    with
    | None, _, _, _, _ -> unknown_machine machine
    | _, None, _, _, _ -> unknown "allocator" alloc alloc_names
    | _, _, None, _, _ -> unknown_workload workload
    | _, _, _, Error msg, _ | _, _, _, _, Error msg -> `Error (false, msg)
    | Some machine, Some _, Some _, Ok _, Ok ()
      when cores < 1 || cores > machine.Mm_cachesim.Machine.cores ->
      `Error
        ( false,
          Printf.sprintf "--cores must be in 1..%d for %s (got %d)"
            machine.Mm_cachesim.Machine.cores
            machine.Mm_cachesim.Machine.name cores )
    | Some machine, Some kind, Some spec, Ok jobs, Ok () ->
      let ctx = ctx_of ~scale ~seed ~cache ~refresh ~cache_dir in
      let key =
        Mm_experiments.Context.php_key ctx ~machine ~cores ~kind ~spec ()
      in
      Mm_experiments.Context.prefetch ctx ~jobs [ key ];
      let m = Mm_experiments.Context.force ctx key in
      let p = m.Mm_runtime.Engine.perf in
      let module P = Mm_cachesim.Perf_model in
      let module E = Mm_cachesim.Events in
      Printf.printf "%s, %d core(s), %s, %s (scale %.2f):\n" machine.Mm_cachesim.Machine.name
        cores alloc workload scale;
      Printf.printf "  throughput            %10.1f txn/s\n"
        m.Mm_runtime.Engine.throughput;
      Printf.printf "  cycles/txn            %10.0f (full-transaction equivalent)\n"
        (p.P.cycles_per_txn /. scale);
      Printf.printf "  memory mgmt share     %10.1f %%\n"
        (100.0 *. p.P.breakdown.P.mgmt_cycles /. p.P.cycles_per_txn);
      Printf.printf "  bus utilization       %10.2f\n" p.P.bus_utilization;
      Printf.printf "  eff. memory latency   %10.0f cycles\n" p.P.mem_latency_eff;
      let per c = Mm_runtime.Engine.event_per_txn m c /. scale in
      List.iter
        (fun c ->
          Printf.printf "  %-20s  %10.0f /txn\n" (E.counter_name c) (per c))
        E.all_counters;
      Printf.printf "  consumption (mean)    %10s\n"
        (Mm_stats.Table.fmt_bytes
           (int_of_float
              (Mm_stats.Summary.mean m.Mm_runtime.Engine.consumption /. scale)));
      print_exec_summary ctx;
      `Ok ()
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sim"
       ~doc:"Run one simulation configuration and print its full profile.")
    Cmdliner.Term.(
      ret
        (const run $ machine_arg $ cores_arg $ alloc_arg $ workload_arg
       $ scale_arg $ seed_arg $ jobs_arg $ cache_arg $ refresh_arg
       $ cache_dir_arg))

(* --- the `mmstudy serve` subcommand ---------------------------------- *)

(* Offered-load sweeps on the discrete-event serving simulator
   (lib/serve), driven through the same memoized pipeline as the
   experiments: measurements prefetch on the domain pool, the sweeps
   themselves are cheap, sequential, and memoized as "serve" store
   payloads — so output is byte-identical at any -j and a warm re-run
   performs zero simulations of either kind. *)
let serve_cmd =
  let cores_arg =
    let doc = "Serving cores (1 to the machine's core count)." in
    Cmdliner.Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc)
  in
  let allocs_arg =
    let doc = "Comma-separated allocators to sweep (see `mmstudy list`)." in
    Cmdliner.Arg.(
      value
      & opt string "php-default,region,ddmalloc"
      & info [ "alloc" ] ~docv:"A,B,..." ~doc)
  in
  let arrival_arg =
    let doc = "Arrival process: poisson, or bursty (MMPP-2, 4x bursts)." in
    Cmdliner.Arg.(
      value & opt string "poisson" & info [ "arrival" ] ~docv:"P" ~doc)
  in
  let dispatch_arg =
    let doc = "Dispatch policy: round-robin, least-loaded, or affinity." in
    Cmdliner.Arg.(
      value & opt string "least-loaded" & info [ "dispatch" ] ~docv:"D" ~doc)
  in
  let rps_arg =
    let doc =
      "Offered load sweep: comma-separated requests/second, or `auto' \
       (fractions 0.3..1.1 of the default allocator's capacity at the \
       chosen core count)."
    in
    Cmdliner.Arg.(value & opt string "auto" & info [ "rps" ] ~docv:"R,..." ~doc)
  in
  let duration_arg =
    let doc =
      "Seconds of offered load per sweep point.  The request count is \
       duration times the highest swept rate, identical across points and \
       allocators so curves are comparable."
    in
    Cmdliner.Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let timeout_arg =
    let doc =
      "Client deadline in seconds (0 = no deadline).  A request still \
       queued or in service past its deadline counts as a timeout and the \
       client retries (see --retries)."
    in
    Cmdliner.Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"S" ~doc)
  in
  let retries_arg =
    let doc =
      "Client retries after a timeout or shed, with capped exponential \
       backoff and jitter (0 = give up immediately)."
    in
    Cmdliner.Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let admission_arg =
    let doc =
      "Admission control: `always' (admit everything), `queue:N' (shed \
       when the picked core already holds N requests), or `deadline-aware' \
       (shed when the queue's expected wait already exceeds the deadline)."
    in
    Cmdliner.Arg.(
      value & opt string "always" & info [ "admission" ] ~docv:"POLICY" ~doc)
  in
  let auto_fractions = [ 0.3; 0.5; 0.7; 0.8; 0.9; 0.95; 1.0; 1.1 ] in
  let parse_rps s =
    if s = "auto" then Ok None
    else
      let parts = String.split_on_char ',' s in
      let rates = List.filter_map float_of_string_opt parts in
      if List.length rates <> List.length parts || rates = [] then
        Error "--rps must be `auto' or a comma-separated list of numbers"
      else if List.exists (fun r -> r <= 0.0) rates then
        Error "--rps rates must be positive"
      else Ok (Some rates)
  in
  let parse_allocs s =
    let parts = String.split_on_char ',' s in
    let kinds = List.filter_map Mm_runtime.Alloc_factory.of_name parts in
    if List.length kinds <> List.length parts || kinds = [] then
      Error
        (Printf.sprintf "unknown allocator in --alloc %S; valid: %s" s
           (String.concat ", " alloc_names))
    else Ok kinds
  in
  (* All-default policy flags mean the plain simulator: Policy.none, not
     an equivalent [make] product, so the sweep key (and thus warm-store
     behavior) of a policy-free `mmstudy serve` is unchanged. *)
  let parse_policy ~timeout ~retries ~admission =
    match Mm_serve.Policy.admission_of_name admission with
    | Error msg -> Error msg
    | Ok _ when timeout < 0.0 -> Error "--timeout must be >= 0 seconds"
    | Ok _ when retries < 0 -> Error "--retries must be >= 0"
    | Ok adm ->
      if timeout = 0.0 && retries = 0 && adm = Mm_serve.Policy.Always then
        Ok Mm_serve.Policy.none
      else
        Ok
          (match timeout with
          | 0.0 -> Mm_serve.Policy.make ~max_retries:retries ~admission:adm ()
          | d ->
            Mm_serve.Policy.make ~deadline:d ~max_retries:retries
              ~admission:adm ())
  in
  let run machine cores workload allocs arrival dispatch rps duration timeout
      retries admission scale seed jobs cache refresh cache_dir =
    match
      ( Mm_cachesim.Machine.of_name machine,
        Mm_workload.Spec.by_name workload,
        parse_allocs allocs,
        Mm_serve.Arrival.of_name arrival,
        Mm_serve.Dispatch.of_name dispatch,
        parse_rps rps,
        check_jobs jobs )
    with
    | None, _, _, _, _, _, _ -> unknown_machine machine
    | _, None, _, _, _, _, _ -> unknown_workload workload
    | _, _, Error msg, _, _, _, _ -> `Error (false, msg)
    | _, _, _, None, _, _, _ ->
      unknown "arrival" arrival
        (List.map Mm_serve.Arrival.name Mm_serve.Arrival.all)
    | _, _, _, _, None, _, _ ->
      unknown "dispatch" dispatch
        (List.map Mm_serve.Dispatch.name Mm_serve.Dispatch.all)
    | _, _, _, _, _, Error msg, _ -> `Error (false, msg)
    | _, _, _, _, _, _, Error msg -> `Error (false, msg)
    | Some machine, Some _, Ok _, Some _, Some _, Ok _, Ok _
      when cores < 1 || cores > machine.Mm_cachesim.Machine.cores ->
      `Error
        ( false,
          Printf.sprintf "--cores must be in 1..%d for %s (got %d)"
            machine.Mm_cachesim.Machine.cores
            machine.Mm_cachesim.Machine.name cores )
    | _, _, _, _, _, _, Ok _ when not (duration > 0.0) ->
      `Error (false, "--duration must be positive")
    | Some machine, Some spec, Ok kinds, Some arrival, Some dispatch, Ok rps,
      Ok jobs -> (
      match
        ( parse_policy ~timeout ~retries ~admission,
          check_cache_flags ~cache ~refresh ~cache_dir )
      with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok policy, Ok () ->
      let module Ctx = Mm_experiments.Context in
      let module Lat = Mm_experiments.Exp_latency in
      let module Sweep = Mm_serve.Sweep in
      let ctx = ctx_of ~scale ~seed ~cache ~refresh ~cache_dir in
      let default_kind = Mm_runtime.Alloc_factory.Php_default in
      (* The auto grid needs the default allocator's measurement even when
         it is not swept; plan the union and prefetch on the pool. *)
      let planned =
        (if rps = None then [ default_kind ] else [])
        @ kinds
        |> List.map (fun kind ->
               Ctx.php_key ctx ~machine ~cores ~kind ~spec ())
      in
      Ctx.prefetch ctx ~jobs planned;
      let rates =
        match rps with
        | Some rates -> rates
        | None ->
          let cap =
            Lat.capacity_of ctx ~machine ~spec ~kind:default_kind ~cores
          in
          List.map (fun f -> f *. cap) auto_fractions
      in
      let max_rate = List.fold_left Float.max 0.0 rates in
      let requests =
        Stdlib.max 200
          (Stdlib.min 50_000 (int_of_float (duration *. max_rate)))
      in
      let policy_active = not (Mm_serve.Policy.is_none policy) in
      Printf.printf
        "Serving %s on %d %s core(s): %s arrivals, %s dispatch, %d requests \
         per point (seed %d, scale %.2f)\n"
        workload cores machine.Mm_cachesim.Machine.name
        (Mm_serve.Arrival.name arrival)
        (Mm_serve.Dispatch.name dispatch)
        requests seed scale;
      if policy_active then
        Printf.printf "Client policy: %s\n" (Mm_serve.Policy.describe policy);
      print_newline ();
      let summary =
        Mm_stats.Table.create ~title:"Saturation summary"
          ~columns:
            ([
               ("allocator", Mm_stats.Table.Left);
               ("capacity RPS", Mm_stats.Table.Right);
               ("max sustained RPS", Mm_stats.Table.Right);
             ]
            @
            if policy_active then
              [ ("collapse RPS", Mm_stats.Table.Right) ]
            else [])
      in
      List.iter
        (fun kind ->
          let name = Mm_runtime.Alloc_factory.kind_name kind in
          let points =
            Lat.sweep_points ~policy ctx ~machine ~spec ~kind ~cores ~arrival
              ~dispatch ~requests ~warmup_frac:0.1 ~rates
          in
          let t =
            Mm_stats.Table.create
              ~title:(Printf.sprintf "%s: latency vs offered load" name)
              ~columns:
                ([
                   ("offered RPS", Mm_stats.Table.Right);
                   ("p50", Mm_stats.Table.Right);
                   ("p90", Mm_stats.Table.Right);
                   ("p99", Mm_stats.Table.Right);
                   ("p99.9", Mm_stats.Table.Right);
                   ("util", Mm_stats.Table.Right);
                 ]
                @ (if policy_active then
                     [
                       ("goodput RPS", Mm_stats.Table.Right);
                       ("shed", Mm_stats.Table.Right);
                       ("timeout", Mm_stats.Table.Right);
                       ("amp", Mm_stats.Table.Right);
                     ]
                   else [])
                @ [ ("", Mm_stats.Table.Left) ])
          in
          let ms v = Printf.sprintf "%.2f ms" (1000.0 *. v) in
          let pct v = Printf.sprintf "%.0f%%" (100.0 *. v) in
          List.iter
            (fun (p : Sweep.point) ->
              Mm_stats.Table.add_row t
                ([
                   Printf.sprintf "%.0f" p.Sweep.rate;
                   ms p.Sweep.p50;
                   ms p.Sweep.p90;
                   ms p.Sweep.p99;
                   ms p.Sweep.p999;
                   Printf.sprintf "%.2f" p.Sweep.utilization;
                 ]
                @ (if policy_active then
                     [
                       Printf.sprintf "%.0f" p.Sweep.goodput_rps;
                       pct p.Sweep.shed_rate;
                       pct p.Sweep.timeout_rate;
                       Printf.sprintf "%.2f" p.Sweep.amplification;
                     ]
                   else [])
                @ [
                    (if policy_active && Sweep.collapsed p then "COLLAPSED"
                     else if p.Sweep.saturated then "SATURATED"
                     else "");
                  ]))
            points;
          Mm_stats.Table.print t;
          let cap = Lat.capacity_of ctx ~machine ~spec ~kind ~cores in
          Mm_stats.Table.add_row summary
            ([
               name;
               Printf.sprintf "%.0f" cap;
               (match Sweep.max_sustainable points with
               | Some r -> Printf.sprintf "%.0f" r
               | None -> "none (all points saturated)");
             ]
            @
            if policy_active then
              [
                (match Sweep.collapse_rate points with
                | Some r -> Printf.sprintf "%.0f" r
                | None -> "none in sweep");
              ]
            else []))
        kinds;
      Mm_stats.Table.print summary;
      print_exec_summary ctx;
      `Ok ())
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "serve"
       ~doc:
         "Sweep offered load on the discrete-event serving simulator: tail \
          latency and saturation per allocator.")
    Cmdliner.Term.(
      ret
        (const run $ machine_arg $ cores_arg $ workload_arg $ allocs_arg
       $ arrival_arg $ dispatch_arg $ rps_arg $ duration_arg $ timeout_arg
       $ retries_arg $ admission_arg $ scale_arg $ seed_arg $ jobs_arg
       $ cache_arg $ refresh_arg $ cache_dir_arg))

(* --- the `mmstudy cache` maintenance group --------------------------- *)

let cache_cmd =
  let dir_arg =
    let doc =
      "Store directory (default: \\$MMSTUDY_CACHE_DIR if set, else \
       _mmstudy_cache)."
    in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let resolve_dir dir = Option.value dir ~default:(Store.default_dir ()) in
  let print_by_kind by_kind =
    List.iter
      (fun (kind, n, bytes) ->
        Printf.printf "  %-12s %d entry(ies), %.2f MB\n" kind n
          (float_of_int bytes /. 1048576.0))
      by_kind
  in
  let stats_cmd =
    let run dir =
      let dir = resolve_dir dir in
      let s = Store.stats ~dir in
      Printf.printf "store:       %s\n" dir;
      Printf.printf "fingerprint: %s\n" Mm_runtime.Version.sim_fingerprint;
      Printf.printf "entries:     %d\n" s.Store.entries;
      print_by_kind s.Store.by_kind;
      Printf.printf "bytes:       %d (%.2f MB)\n" s.Store.bytes
        (float_of_int s.Store.bytes /. 1048576.0)
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "stats"
         ~doc:"Show entry count and size of the measurement store.")
      Cmdliner.Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let run dir =
      let dir = resolve_dir dir in
      let n = Store.clear ~dir in
      Printf.printf "removed %d entry(ies) from %s\n" n dir
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "clear"
         ~doc:"Delete every entry of the measurement store.")
      Cmdliner.Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let max_mb_arg =
      let doc = "Target size: evict least-recently-used entries until the \
                 store fits in $(docv) megabytes." in
      Cmdliner.Arg.(
        required & opt (some float) None & info [ "max-mb" ] ~docv:"MB" ~doc)
    in
    let run dir max_mb =
      if max_mb < 0.0 then `Error (false, "--max-mb must be >= 0")
      else begin
        let dir = resolve_dir dir in
        let max_bytes = int_of_float (max_mb *. 1048576.0) in
        let n = Store.gc ~dir ~max_bytes in
        let s = Store.stats ~dir in
        Printf.printf "evicted %d entry(ies); %d left (%.2f MB) in %s\n" n
          s.Store.entries
          (float_of_int s.Store.bytes /. 1048576.0)
          dir;
        print_by_kind s.Store.by_kind;
        `Ok ()
      end
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "gc"
         ~doc:"Evict least-recently-used entries down to a size budget.")
      Cmdliner.Term.(ret (const run $ dir_arg $ max_mb_arg))
  in
  Cmdliner.Cmd.group
    (Cmdliner.Cmd.info "cache"
       ~doc:"Inspect and maintain the persistent measurement store.")
    [ stats_cmd; clear_cmd; gc_cmd ]

let () =
  let doc =
    "Reproduction of `A Study of Memory Management for Web-based \
     Applications on Multicore Processors' (PLDI 2009)."
  in
  let info = Cmdliner.Cmd.info "mmstudy" ~version:"1.0.0" ~doc in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [ list_cmd; run_cmd; sim_cmd; serve_cmd; cache_cmd ]))
