(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Tables 1, 3, 4; Figures 1, 5, 6, 7, 8, 9, 10, 11, 12) plus the
   ablation sweeps, printing measured-vs-paper columns.  Part 2 runs
   Bechamel microbenchmarks — one Test.make per allocator hot path — of
   the implementations themselves (host wall-clock time of malloc/free in
   the simulated heap, observers detached).

   Part 1 runs twice: cold (fresh persistent store, every configuration
   simulated) and warm (same store, new process-equivalent context — all
   measurements served from disk), so every BENCH_RESULTS.json records
   both the simulator's speed and the warm rerun's time.

   Environment knobs:
     BENCH_SCALE   transaction scale (default 0.15; the paper-fidelity
                   reporting scale is 0.25, see EXPERIMENTS.md)
     BENCH_ONLY    comma-separated experiment ids (default: all)
     BENCH_JOBS    worker domains for the execute stage (default: the
                   machine's recommended domain count, clamped)
     BENCH_SKIP_MICRO / BENCH_SKIP_EXPERIMENTS / BENCH_SKIP_WARM
                   set to skip a part *)

let getenv_default name default =
  match Sys.getenv_opt name with
  | Some v when String.trim v <> "" -> v
  | Some _ | None -> default

let scale = float_of_string (getenv_default "BENCH_SCALE" "0.15")

let only =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None -> None
  | Some s -> Some (String.split_on_char ',' (String.trim s))

let jobs =
  Stdlib.max 1
    (int_of_string
       (getenv_default "BENCH_JOBS"
          (string_of_int (Mm_sched.Pool.default_jobs ()))))

(* --- Part 1: the paper's tables and figures --- *)

(* Machine-readable perf trajectory.  Every experiment run appends a
   timing record; [write_results] dumps them as BENCH_RESULTS.json (the
   latest snapshot) and appends the same record as one line to
   BENCH_HISTORY.jsonl (the cumulative trajectory) so successive PRs can
   be compared without parsing tables.  JSON is emitted by hand — no
   dependency for a flat record. *)

let command_line cmd =
  match Unix.open_process_in cmd with
  | exception _ -> ""
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | _ -> String.trim line
    | exception _ -> "")

(* The exact commit the numbers belong to.  A dirty tree makes the
   trajectory unattributable, so it is marked loudly in the output and in
   the JSON rather than silently folded into a rev suffix. *)
let git_rev () =
  match command_line "git rev-parse HEAD 2>/dev/null" with
  | "" -> "unknown"
  | rev -> rev

let git_dirty () = command_line "git status --porcelain 2>/dev/null" <> ""

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let results_json ~timings ~total_s ~warm ~serve ~resilience =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": 2,\n";
  Printf.bprintf b "  \"git\": \"%s\",\n" (json_escape (git_rev ()));
  Printf.bprintf b "  \"git_dirty\": %b,\n" (git_dirty ());
  Printf.bprintf b "  \"fingerprint\": \"%s\",\n"
    (json_escape Mm_runtime.Version.sim_fingerprint);
  Printf.bprintf b "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.bprintf b "  \"scale\": %g,\n" scale;
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Printf.bprintf b "  \"total_seconds\": %.2f,\n" total_s;
  (match warm with
  | None -> ()
  | Some warm_s ->
    (* Absolute only: a cold/warm ratio divides by a warm time of a few
       hundredths of a second and swings by thousands between runs. *)
    Printf.bprintf b "  \"warm_total_seconds\": %.2f,\n" warm_s);
  (match serve with
  | None | Some [] -> ()
  | Some headlines ->
    (* The latency headline: per allocator, capacity / max sustained
       RPS / p99 at 0.8x default capacity (see exp_latency.ml). *)
    Buffer.add_string b "  \"serve\": [\n";
    let last = List.length headlines - 1 in
    List.iteri
      (fun i h ->
        let open Mm_experiments.Exp_latency in
        Printf.bprintf b
          "    {\"machine\": \"%s\", \"workload\": \"%s\", \"allocator\": \
           \"%s\", \"capacity_rps\": %.1f, \"max_rps\": %.1f, \
           \"p99_ms_at_0.8cap\": %.2f}%s\n"
          (json_escape h.h_machine) (json_escape h.h_spec)
          (json_escape h.h_alloc) h.h_capacity h.h_max_rps h.h_p99_ms
          (if i = last then "" else ","))
      headlines;
    Buffer.add_string b "  ],\n");
  (match resilience with
  | None | Some [] -> ()
  | Some headlines ->
    (* The overload headline: collapse onset (fraction of default's
       capacity; 0 = none inside the grid) and retry amplification at
       1.0x capacity (see exp_resilience.ml). *)
    Buffer.add_string b "  \"resilience\": [\n";
    let last = List.length headlines - 1 in
    List.iteri
      (fun i h ->
        let open Mm_experiments.Exp_resilience in
        Printf.bprintf b
          "    {\"machine\": \"%s\", \"allocator\": \"%s\", \
           \"collapse_frac\": %.2f, \"amplification_at_cap\": %.2f}%s\n"
          (json_escape h.r_machine) (json_escape h.r_alloc) h.r_collapse_frac
          h.r_amp_at_cap
          (if i = last then "" else ","))
      headlines;
    Buffer.add_string b "  ],\n");
  Buffer.add_string b "  \"experiments\": [\n";
  List.iteri
    (fun i (id, s) ->
      Printf.bprintf b "    {\"id\": \"%s\", \"seconds\": %.2f}%s\n"
        (json_escape id) s
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write_results ~timings ~total_s ~warm ~serve ~resilience =
  if git_dirty () then
    print_endline
      "*** DIRTY TREE: BENCH_RESULTS.json will carry \"git_dirty\": true —\n\
       *** these numbers are not attributable to a commit.  Commit first\n\
       *** before recording a perf point.";
  let json = results_json ~timings ~total_s ~warm ~serve ~resilience in
  let oc = open_out "BENCH_RESULTS.json" in
  output_string oc json;
  close_out oc;
  (* The cumulative trajectory: one compact line per bench run, appended,
     never overwritten. *)
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_HISTORY.jsonl"
  in
  String.iter (fun c -> if c <> '\n' then output_char oc c) json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "Wrote BENCH_RESULTS.json (%d experiment(s)); appended to \
                 BENCH_HISTORY.jsonl\n%!"
    (List.length timings)

(* One pass over the selected experiments with the given context.
   Plan → execute → render per experiment, so the per-experiment timing
   stays meaningful; configurations shared between experiments are still
   simulated only once thanks to the memo table. *)
let run_selected ctx =
  let timings = ref [] in
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun e ->
      let selected =
        match only with
        | None -> true
        | Some ids -> List.mem e.Mm_experiments.Registry.id ids
      in
      if selected then begin
        let t0 = Unix.gettimeofday () in
        Printf.printf "### %s — %s\n\n%!" e.Mm_experiments.Registry.id
          e.Mm_experiments.Registry.title;
        Mm_experiments.Registry.run ~jobs ctx e;
        let dt = Unix.gettimeofday () -. t0 in
        timings := (e.Mm_experiments.Registry.id, dt) :: !timings;
        Printf.printf "  [%s: %.1f s]\n\n%!" e.Mm_experiments.Registry.id dt
      end)
    Mm_experiments.Registry.all;
  (List.rev !timings, Unix.gettimeofday () -. t_start)

(* The warm pass re-renders everything (store hits only); its stdout is
   a byte-identical duplicate of the cold pass, so it goes to /dev/null. *)
let with_stdout_to_null f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)

let run_experiments () =
  Printf.printf
    "=== Reproduction of the paper's evaluation (transaction scale %.2f, %d job(s)) ===\n\n%!"
    scale jobs;
  let store_dir = Filename.temp_dir "mmstudy-bench-store" "" in
  let store =
    Mm_store.Store.open_ ~dir:store_dir
      ~fingerprint:Mm_runtime.Version.sim_fingerprint ()
  in
  let cold_ctx = Mm_experiments.Context.create ~scale ~store () in
  let timings, total_s = run_selected cold_ctx in
  let warm =
    if Sys.getenv_opt "BENCH_SKIP_WARM" <> None then None
    else begin
      (* A fresh context over the populated store stands in for a fresh
         process: zero simulations, everything from disk. *)
      let warm_ctx = Mm_experiments.Context.create ~scale ~store () in
      let _, warm_s = with_stdout_to_null (fun () -> run_selected warm_ctx) in
      let sims = Mm_experiments.Context.simulated warm_ctx in
      Printf.printf
        "Warm rerun from the store: %.2f s vs %.2f s cold, %d \
         simulation(s), %d disk hit(s)\n\n%!"
        warm_s total_s sims
        (Mm_experiments.Context.disk_hits warm_ctx);
      if sims <> 0 then
        Printf.printf
          "*** WARM RERUN SIMULATED %d CONFIGURATION(S) — store keys are \
           not covering the id space!\n%!"
          sims;
      Some warm_s
    end
  in
  (* If the latency experiment ran, its sweeps are already memoized in
     [cold_ctx]; re-deriving the headline rows costs nothing. *)
  let serve =
    if List.mem_assoc "latency" timings then
      Some (Mm_experiments.Exp_latency.headlines cold_ctx)
    else None
  in
  let resilience =
    if List.mem_assoc "resilience" timings then
      Some (Mm_experiments.Exp_resilience.headlines cold_ctx)
    else None
  in
  ignore (Mm_store.Store.clear ~dir:store_dir : int);
  (try Unix.rmdir store_dir with Unix.Unix_error _ -> ());
  write_results ~timings ~total_s ~warm ~serve ~resilience

(* --- Part 2: Bechamel microbenchmarks of the allocators themselves --- *)

let make_heap kind =
  let mem = Mm_memsim.Memory.create () in
  let os = Mm_memsim.Os_layer.create mem in
  Mm_runtime.Alloc_factory.create kind ~os ~mem ~pid:0

(* A malloc/free churn loop: allocate into a ring of 256 slots, freeing
   the previous occupant — the steady-state hot path of a transaction. *)
let churn kind =
  let h = make_heap kind in
  let module A = Core.Allocator in
  let slots = Array.make 256 0 in
  let cursor = ref 0 in
  let sizes = [| 16; 24; 32; 48; 64; 96; 128; 200; 320; 512 |] in
  let tick = ref 0 in
  let free_supported = h.A.h_caps.A.per_object_free in
  fun () ->
    let i = !cursor in
    if slots.(i) <> 0 then
      if free_supported then h.A.h_free ~addr:slots.(i)
      else if h.A.h_caps.A.bulk_free && i = 0 then begin
        Array.fill slots 0 256 0;
        h.A.h_free_all ()
      end;
    incr tick;
    slots.(i) <- h.A.h_malloc ~size:sizes.(!tick land 7);
    cursor := (i + 1) land 255

let malloc_free_tests =
  List.map
    (fun kind ->
      Bechamel.Test.make
        ~name:(Mm_runtime.Alloc_factory.kind_name kind)
        (Bechamel.Staged.stage (churn kind)))
    Mm_runtime.Alloc_factory.all_kinds

let free_all_tests =
  List.filter_map
    (fun kind ->
      let h = make_heap kind in
      let module A = Core.Allocator in
      if not h.A.h_caps.A.bulk_free then None
      else
        Some
          (Bechamel.Test.make
             ~name:(Mm_runtime.Alloc_factory.kind_name kind)
             (Bechamel.Staged.stage (fun () ->
                  for _ = 1 to 64 do
                    ignore (h.A.h_malloc ~size:64)
                  done;
                  h.A.h_free_all ()))))
    Mm_runtime.Alloc_factory.all_kinds

let cache_access_test =
  let mem = Mm_memsim.Memory.create () in
  let cs =
    Mm_cachesim.Cache_system.create ~machine:Mm_cachesim.Machine.xeon
      ~active_cores:8 ~large_page_heap:false
  in
  Mm_cachesim.Cache_system.attach cs mem;
  let i = ref 0 in
  Bechamel.Test.make ~name:"cache-system access"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         Mm_memsim.Memory.touch mem ~kind:Mm_memsim.Access.Load
           ~addr:((1 lsl 32) + (!i * 64 land 0xFFFFF))
           ~bytes:8))

let run_micro () =
  print_endline "=== Microbenchmarks (host ns per operation) ===\n";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let run_group title tests =
    let grouped = Test.make_grouped ~name:title tests in
    let raw = Benchmark.all cfg instances grouped in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let table =
      Mm_stats.Table.create ~title
        ~columns:[ ("benchmark", Mm_stats.Table.Left); ("ns/op", Mm_stats.Table.Right) ]
    in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> Printf.sprintf "%.1f" v
          | Some [] | None -> "-"
        in
        rows := (name, ns) :: !rows)
      results;
    List.iter
      (fun (name, ns) -> Mm_stats.Table.add_row table [ name; ns ])
      (List.sort compare !rows);
    Mm_stats.Table.print table
  in
  run_group "malloc/free churn (ring of 256 live objects)" malloc_free_tests;
  run_group "64 mallocs + freeAll (transaction epilogue)" free_all_tests;
  run_group "memory-hierarchy simulator" [ cache_access_test ]

let () =
  let t0 = Unix.gettimeofday () in
  if Sys.getenv_opt "BENCH_SKIP_EXPERIMENTS" = None then run_experiments ();
  if Sys.getenv_opt "BENCH_SKIP_MICRO" = None then run_micro ();
  Printf.printf "\nTotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
