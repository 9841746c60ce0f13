(* The "gen" layer: workload generation + allocator code + simulated
   memory, without the cache hierarchy.

   Replays one measurement's configuration the way [Engine.run] schedules
   it — the same processes, slice length, warmup/measure boundary and
   restarts — on a bare [Memory] + [Os_layer] with no [Cache_system]
   attached.  The allocator never reads cache state, so the processes
   perform exactly the operations they perform under the engine.  Each
   access is delivered to a counting observer (the least any consumer of
   the stream costs), which counts the cache-line references the
   hierarchy would see.  [matches] checks the replay against the
   engine's measurement, so a replay that no longer mirrors
   [Engine.run] is detected rather than timed. *)

module Engine = Mm_runtime.Engine
module Process = Mm_runtime.Process
module Memory = Mm_memsim.Memory
module Machine = Mm_cachesim.Machine
module Events = Mm_cachesim.Events
module Spec = Mm_workload.Spec
module A = Core.Allocator

(* [Engine]'s cap on processes simulated per core (not exported). *)
let max_simulated_processes = 8

let processes (cfg : Engine.config) =
  match cfg.Engine.processes with
  | Some p -> p
  | None ->
    min max_simulated_processes
      (Machine.processes_per_core cfg.Engine.machine
         ~active_cores:cfg.Engine.active_cores)

type result = {
  accesses : int;  (** simulated data accesses, warmup included *)
  backed_bytes : int;  (** simulated memory materialized at the end *)
  mallocs_per_txn : float;  (** measured window, as [Engine] counts it *)
  measured_lines : int;  (** cache-line references in the measured window *)
}

let run (cfg : Engine.config) =
  let spec = Spec.scaled cfg.Engine.spec ~scale:cfg.Engine.scale in
  let mem = Memory.create () in
  let os = Mm_memsim.Os_layer.create mem in
  let line_shift = Machine.line_shift cfg.Engine.machine in
  let lines = ref 0 in
  Memory.set_access_observer mem (fun _ _ addr bytes ->
      lines := !lines + ((addr + bytes - 1) lsr line_shift) - (addr lsr line_shift) + 1);
  let nprocs = processes cfg in
  let fine_grained = cfg.Engine.machine.Machine.threads_per_core > 1 in
  let slice = if fine_grained then 6 else spec.Spec.mallocs in
  Memory.set_context mem Mm_memsim.Access.Mgmt;
  let procs =
    Array.init nprocs (fun pid ->
        Process.create ~kind:cfg.Engine.kind ~os ~mem ~spec ~pid
          ~seed:cfg.Engine.seed ~use_bulk_free:cfg.Engine.use_bulk_free)
  in
  Memory.set_context mem Mm_memsim.Access.App;
  let total = ref 0 in
  let current = ref 0 in
  let run_until target =
    while !total < target do
      let p = procs.(!current) in
      let finished = Process.step p ~ops:slice in
      if finished then begin
        incr total;
        match cfg.Engine.restart_period with
        | Some k when Process.txns_done p mod k = 0 -> Process.restart p
        | Some _ | None -> ()
      end;
      if fine_grained || finished then current := (!current + 1) mod nprocs
    done
  in
  run_until cfg.Engine.warmup_txns;
  let mallocs () =
    Array.fold_left
      (fun acc p -> acc + (Process.handle p).A.h_stats.A.mallocs)
      0 procs
  in
  let warm_mallocs = mallocs () in
  let warm_lines = !lines in
  let warm_done = !total in
  run_until (warm_done + cfg.Engine.measure_txns);
  let measured = !total - warm_done in
  {
    accesses = Memory.access_count mem;
    backed_bytes = Memory.backed_bytes mem;
    mallocs_per_txn =
      float_of_int (mallocs () - warm_mallocs) /. float_of_int measured;
    measured_lines = !lines - warm_lines;
  }

(* The replay ran what the engine ran: the same malloc count and the same
   number of data-line references (loads + stores) in the measured
   window. *)
let matches r (m : Engine.measurement) =
  r.mallocs_per_txn = m.Engine.mallocs_per_txn
  && r.measured_lines
     = Events.total m.Engine.events Events.Loads
       + Events.total m.Engine.events Events.Stores
