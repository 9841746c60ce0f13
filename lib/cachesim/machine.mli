(** Descriptions of the paper's two platforms.

    The study deliberately contrasts a fast-single-thread design (Intel Xeon
    E5320 "Clovertown": high clock, large caches, hardware prefetcher,
    out-of-order cores, modest front-side-bus bandwidth) with a
    throughput-oriented design (Sun UltraSPARC T1 "Niagara": low clock,
    small caches, no prefetcher, in-order cores with 4-way fine-grained
    multithreading, generous memory bandwidth).  Geometry and latencies
    below are from the published specifications; the effective bus
    bandwidth is the sustained (not peak) figure. *)

type cache_geom = {
  size : int;
  ways : int;
}

type t = {
  name : string;
  clock_ghz : float;
  cores : int;
  threads_per_core : int;  (** hardware threads (Niagara: 4) *)
  line_size : int;  (** modeled uniformly at 64 B *)
  l1i : cache_geom;
  l1d : cache_geom;
  l2 : cache_geom;  (** one L2's geometry *)
  l2_count : int;  (** how many such L2s the chip set has *)
  dtlb_entries : int;
  page_bits : int;  (** small pages *)
  large_page_bits : int;  (** §3.3 optimization 2 / Niagara's 4 MB pages *)
  l1_latency : float;  (** cycles, folded into base CPI *)
  l2_latency : float;  (** L1-miss/L2-hit penalty, cycles *)
  mem_latency : float;  (** unloaded memory latency, cycles *)
  tlb_miss_penalty : float;
      (** hardware walk (Xeon) vs software trap (Niagara) *)
  bus_bytes_per_cycle : float;  (** sustained system bandwidth / clock *)
  prefetch_streams : int;  (** 0 = no hardware prefetcher *)
  prefetch_degree : int;
  stall_overlap : float;
      (** fraction of memory-stall cycles hidden by out-of-order execution
          and memory-level parallelism when one thread runs alone *)
  cpi_base : float;
  tlb_flush_on_switch : bool;
  default_processes : int;  (** PHP runtimes in the paper's setup *)
}

val xeon : t
(** 2 × quad-core Xeon E5320 (Clovertown) at 1.86 GHz, 8 GB RAM, RHEL 5 —
    the paper's x86 box. *)

val niagara : t
(** 8-core, 32-thread UltraSPARC T1 at 1.2 GHz, 16 GB RAM, Solaris 10. *)

val all : t list

val of_name : string -> t option
(** Inverse of the [name] field over {!all}. *)

val line_shift : t -> int

val l2_sets_per_core : t -> active_cores:int -> int
(** Effective L2 sets available to one core, capacity-sharing the chip's
    L2s among the active cores (Clovertown: one 4 MB L2 per core pair;
    Niagara: one 3 MB L2 shared by all eight cores). *)

val processes_per_core : t -> active_cores:int -> int
