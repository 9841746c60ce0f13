type cache_geom = {
  size : int;
  ways : int;
}

type t = {
  name : string;
  clock_ghz : float;
  cores : int;
  threads_per_core : int;
  line_size : int;
  l1i : cache_geom;
  l1d : cache_geom;
  l2 : cache_geom;
  l2_count : int;
  dtlb_entries : int;
  page_bits : int;
  large_page_bits : int;
  l1_latency : float;
  l2_latency : float;
  mem_latency : float;
  tlb_miss_penalty : float;
  bus_bytes_per_cycle : float;
  prefetch_streams : int;
  prefetch_degree : int;
  stall_overlap : float;
  cpi_base : float;
  tlb_flush_on_switch : bool;
  default_processes : int;
}

let xeon =
  {
    name = "xeon";
    clock_ghz = 1.86;
    cores = 8;
    threads_per_core = 1;
    line_size = 64;
    l1i = { size = 32 * 1024; ways = 8 };
    l1d = { size = 32 * 1024; ways = 8 };
    l2 = { size = 4 * 1024 * 1024; ways = 16 };
    l2_count = 4;  (* one per core pair across the two sockets *)
    dtlb_entries = 64;
    page_bits = 12;
    large_page_bits = 21;  (* 2 MB x86-64 large pages *)
    l1_latency = 3.0;
    l2_latency = 14.0;
    mem_latency = 200.0;  (* ~107 ns at 1.86 GHz *)
    tlb_miss_penalty = 30.0;  (* hardware page walk *)
    (* Two 1066 MT/s front-side buses: 17 GB/s peak, but Clovertown's
       snoop-limited sustained bandwidth (STREAM) is ~5.5 GB/s. *)
    bus_bytes_per_cycle = 6.5e9 /. 1.86e9;
    prefetch_streams = 8;
    prefetch_degree = 3;
    stall_overlap = 0.55;  (* out-of-order window + MLP *)
    cpi_base = 1.0;
    tlb_flush_on_switch = true;
    default_processes = 16;
  }

let niagara =
  {
    name = "niagara";
    clock_ghz = 1.2;
    cores = 8;
    threads_per_core = 4;
    line_size = 64;
    l1i = { size = 16 * 1024; ways = 4 };
    l1d = { size = 8 * 1024; ways = 4 };
    l2 = { size = 3 * 1024 * 1024; ways = 12 };
    l2_count = 1;  (* one banked L2 shared by all cores *)
    dtlb_entries = 64;
    page_bits = 13;  (* 8 KB SPARC base pages *)
    large_page_bits = 22;  (* the 4 MB pages the paper used on Solaris *)
    l1_latency = 1.0;
    l2_latency = 23.0;
    mem_latency = 110.0;  (* ~90 ns at 1.2 GHz *)
    tlb_miss_penalty = 140.0;  (* software TSB miss handler *)
    (* Four DDR2 channels: 25.6 GB/s peak; STREAM-sustained is ~10.5 GB/s. *)
    bus_bytes_per_cycle = 10.5e9 /. 1.2e9;
    prefetch_streams = 0;  (* no hardware prefetcher *)
    prefetch_degree = 1;
    stall_overlap = 0.0;  (* in-order, single-issue: threads hide latency *)
    cpi_base = 1.15;
    tlb_flush_on_switch = false;  (* SPARC contexts *)
    default_processes = 48;
  }

let all = [ xeon; niagara ]

let of_name name = List.find_opt (fun m -> m.name = name) all

let line_shift t =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 t.line_size

let floor_pow2 n =
  let rec go p = if p * 2 > n then p else go (p * 2) in
  go 1

let l2_sets_per_core t ~active_cores =
  assert (active_cores >= 1 && active_cores <= t.cores);
  let total_l2_bytes = t.l2.size * t.l2_count in
  (* A core's share of the chip's L2 capacity, capped at one L2: when fewer
     cores run than there are L2s, a core enjoys a whole L2 to itself. *)
  let share = Stdlib.min t.l2.size (total_l2_bytes / active_cores) in
  let sets = share / (t.line_size * t.l2.ways) in
  floor_pow2 (Stdlib.max sets 16)

let processes_per_core t ~active_cores =
  assert (active_cores >= 1 && active_cores <= t.cores);
  Stdlib.max 1 (t.default_processes / active_cores)
