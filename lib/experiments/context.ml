module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Perf = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec
module Pool = Mm_sched.Pool
module Store = Mm_store.Store
module Sweep = Mm_serve.Sweep
module Fault = Mm_fault.Fault

type id = {
  k_machine : string;
  k_cores : int;
  k_kind : string;
  k_spec : string;
  k_restart : int option;
  k_large_pages : bool;
  k_ruby : bool;
  k_measure : int;
  k_scale : float;
  k_seed : int;
      (* Part of the identity even though it is ambient in the [t]: the
         persistent store outlives the process, so keys from runs with
         different [--seed] values must never collide. *)
}

type key = {
  key_id : id;
  compute : unit -> Engine.measurement;
}

(* One value being produced right now.  Late requesters for the same key
   block on the cell instead of recomputing. *)
type 'v cell = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  mutable c_state : [ `Pending | `Done of 'v | `Failed of exn ];
}

(* One memo layer: the in-process table over a typed store codec.  The
   context holds two — measurements by [id], serve sweeps by their
   canonical key string — and resolves both through [resolve]. *)
type ('k, 'v) memo = {
  kind : string;  (* store payload-kind tag *)
  key_of : 'k -> string;  (* the canonical string the store digests *)
  encode : 'v -> string;
  decode : string -> ('v, string) result;
  table : ('k, 'v) Hashtbl.t;
  inflight : ('k, 'v cell) Hashtbl.t;
  mutable computed : int;
  mutable disk_hits : int;
}

type t = {
  scale : float;
  seed : int;
  store : Store.t option;  (* read-through / write-behind disk layer *)
  refresh : bool;  (* skip store reads (still write) — force recompute *)
  lock : Mutex.t;  (* guards both memos' tables, cells and counters *)
  measurements : (id, Engine.measurement) memo;
  sweeps : (string, Sweep.point list) memo;
}

let memo ~kind ~key_of ~encode ~decode =
  {
    kind;
    key_of;
    encode;
    decode;
    table = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    computed = 0;
    disk_hits = 0;
  }

(* The canonical string the persistent store digests.  Every [id] field
   appears, fully expanded; the scale is printed with %h so two scales
   that differ in any bit get distinct keys. *)
let store_key_of_id (i : id) =
  Printf.sprintf
    "machine=%s;cores=%d;kind=%s;spec=%s;restart=%s;large_pages=%b;ruby=%b;measure=%d;scale=%h;seed=%d"
    i.k_machine i.k_cores i.k_kind i.k_spec
    (match i.k_restart with None -> "none" | Some p -> string_of_int p)
    i.k_large_pages i.k_ruby i.k_measure i.k_scale i.k_seed

let create ?(scale = 0.25) ?(seed = 42) ?store ?(refresh = false) () =
  assert (scale > 0.0 && scale <= 1.0);
  {
    scale;
    seed;
    store;
    refresh;
    lock = Mutex.create ();
    measurements =
      memo ~kind:Store.default_kind ~key_of:store_key_of_id
        ~encode:Engine.measurement_to_string
        ~decode:Engine.measurement_of_string;
    sweeps =
      memo ~kind:"serve" ~key_of:Fun.id ~encode:Sweep.points_to_string
        ~decode:Sweep.points_of_string;
  }

let scale t = t.scale

let seed t = t.seed

let store t = t.store

let locked t f =
  Mutex.lock t.lock;
  let v = f () in
  Mutex.unlock t.lock;
  v

let simulated t = locked t (fun () -> t.measurements.computed)

let disk_hits t = locked t (fun () -> t.measurements.disk_hits)

let blob_computed t = locked t (fun () -> t.sweeps.computed)

let blob_disk_hits t = locked t (fun () -> t.sweeps.disk_hits)

let key_name k =
  let i = k.key_id in
  Printf.sprintf "%s/%dc/%s/%s%s%s%s~s%d" i.k_machine i.k_cores i.k_kind
    i.k_spec
    (if i.k_large_pages then "+lp" else "")
    (if i.k_ruby then
       Printf.sprintf "+ruby:%s/%d"
         (match i.k_restart with None -> "norestart" | Some p -> string_of_int p)
         i.k_measure
     else "")
    (Printf.sprintf "@%g" i.k_scale)
    i.k_seed

let store_key k = store_key_of_id k.key_id

(* DDmalloc as the paper ran it: large pages and the §3.3 metadata
   staggering on Niagara; stock configuration on Xeon (the paper disabled
   Xeon large pages for fairness against the default allocator). *)
let dd_kind_for (machine : Machine.t) =
  if machine.Machine.name = "niagara" then
    Factory.Dd
      (Some
         (Core.Ddmalloc.config ~pid_metadata_offset:true ~large_pages:true ()))
  else Factory.Dd None

let php_kinds = [ Factory.Php_default; Factory.Region; Factory.Dd None ]

let ruby_kinds =
  [ Factory.Glibc; Factory.Hoard; Factory.Tcmalloc; Factory.Dd None ]

let heap_large_pages (machine : Machine.t) =
  machine.Machine.name = "niagara"

(* Cache keys must distinguish allocator *configurations*, not just
   families — the ablations sweep DDmalloc's parameters. *)
let kind_key = function
  | Factory.Dd (Some c) ->
    Printf.sprintf "ddmalloc/%d/%d/%s.%d/%b/%b/%s"
      c.Core.Ddmalloc.segment_size c.Core.Ddmalloc.arena_size
      (Core.Size_class.name c.Core.Ddmalloc.scheme)
      (Core.Size_class.class_count c.Core.Ddmalloc.scheme)
      c.Core.Ddmalloc.pid_metadata_offset c.Core.Ddmalloc.large_pages
      (Core.Ddmalloc.reuse_name c.Core.Ddmalloc.reuse)
  | other -> Factory.kind_name other

(* Graceful degradation: once the store has abandoned this many reads or
   writes (each abandonment is a full retry-with-backoff cycle — see
   Mm_store), it is treated as persistently unavailable and the context
   runs in-memory for the rest of the process.  Results are identical
   either way — the store only ever saves recomputation — so degrading
   changes counters, never output bytes. *)
let degrade_threshold = 8

let store_errors t =
  match t.store with
  | None -> 0
  | Some s ->
    let h = Store.health s in
    h.Store.read_failures + h.Store.write_failures

let store_degraded t = store_errors t >= degrade_threshold

(* Disk layer: a validated read of one key's value, or None.  Any store
   or decode failure is a miss — the caller recomputes and the
   write-behind overwrites the bad entry. *)
let read_store t memo k =
  match t.store with
  | Some s when not t.refresh && not (store_degraded t) -> (
    match Store.find s ~key:(memo.key_of k) with
    | None -> None
    | Some payload -> Result.to_option (memo.decode payload))
  | Some _ | None -> None

(* Write-behind is best-effort: a full disk or read-only store directory
   (or a persistently-injected write fault) must not fail the run that
   just produced a perfectly good result. *)
let write_store t memo k v =
  match t.store with
  | Some s when not (store_degraded t) -> (
    try
      Store.store s ~kind:memo.kind ~key:(memo.key_of k)
        ~data:(memo.encode v) ()
    with Sys_error _ | Unix.Unix_error _ | Fault.Injected _ -> ())
  | Some _ | None -> ()

let outcome_value = function
  | `Done v -> v
  | `Failed e -> raise e
  | `Pending -> assert false

(* Resolve one key of [memo], computing it at most once per process.
   Lookup order is memory hit → disk hit → compute (+ write-behind).
   Concurrent requests for the same key rendezvous on an in-flight cell,
   which covers the disk read too, so racing requesters cost one file
   read, not several.  Distinct keys compute concurrently without holding
   [t.lock] (safe because each Engine.run builds its own Memory,
   Cache_system and RNGs — see lib/runtime/engine.mli). *)
let resolve t memo k compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt memo.table k with
  | Some v ->
    Mutex.unlock t.lock;
    v
  | None -> (
    match Hashtbl.find_opt memo.inflight k with
    | Some cell ->
      Mutex.unlock t.lock;
      Mutex.lock cell.c_mutex;
      while cell.c_state = `Pending do
        Condition.wait cell.c_cond cell.c_mutex
      done;
      let state = cell.c_state in
      Mutex.unlock cell.c_mutex;
      outcome_value state
    | None ->
      let cell =
        {
          c_mutex = Mutex.create ();
          c_cond = Condition.create ();
          c_state = `Pending;
        }
      in
      Hashtbl.add memo.inflight k cell;
      Mutex.unlock t.lock;
      let outcome, from_disk =
        match read_store t memo k with
        | Some v -> (`Done v, true)
        | None -> (
          match compute () with
          | v ->
            write_store t memo k v;
            (`Done v, false)
          | exception e -> (`Failed e, false))
      in
      Mutex.lock t.lock;
      Hashtbl.remove memo.inflight k;
      (match outcome with
      | `Done v ->
        Hashtbl.add memo.table k v;
        if from_disk then memo.disk_hits <- memo.disk_hits + 1
        else memo.computed <- memo.computed + 1
      | `Failed _ -> ());
      Mutex.unlock t.lock;
      Mutex.lock cell.c_mutex;
      cell.c_state <- outcome;
      Condition.broadcast cell.c_cond;
      Mutex.unlock cell.c_mutex;
      outcome_value outcome)

let force t key = resolve t t.measurements key.key_id key.compute

let force_sweep t ~key ~compute = resolve t t.sweeps key compute

let php_key t ~machine ~cores ~kind ~spec ?large_pages_override ?scale_override
    () =
  let kind =
    match kind with
    | Factory.Dd None -> dd_kind_for machine
    | other -> other
  in
  let large_pages =
    Option.value large_pages_override ~default:(heap_large_pages machine)
  in
  let scale = Option.value scale_override ~default:t.scale in
  let id =
    {
      k_machine = machine.Machine.name;
      k_cores = cores;
      k_kind = kind_key kind ^ (if large_pages then "+lp" else "");
      k_spec = spec.Spec.name;
      k_restart = None;
      k_large_pages = large_pages;
      k_ruby = false;
      k_measure = 0;
      k_scale = scale;
      k_seed = t.seed;
    }
  in
  let compute () =
    let cfg =
      Engine.config ~machine ~active_cores:cores ~kind ~spec ~scale
        ~large_page_heap:large_pages ~seed:t.seed ()
    in
    Engine.run cfg
  in
  { key_id = id; compute }

let ruby_key t ~kind ~restart_period ~measure_txns =
  let machine = Machine.xeon in
  let spec = Spec.rails in
  let id =
    {
      k_machine = machine.Machine.name;
      k_cores = 8;
      k_kind = Factory.kind_name kind;
      k_spec = spec.Spec.name;
      k_restart = restart_period;
      k_large_pages = false;
      k_ruby = true;
      k_measure = measure_txns;
      k_scale = t.scale;
      k_seed = t.seed;
    }
  in
  let compute () =
    let cfg =
      Engine.config ~machine ~active_cores:8 ~kind ~spec ~scale:t.scale
        ~seed:t.seed ~restart_period ~measure_txns ~processes:4
        ~warmup_txns:(Stdlib.max 8 (measure_txns / 8))
        ~use_bulk_free:false ()
    in
    Engine.run cfg
  in
  { key_id = id; compute }

let run_php t ~machine ~cores ~kind ~spec ?large_pages_override () =
  force t (php_key t ~machine ~cores ~kind ~spec ?large_pages_override ())

let run_ruby t ~kind ~restart_period ~measure_txns =
  force t (ruby_key t ~kind ~restart_period ~measure_txns)

let dedup_keys keys =
  let seen = Hashtbl.create (List.length keys) in
  List.filter
    (fun k ->
      if Hashtbl.mem seen k.key_id then false
      else begin
        Hashtbl.add seen k.key_id ();
        true
      end)
    keys

let prefetch t ~jobs keys =
  let keys = dedup_keys keys in
  (* Skip configurations already memoized so repeated prefetches are
     cheap; [force] re-checks under the lock, this is only an early cut.
     One lock acquisition over the whole filter — taking and releasing
     the lock per key serialized against concurrent forces for nothing. *)
  let fresh =
    locked t (fun () ->
        List.filter
          (fun k -> not (Hashtbl.mem t.measurements.table k.key_id))
          keys)
  in
  ignore
    (Pool.run ~jobs (List.map (fun k () -> ignore (force t k)) fresh) : unit list)

let mgmt_fraction (m : Engine.measurement) =
  let p = m.Engine.perf in
  p.Perf.breakdown.Perf.mgmt_cycles /. p.Perf.cycles_per_txn

let delta_pct v baseline = (v -. baseline) /. baseline *. 100.0
