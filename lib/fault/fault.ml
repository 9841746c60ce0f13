module Rng = Mm_stats.Rng

type site = Store_read | Store_write | Store_torn

exception Injected of site

let all_sites = [ Store_read; Store_write; Store_torn ]

let site_index = function
  | Store_read -> 0
  | Store_write -> 1
  | Store_torn -> 2

let n_sites = List.length all_sites

let site_name = function
  | Store_read -> "store-read"
  | Store_write -> "store-write"
  | Store_torn -> "store-torn"

let default_rate = function
  | Store_read -> 0.05
  | Store_write -> 0.05
  | Store_torn -> 0.03

type plan = {
  p_seed : int;
  rngs : Rng.t array;
  rates : float array;
  fired : int array;
}

(* One mutex guards the whole module: probes are rare (store I/O) and
   cheap, and the RNG streams are not thread-safe. *)
let mutex = Mutex.create ()

let state : plan option ref = ref None

(* Distinguishes "environment not consulted yet" from "explicitly
   disarmed": [disable] must win over a later lazy env check. *)
let env_checked = ref false

let make_plan ?(rates = []) ~seed () =
  let root = Rng.create ~seed in
  {
    p_seed = seed;
    rngs = Array.init n_sites (fun _ -> Rng.split root);
    rates =
      Array.of_list
        (List.map
           (fun s ->
             match List.assoc_opt s rates with
             | Some r -> Float.max 0.0 (Float.min 1.0 r)
             | None -> default_rate s)
           all_sites);
    fired = Array.make n_sites 0;
  }

let current_locked () =
  if not !env_checked then begin
    env_checked := true;
    match Sys.getenv_opt "MM_FAULT_SEED" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some seed -> state := Some (make_plan ~seed ())
      | None -> ())
    | None -> ()
  end;
  !state

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let configure ?rates ~seed () =
  with_lock (fun () ->
      env_checked := true;
      state := Some (make_plan ?rates ~seed ()))

let disable () =
  with_lock (fun () ->
      env_checked := true;
      state := None)

let enabled () = with_lock (fun () -> current_locked () <> None)

let seed () =
  with_lock (fun () ->
      match current_locked () with Some p -> Some p.p_seed | None -> None)

let fire site =
  with_lock (fun () ->
      match current_locked () with
      | None -> false
      | Some p ->
        let i = site_index site in
        let hit = Rng.float p.rngs.(i) < p.rates.(i) in
        if hit then p.fired.(i) <- p.fired.(i) + 1;
        hit)

let fraction site =
  with_lock (fun () ->
      match current_locked () with
      | None -> 0.5
      | Some p -> Rng.float p.rngs.(site_index site))

let injected site =
  with_lock (fun () ->
      match current_locked () with
      | None -> 0
      | Some p -> p.fired.(site_index site))

let total_injected () =
  List.fold_left (fun acc s -> acc + injected s) 0 all_sites
