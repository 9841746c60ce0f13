(* Host-time microbenchmarks of the allocators and the cache hierarchy.

   The same three Bechamel groups as part 2 of bench/main.ml (malloc/free
   churn over a ring of 256 live objects, 64 mallocs + freeAll, one
   cache-system access), with the results returned as numbers instead of
   printed as a table. *)

module A = Core.Allocator
module Factory = Mm_runtime.Alloc_factory

let make_heap kind =
  let mem = Mm_memsim.Memory.create () in
  let os = Mm_memsim.Os_layer.create mem in
  Factory.create kind ~os ~mem ~pid:0

let churn kind =
  let h = make_heap kind in
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

let free_all kind =
  let h = make_heap kind in
  if not h.A.h_caps.A.bulk_free then None
  else
    Some
      (fun () ->
        for _ = 1 to 64 do
          ignore (h.A.h_malloc ~size:64)
        done;
        h.A.h_free_all ())

let cache_access () =
  let mem = Mm_memsim.Memory.create () in
  let cs =
    Mm_cachesim.Cache_system.create ~machine:Mm_cachesim.Machine.xeon
      ~active_cores:8 ~large_page_heap:false
  in
  Mm_cachesim.Cache_system.attach cs mem;
  let i = ref 0 in
  fun () ->
    incr i;
    Mm_memsim.Memory.touch mem ~kind:Mm_memsim.Access.Load
      ~addr:((1 lsl 32) + (!i * 64 land 0xFFFFF))
      ~bytes:8

(* Host ns per call of each staged function, by OLS over Bechamel's
   samples. *)
let measure ~quota tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  List.map
    (fun (name, f) ->
      let test = Test.make ~name (Staged.stage f) in
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let ns =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some (v :: _) -> v | _ -> acc)
          results Float.nan
      in
      (name, ns))
    tests

(* Metric name -> host ns per operation. *)
let run ~quota =
  let kinds = Factory.all_kinds in
  let name kind metric = Printf.sprintf "alloc.%s.%s" (Factory.kind_name kind) metric in
  measure ~quota
    (List.map (fun k -> (name k "churn_ns", churn k)) kinds
    @ List.filter_map
        (fun k -> Option.map (fun f -> (name k "free_all_ns", f)) (free_all k))
        kinds
    @ [ ("cachesim.access_ns", cache_access ()) ])
