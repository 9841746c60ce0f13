(* Golden payloads: the MD5 of [Engine.measurement_to_string] for a small
   fixed grid and of [Sweep.points_to_string] for two short sweeps,
   recorded from a known-good tree.  The -j and cold/warm checks compare
   the program with itself; these pins catch a change that is wrong in the
   same way everywhere, in the simulation or in either store codec.  A
   deliberate change to the simulation re-records them (run this binary
   with [--print]) and says so. *)

module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Spec = Mm_workload.Spec
module Sweep = Mm_serve.Sweep
module Policy = Mm_serve.Policy
module Contention = Mm_serve.Contention

let configs =
  List.concat_map
    (fun machine ->
      List.map
        (fun kind -> (machine, kind))
        [ Factory.Php_default; Factory.Region; Factory.Dd None ])
    [ Machine.xeon; Machine.niagara ]

let measure (machine, kind) =
  Engine.run
    (Engine.config ~machine ~active_cores:8 ~kind ~spec:Spec.mediawiki_ro
       ~scale:0.02 ~seed:42 ())

let md5 s = Digest.to_hex (Digest.string s)

let digest cfg = md5 (Engine.measurement_to_string (measure cfg))

let name (machine, kind) =
  Printf.sprintf "%s/%s" machine.Machine.name (Factory.kind_name kind)

(* Two short Xeon sweeps over fractions of the configuration's own
   capacity: default under no policy, region under a deadline with
   retries, so the pins cover the resilience fields too. *)
let sweeps =
  [
    ("xeon/php-default/none", Factory.Php_default, Policy.none);
    ( "xeon/region/retry",
      Factory.Region,
      Policy.make ~deadline:0.05 ~max_retries:2 () );
  ]

let sweep_digest kind policy =
  let machine = Machine.xeon in
  let service =
    Contention.service_seconds ~machine ~measurement:(measure (machine, kind))
  in
  let cap = Contention.capacity ~cores:8 service in
  let cfg =
    {
      Mm_serve.Sim.cores = 8;
      arrival = Mm_serve.Arrival.Poisson;
      dispatch = Mm_serve.Dispatch.Least_loaded;
      rate = 1.0;
      requests = 1000;
      warmup_frac = 0.1;
      seed = 42;
    }
  in
  md5
    (Sweep.points_to_string
       (Sweep.run ~policy cfg ~service
          ~rates:(List.map (fun f -> f *. cap) [ 0.5; 0.9; 1.2 ])))

let expected =
  [
    ("xeon/php-default", "db307958497430b60babbddad752cd11");
    ("xeon/region", "0cde7075bb0cbaca5a97b67afa24aa3c");
    ("xeon/ddmalloc", "0ca17b4c2b37cdfd024fa943c193a607");
    ("niagara/php-default", "b49479e39148ca43f64d4794e85baa0e");
    ("niagara/region", "fcdc3e92a8ba73bd4d81f110d425e5cf");
    ("niagara/ddmalloc", "74d0ebd601bc1463f05559ffd8520b7b");
  ]

let expected_sweeps =
  [
    ("xeon/php-default/none", "61a2ffc1199037becdbcc0c87492b793");
    ("xeon/region/retry", "66ddcec914046b5dfdd0b9f0d281ca27");
  ]

let check_pin table label actual () =
  match List.assoc_opt label table with
  | None -> Alcotest.failf "no golden digest for %s" label
  | Some want -> Alcotest.(check string) label want (actual ())

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    List.iter (fun cfg -> Printf.printf "    (%S, %S);\n" (name cfg) (digest cfg)) configs;
    List.iter
      (fun (label, kind, policy) ->
        Printf.printf "    (%S, %S);\n" label (sweep_digest kind policy))
      sweeps
  end
  else
    Alcotest.run "mm_golden"
      [
        ( "measurement",
          List.map
            (fun cfg ->
              Alcotest.test_case (name cfg) `Quick
                (check_pin expected (name cfg) (fun () -> digest cfg)))
            configs );
        ( "sweep",
          List.map
            (fun (label, kind, policy) ->
              Alcotest.test_case label `Quick
                (check_pin expected_sweeps label (fun () ->
                     sweep_digest kind policy)))
            sweeps );
      ]
