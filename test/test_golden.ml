(* Golden measurements: the MD5 of [Engine.measurement_to_string] for a
   small fixed grid, recorded from a known-good tree.  The -j and
   cold/warm checks compare the program with itself; these pins catch a
   change that is wrong in the same way everywhere.  A deliberate change
   to the simulation re-records them (run this binary with [--print]) and
   says so. *)

module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Spec = Mm_workload.Spec

let configs =
  List.concat_map
    (fun machine ->
      List.map
        (fun kind -> (machine, kind))
        [ Factory.Php_default; Factory.Region; Factory.Dd None ])
    [ Machine.xeon; Machine.niagara ]

let digest (machine, kind) =
  let cfg =
    Engine.config ~machine ~active_cores:8 ~kind ~spec:Spec.mediawiki_ro
      ~scale:0.02 ~seed:42 ()
  in
  Digest.to_hex (Digest.string (Engine.measurement_to_string (Engine.run cfg)))

let name (machine, kind) =
  Printf.sprintf "%s/%s" machine.Machine.name (Factory.kind_name kind)

let expected =
  [
    ("xeon/php-default", "db307958497430b60babbddad752cd11");
    ("xeon/region", "0cde7075bb0cbaca5a97b67afa24aa3c");
    ("xeon/ddmalloc", "0ca17b4c2b37cdfd024fa943c193a607");
    ("niagara/php-default", "b49479e39148ca43f64d4794e85baa0e");
    ("niagara/region", "fcdc3e92a8ba73bd4d81f110d425e5cf");
    ("niagara/ddmalloc", "74d0ebd601bc1463f05559ffd8520b7b");
  ]

let test_pinned cfg () =
  match List.assoc_opt (name cfg) expected with
  | None -> Alcotest.failf "no golden digest for %s" (name cfg)
  | Some want -> Alcotest.(check string) (name cfg) want (digest cfg)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter (fun cfg -> Printf.printf "    (%S, %S);\n" (name cfg) (digest cfg)) configs
  else
    Alcotest.run "mm_golden"
      [
        ( "measurement",
          List.map
            (fun cfg -> Alcotest.test_case (name cfg) `Quick (test_pinned cfg))
            configs );
      ]
