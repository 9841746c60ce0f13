module Table = Mm_stats.Table
module Spec = Mm_workload.Spec
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Arrival = Mm_serve.Arrival
module Dispatch = Mm_serve.Dispatch
module Contention = Mm_serve.Contention
module Policy = Mm_serve.Policy
module Sweep = Mm_serve.Sweep

(* Fixed serving parameters; any change rides a Version.serve_semantics
   bump, same rule as exp_latency. *)
let cores = 8

let arrival = Arrival.Poisson

let dispatch = Dispatch.Least_loaded

let requests = 2000

let warmup_frac = 0.1

(* Offered load as fractions of the default allocator's capacity — one
   shared axis per machine, like exp_latency, but pushed past saturation
   (1.3×) so every allocator's collapse point lands inside the grid. *)
let fractions = [ 0.5; 0.7; 0.8; 0.9; 1.0; 1.1; 1.3 ]

(* Client deadline in units of the default allocator's all-busy service
   time: generous enough that moderate queueing (ρ ≈ 0.8–0.9) stays
   under it, tight enough that a saturated backlog blows through it and
   triggers the retry storm. *)
let deadline_service_mult = 25.0

let retries = 3

let machines = [ Machine.xeon; Machine.niagara ]

let spec = Spec.mediawiki_ro

let plan ctx =
  List.concat_map
    (fun machine ->
      List.map
        (fun kind -> Context.php_key ctx ~machine ~cores ~kind ~spec ())
        Context.php_kinds)
    machines

(* The whole experiment shares one policy per machine, derived from the
   default allocator's service time so every allocator faces the same
   client behavior — exactly how one SLO covers a fleet of builds. *)
let policy_for ctx ~machine =
  let m =
    Context.run_php ctx ~machine ~cores ~kind:Factory.Php_default ~spec ()
  in
  let svc = Contention.service_seconds ~machine ~measurement:m in
  let deadline = deadline_service_mult *. svc.(cores - 1) in
  Policy.make ~deadline ~max_retries:retries ~jitter:0.5
    ~admission:Policy.Always ()

let default_capacity ctx ~machine =
  Exp_latency.capacity_of ctx ~machine ~spec ~kind:Factory.Php_default ~cores

let sweep ctx ~machine ~kind =
  let cap = default_capacity ctx ~machine in
  let rates = List.map (fun f -> f *. cap) fractions in
  let policy = policy_for ctx ~machine in
  Exp_latency.sweep_points ~policy ctx ~machine ~spec ~kind ~cores ~arrival
    ~dispatch ~requests ~warmup_frac ~rates

(* Collapse fraction: the collapse rate expressed on the shared axis. *)
let collapse_fraction ~cap points =
  Option.map (fun r -> r /. cap) (Sweep.collapse_rate points)

let fmt_pct01 v = Printf.sprintf "%.0f%%" (100.0 *. v)

let render ctx =
  List.iter
    (fun machine ->
      let cap = default_capacity ctx ~machine in
      let policy = policy_for ctx ~machine in
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Overload resilience: 8 %s cores, %s, %s arrivals (%s; load \
                relative to default's capacity)"
               machine.Machine.name spec.Spec.paper_name
               (Arrival.name arrival) (Policy.describe policy))
          ~columns:
            [
              ("allocator", Table.Left);
              ("load", Table.Right);
              ("goodput RPS", Table.Right);
              ("goodput", Table.Right);
              ("timeout", Table.Right);
              ("amp", Table.Right);
              ("verdict", Table.Left);
            ]
      in
      let summaries =
        List.map
          (fun kind ->
            let points = sweep ctx ~machine ~kind in
            List.iteri
              (fun i (p : Sweep.point) ->
                Table.add_row t
                  [
                    (if i = 0 then Exp_latency.alloc_label kind else "");
                    Printf.sprintf "%.2fx" (List.nth fractions i);
                    Printf.sprintf "%.0f" p.Sweep.goodput_rps;
                    fmt_pct01 (p.Sweep.goodput_rps /. p.Sweep.rate);
                    fmt_pct01 p.Sweep.timeout_rate;
                    Printf.sprintf "%.2f" p.Sweep.amplification;
                    (if Sweep.collapsed p then "COLLAPSED"
                     else if p.Sweep.saturated then "saturated"
                     else "ok");
                  ])
              points;
            Table.add_separator t;
            (kind, collapse_fraction ~cap points))
          Context.php_kinds
      in
      Table.print t;
      let fmt_collapse = function
        | Some f -> Printf.sprintf "%.2fx" f
        | None -> "none in grid"
      in
      List.iter
        (fun (kind, cf) ->
          Printf.printf "  %-8s collapse onset: %s\n"
            (Exp_latency.alloc_label kind) (fmt_collapse cf))
        summaries;
      let find k =
        List.assoc_opt k
          (List.map
             (fun (kind, cf) -> (Exp_latency.alloc_label kind, cf))
             summaries)
        |> Option.join
      in
      (match (find "region", find "default") with
      | Some r, d ->
        Printf.printf
          "  region enters retry-storm collapse at %.2fx default capacity \
           (default: %s):\n\
          \  the paper's throughput gap, restated as a stability margin — \
           the slower\n\
          \  allocator does not just serve less, it falls over earlier.\n\n"
          r
          (fmt_collapse d)
      | None, _ ->
        Printf.printf
          "  region never collapsed inside the grid at this scale.\n\n"))
    machines
