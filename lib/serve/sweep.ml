module Histogram = Mm_stats.Histogram

type point = {
  rate : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  lat_max : float;
  achieved_rps : float;
  goodput_rps : float;
  utilization : float;
  measured : int;
  saturated : bool;
  shed_rate : float;
  timeout_rate : float;
  amplification : float;
  failed : int;
}

(* v2: resilience metrics (goodput, shed/timeout rates, retry
   amplification, failed originals) joined the point.  v1 payloads read
   as misses and are recomputed. *)
let schema_version = 2

let point_of_outcome (o : Sim.outcome) =
  let q p = Histogram.quantile o.Sim.hist p in
  let per_attempt n = if o.Sim.attempts > 0 then float_of_int n /. float_of_int o.Sim.attempts else 0.0 in
  {
    rate = o.Sim.o_config.Sim.rate;
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
    p999 = q 0.999;
    lat_max = Histogram.max_recorded o.Sim.hist;
    achieved_rps = o.Sim.achieved_rps;
    goodput_rps = o.Sim.goodput_rps;
    utilization = o.Sim.utilization;
    measured = o.Sim.measured;
    saturated = o.Sim.saturated;
    shed_rate = per_attempt o.Sim.sheds;
    timeout_rate = per_attempt o.Sim.timeouts;
    amplification = o.Sim.retry_amplification;
    failed = o.Sim.give_ups;
  }

let run ?policy cfg ~service ~rates =
  List.map
    (fun rate -> point_of_outcome (Sim.run ?policy { cfg with Sim.rate } ~service))
    rates

let max_sustainable points =
  List.fold_left
    (fun acc p ->
      if p.saturated then acc
      else
        match acc with
        | Some best when best >= p.rate -> acc
        | Some _ | None -> Some p.rate)
    None points

(* A point has collapsed when the system delivers less than half the
   offered load as goodput: past that knee, extra offered load only buys
   retries and wasted work.  The collapse rate is the lowest such offered
   rate — the onset of metastable overload. *)
let collapsed p = p.goodput_rps < 0.5 *. p.rate

let collapse_rate points =
  List.fold_left
    (fun acc p ->
      if collapsed p then
        match acc with
        | Some best when best <= p.rate -> acc
        | Some _ | None -> Some p.rate
      else acc)
    None points

(* --- codec ----------------------------------------------------------- *)

let header = Printf.sprintf "mmstudy.serve %d" schema_version

(* A point is one line: "point" and an {!Mm_stats.Record} of key=value
   tokens. *)
let point_tag = "point "

let add_point b p =
  let open Mm_stats.Record in
  Buffer.add_string b point_tag;
  let w = writer ~item:' ' ~kv:'=' b in
  add_float w "rate" p.rate;
  add_float w "p50" p.p50;
  add_float w "p90" p.p90;
  add_float w "p99" p.p99;
  add_float w "p999" p.p999;
  add_float w "max" p.lat_max;
  add_float w "rps" p.achieved_rps;
  add_float w "good" p.goodput_rps;
  add_float w "util" p.utilization;
  add_int w "measured" p.measured;
  add_bool w "saturated" p.saturated;
  add_float w "shed" p.shed_rate;
  add_float w "timeout" p.timeout_rate;
  add_float w "amp" p.amplification;
  add_int w "failed" p.failed;
  Buffer.add_char b '\n'

let points_to_string points =
  let b = Buffer.create 256 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  Printf.bprintf b "points %d\n" (List.length points);
  List.iter (add_point b) points;
  Buffer.contents b

let point_of_line line =
  let n = String.length point_tag in
  if not (String.starts_with ~prefix:point_tag line) then
    Error (Printf.sprintf "expected a point line, got %S" line)
  else
    Mm_stats.Record.decode ~item:' ' ~kv:'='
      (String.sub line n (String.length line - n))
      (fun r ->
        let open Mm_stats.Record in
        {
          rate = float r "rate";
          p50 = float r "p50";
          p90 = float r "p90";
          p99 = float r "p99";
          p999 = float r "p999";
          lat_max = float r "max";
          achieved_rps = float r "rps";
          goodput_rps = float r "good";
          utilization = float r "util";
          measured = int r "measured";
          saturated = bool r "saturated";
          shed_rate = float r "shed";
          timeout_rate = float r "timeout";
          amplification = float r "amp";
          failed = int r "failed";
        })

let points_of_string s =
  match String.split_on_char '\n' s with
  | hd :: rest when hd = header -> (
    let rest = List.filter (fun l -> l <> "") rest in
    match rest with
    | count_line :: point_lines -> (
      match String.split_on_char ' ' count_line with
      | [ "points"; n ] -> (
        match int_of_string_opt n with
        | Some n when n = List.length point_lines ->
          let rec decode acc = function
            | [] -> Ok (List.rev acc)
            | line :: lines -> (
              match point_of_line line with
              | Ok p -> decode (p :: acc) lines
              | Error _ as e -> e)
          in
          decode [] point_lines
        | Some _ | None -> Error "point count mismatch")
      | _ -> Error "missing points count")
    | [] -> Error "truncated sweep payload")
  | hd :: _ -> Error (Printf.sprintf "unsupported sweep version: %S" hd)
  | [] -> Error "empty sweep payload"
