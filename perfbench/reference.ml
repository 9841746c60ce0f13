(* Reference digests and exact counters, in perfbench/reference.txt.

   One entry per line: [fingerprint workload seed item value].  [item] is
   [render], [m:<key>] (a measurement payload), [sweep:<id>] (a serve
   sweep payload) or [exact:<metric>] (a deterministic counter); [value]
   is an MD5 hex digest or a number.  Entries are keyed by
   [Version.sim_fingerprint]: a simulator whose fingerprint has no entries
   is checked for internal consistency only (cold = warm, pool =
   sequential), never against another simulator's outputs. *)

type t = (string * string * int * string, string) Hashtbl.t

let path = "perfbench/reference.txt"

let load () : t =
  let t = Hashtbl.create 512 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
    (try
       while true do
         match String.split_on_char ' ' (String.trim (input_line ic)) with
         | [ fp; w; seed; item; v ] when fp <> "" && fp.[0] <> '#' -> (
           match int_of_string_opt seed with
           | Some s -> Hashtbl.replace t (fp, w, s, item) v
           | None -> ())
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic);
  t

let find (t : t) ~fp ~workload ~seed item =
  Hashtbl.find_opt t (fp, workload, seed, item)

let has_fingerprint (t : t) ~fp ~workload ~seed =
  Hashtbl.fold
    (fun (f, w, s, _) _ acc -> acc || (f = fp && w = workload && s = seed))
    t false

(* Replace this (fingerprint, workload, seed)'s entries by [items] and
   rewrite the file sorted. *)
let record (t : t) ~fp ~workload ~seed items =
  let stale =
    Hashtbl.fold
      (fun ((f, w, s, _) as k) _ acc ->
        if f = fp && w = workload && s = seed then k :: acc else acc)
      t []
  in
  List.iter (Hashtbl.remove t) stale;
  List.iter (fun (item, v) -> Hashtbl.replace t (fp, workload, seed, item) v) items;
  let lines =
    Hashtbl.fold
      (fun (f, w, s, i) v acc -> Printf.sprintf "%s %s %d %s %s" f w s i v :: acc)
      t []
  in
  let oc = open_out path in
  output_string oc
    "# fingerprint workload seed item value  (see perfbench/reference.ml)\n";
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort compare lines);
  close_out oc
