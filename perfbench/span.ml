(* Spans recorded by the benchmark around its own calls into each layer.

   Off by default, so an untraced run pays one branch per call site.  When
   on, spans are kept in memory (one mutex-protected list; the benchmark
   records a few hundred, never one per simulated access) and written out
   at the end as Chrome trace-event JSON, which Perfetto and
   chrome://tracing open.  The thread id of a span is the OCaml domain it
   ran on. *)

type t = {
  name : string;
  cat : string;  (** the layer: runtime, sched, store, experiments, ... *)
  ts : float;  (** start, seconds since [origin] *)
  dur : float;  (** seconds *)
  tid : int;  (** domain id *)
  args : (string * string) list;
}

let enabled = ref false

let origin = Unix.gettimeofday ()

let now () = Unix.gettimeofday () -. origin

let lock = Mutex.create ()

let recorded : t list ref = ref []

let domain_id () = (Domain.self () :> int)

let record ?(args = []) ?tid ~cat ~name ~t0 ~t1 () =
  if !enabled then begin
    let tid = match tid with Some d -> d | None -> domain_id () in
    let s = { name; cat; ts = t0; dur = t1 -. t0; tid; args } in
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock
  end

(* [with_ ~cat ~name f] runs [f] inside a span; [args] may inspect the
   result (e.g. the domain or the source of a resolution). *)
let with_ ?(args = fun _ -> []) ~cat ~name f =
  if not !enabled then f ()
  else begin
    let t0 = now () in
    let r = f () in
    record ~args:(args r) ~cat ~name ~t0 ~t1:(now ()) ();
    r
  end

let all () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

let total ~cat ~name =
  List.fold_left
    (fun acc s -> if s.cat = cat && s.name = name then acc +. s.dur else acc)
    0.0 (all ())

(* Self time per layer: a span's duration minus the part of it that its
   child spans (same domain, nested inside it) cover. *)
let self_times spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    spans;
  let self = Hashtbl.create 8 in
  let add cat v =
    Hashtbl.replace self cat
      (v +. Option.value (Hashtbl.find_opt self cat) ~default:0.0)
  in
  Hashtbl.iter
    (fun _ l ->
      (* Parents first: earlier start, then longer. *)
      let l =
        List.sort
          (fun a b ->
            match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
          l
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          let ends p = p.ts +. p.dur in
          while
            match !stack with
            | p :: _ -> s.ts >= ends p
            | [] -> false
          do
            stack := List.tl !stack
          done;
          (match !stack with p :: _ -> add p.cat (-.s.dur) | [] -> ());
          add s.cat s.dur;
          stack := s :: !stack)
        l)
    by_tid;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": %d, \"args\": {%s}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name) (json_string s.cat) (s.ts *. 1e6) (s.dur *. 1e6)
        s.tid
        (String.concat ", "
           (List.map
              (fun (k, v) -> json_string k ^ ": " ^ json_string v)
              s.args)))
    (all ());
  output_string oc "\n]}\n";
  close_out oc
