(* Entry files are self-describing:

     mmstudy-store 2
     fingerprint <simulator fingerprint>
     key <canonical configuration string>
     kind <payload kind, e.g. "measurement" or "serve">
     md5 <hex digest of the payload>
     bytes <payload length>
     <payload, exactly that many bytes>

   The digest in the filename is the content address; the header repeats
   fingerprint and key so a reader can reject hash collisions, entries
   written by a different simulator version into the same path (cannot
   happen via this module, but cheap to check), and truncated or
   hand-edited files; the payload digest catches in-place corruption the
   length check cannot.  The kind tag is diagnostic only — it keeps
   [stats]/gc output legible as payload types grow — and does not
   participate in the digest: the canonical key already identifies the
   payload.  Validation failure is always a miss, never an error — the
   caller recomputes and overwrites, so the store self-heals.

   I/O faults (real or injected via [Mm_fault.Fault]) are absorbed by a
   bounded retry-with-backoff; a read that stays broken is a miss, a
   write that stays broken raises (callers doing write-behind treat that
   as best-effort).  Torn-write injection publishes a deliberately
   truncated entry — exercising the same read-as-miss self-healing a
   pre-fsync crash would have needed. *)

module Fault = Mm_fault.Fault

let store_schema_version = 2

let default_kind = "measurement"

let entry_suffix = ".meas"

let lock_file_name = ".lock"

(* Bounded retry for transient (and injected) I/O faults: 4 attempts,
   0.5 ms / 1 ms / 2 ms between them.  The happy path never sleeps. *)
let max_attempts = 4

let backoff_seconds attempt = 0.0005 *. (2.0 ** float_of_int attempt)

type health = {
  read_retries : int;
  read_failures : int;
  write_retries : int;
  write_failures : int;
}

type t = {
  dir : string;
  fingerprint : string;
  h_mutex : Mutex.t;
  mutable h : health;
}

let default_dir () =
  match Sys.getenv_opt "MMSTUDY_CACHE_DIR" with
  | Some d when String.trim d <> "" -> d
  | Some _ | None -> "_mmstudy_cache"

let open_ ?dir ~fingerprint () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  {
    dir;
    fingerprint;
    h_mutex = Mutex.create ();
    h = { read_retries = 0; read_failures = 0; write_retries = 0; write_failures = 0 };
  }

let dir t = t.dir

let fingerprint t = t.fingerprint

let health t =
  Mutex.lock t.h_mutex;
  let h = t.h in
  Mutex.unlock t.h_mutex;
  h

let bump t f =
  Mutex.lock t.h_mutex;
  t.h <- f t.h;
  Mutex.unlock t.h_mutex

let digest_hex t ~key =
  Digest.to_hex (Digest.string (t.fingerprint ^ "\x00" ^ key))

let entry_path t ~key = Filename.concat t.dir (digest_hex t ~key ^ entry_suffix)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Mutual exclusion between publishers and the maintenance sweeps (gc /
   clear): an advisory file lock for cross-process exclusion — [mmstudy
   cache gc] must not race a concurrently-running experiment's writer —
   plus a module mutex, because POSIX record locks do not exclude other
   threads of the same process. *)
let maintenance_mutex = Mutex.create ()

let with_dir_lock ~dir f =
  mkdir_p dir;
  Mutex.lock maintenance_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock maintenance_mutex)
    (fun () ->
      let path = Filename.concat dir lock_file_name in
      match Unix.openfile path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 with
      | exception Unix.Unix_error _ ->
        (* Lock file unavailable (e.g. read-only dir): fall back to the
           in-process mutex alone rather than failing the operation. *)
        f ()
      | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (try Unix.lockf fd Unix.F_LOCK 0
             with Unix.Unix_error _ -> ());
            f ()))

exception Invalid

let expect_field ic name =
  let line = input_line ic in
  let prefix = name ^ " " in
  let plen = String.length prefix in
  if String.length line < plen || String.sub line 0 plen <> prefix then
    raise Invalid;
  String.sub line plen (String.length line - plen)

let read_entry ic t ~key =
  if input_line ic <> Printf.sprintf "mmstudy-store %d" store_schema_version
  then raise Invalid;
  if expect_field ic "fingerprint" <> t.fingerprint then raise Invalid;
  if expect_field ic "key" <> key then raise Invalid;
  ignore (expect_field ic "kind" : string);
  let md5 = expect_field ic "md5" in
  let bytes =
    match int_of_string_opt (expect_field ic "bytes") with
    | Some n when n >= 0 -> n
    | Some _ | None -> raise Invalid
  in
  let payload = really_input_string ic bytes in
  (* Trailing garbage means the file is not what we wrote. *)
  if pos_in ic <> in_channel_length ic then raise Invalid;
  if Digest.to_hex (Digest.string payload) <> md5 then raise Invalid;
  payload

let find t ~key =
  let path = entry_path t ~key in
  let read_once () =
    if Fault.fire Fault.Store_read then raise (Fault.Injected Fault.Store_read);
    match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      (* Entry absent: a plain miss, not a fault — no retry.  Any other
         error (EACCES, ENOTDIR, EIO, ...) is a failed read and goes
         through the retry loop below. *)
      None
    | fd ->
      let ic = Unix.in_channel_of_descr fd in
      let result = try Some (read_entry ic t ~key) with Invalid | End_of_file -> None in
      close_in_noerr ic;
      if result <> None then
        (* Refresh mtime so [gc ~max_bytes] evicts in LRU order. *)
        (try Unix.utimes path 0.0 0.0 with _ -> ());
      result
  in
  let rec attempt k =
    match read_once () with
    | r -> r
    | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) ->
      if k + 1 < max_attempts then begin
        bump t (fun h -> { h with read_retries = h.read_retries + 1 });
        Unix.sleepf (backoff_seconds k);
        attempt (k + 1)
      end
      else begin
        (* Persistently unreadable is a miss: the caller recomputes and
           the next successful write heals the entry. *)
        bump t (fun h -> { h with read_failures = h.read_failures + 1 });
        None
      end
  in
  attempt 0

let store t ?(kind = default_kind) ~key ~data () =
  let image =
    Printf.sprintf "mmstudy-store %d\nfingerprint %s\nkey %s\nkind %s\nmd5 %s\nbytes %d\n%s"
      store_schema_version t.fingerprint key kind
      (Digest.to_hex (Digest.string data))
      (String.length data) data
  in
  let write_once () =
    (* Inside the retried write, so a directory that cannot be created
       counts as a failed write like any other. *)
    mkdir_p t.dir;
    if Fault.fire Fault.Store_write then
      raise (Fault.Injected Fault.Store_write);
    (* A torn write publishes a truncated image — the acknowledged-but-
       partial outcome fsync+rename prevents for real crashes.  Readers
       must treat every prefix as a miss; the next write self-heals. *)
    let payload =
      if Fault.fire Fault.Store_torn then
        String.sub image 0
          (int_of_float (Fault.fraction Fault.Store_torn
                         *. float_of_int (String.length image)))
      else image
    in
    let tmp = Filename.temp_file ~temp_dir:t.dir "tmp-" ".part" in
    let oc = open_out_bin tmp in
    (try
       output_string oc payload;
       flush oc;
       (* Durability before visibility: the rename must never publish a
          file whose contents could still be lost or torn by a crash. *)
       Unix.fsync (Unix.descr_of_out_channel oc);
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    with_dir_lock ~dir:t.dir (fun () -> Sys.rename tmp (entry_path t ~key))
  in
  let rec attempt k =
    match write_once () with
    | () -> ()
    | exception ((Fault.Injected _ | Sys_error _ | Unix.Unix_error _) as e) ->
      if k + 1 < max_attempts then begin
        bump t (fun h -> { h with write_retries = h.write_retries + 1 });
        Unix.sleepf (backoff_seconds k);
        attempt (k + 1)
      end
      else begin
        bump t (fun h -> { h with write_failures = h.write_failures + 1 });
        raise e
      end
  in
  attempt 0

(* --- maintenance ----------------------------------------------------- *)

let entry_files ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f entry_suffix)
    |> List.map (Filename.concat dir)

type stats = {
  entries : int;
  bytes : int;
  by_kind : (string * int * int) list;
}

let file_size path = try (Unix.stat path).Unix.st_size with _ -> 0

(* Best-effort kind of one entry file, for maintenance listings: schema-1
   entries predate the tag and were all measurements; anything
   unparseable is "unknown" (it also reads as a miss). *)
let entry_kind path =
  match open_in_bin path with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let kind =
      try
        match input_line ic with
        | "mmstudy-store 1" -> default_kind
        | first when first = Printf.sprintf "mmstudy-store %d" store_schema_version
          ->
          ignore (expect_field ic "fingerprint" : string);
          ignore (expect_field ic "key" : string);
          expect_field ic "kind"
        | _ -> "unknown"
      with _ -> "unknown"
    in
    close_in_noerr ic;
    kind

let stats ~dir =
  let files = entry_files ~dir in
  let tally = Hashtbl.create 4 in
  let bytes =
    List.fold_left
      (fun acc f ->
        let sz = file_size f in
        let kind = entry_kind f in
        let n, b =
          Option.value (Hashtbl.find_opt tally kind) ~default:(0, 0)
        in
        Hashtbl.replace tally kind (n + 1, b + sz);
        acc + sz)
      0 files
  in
  let by_kind =
    Hashtbl.fold (fun kind (n, b) acc -> (kind, n, b) :: acc) tally []
    |> List.sort compare
  in
  { entries = List.length files; bytes; by_kind }

let clear ~dir =
  if not (Sys.file_exists dir) then 0
  else
    with_dir_lock ~dir (fun () ->
        let entries = entry_files ~dir in
        let removed =
          List.fold_left
            (fun acc f ->
              match Sys.remove f with () -> acc + 1 | exception _ -> acc)
            0 entries
        in
        (* Stray temp files from interrupted writes are garbage too. *)
        (match Sys.readdir dir with
        | exception Sys_error _ -> ()
        | files ->
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".part" then
                try Sys.remove (Filename.concat dir f) with _ -> ())
            files);
        removed)

let gc ~dir ~max_bytes =
  if not (Sys.file_exists dir) then 0
  else
    (* The lock covers the whole scan-and-delete: a writer publishing
       mid-sweep cannot race the deleter (and vice versa), so gc never
       unlinks an entry out from under a rename. *)
    with_dir_lock ~dir (fun () ->
        let entries =
          List.filter_map
            (fun path ->
              match Unix.stat path with
              | exception _ -> None
              | st -> Some (path, st.Unix.st_mtime, st.Unix.st_size))
            (entry_files ~dir)
        in
        let total = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries in
        let oldest_first =
          List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) entries
        in
        let removed = ref 0 in
        let remaining = ref total in
        List.iter
          (fun (path, _, sz) ->
            if !remaining > max_bytes then (
              match Sys.remove path with
              | () ->
                incr removed;
                remaining := !remaining - sz
              | exception _ -> ()))
          oldest_first;
        !removed)
