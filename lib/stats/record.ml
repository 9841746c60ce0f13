type writer = {
  buf : Buffer.t;
  item : char;
  kv : char;
  mutable first : bool;
}

let writer ~item ~kv buf = { buf; item; kv; first = true }

let add_string w k v =
  if w.first then w.first <- false else Buffer.add_char w.buf w.item;
  Buffer.add_string w.buf k;
  Buffer.add_char w.buf w.kv;
  Buffer.add_string w.buf v

let add_int w k v = add_string w k (string_of_int v)

let add_float w k v = add_string w k (Printf.sprintf "%h" v)

let add_bool w k v = add_string w k (string_of_bool v)

let add_opt_int w k = function
  | None -> add_string w k "none"
  | Some v -> add_int w k v

let add_ints w k vs =
  add_string w k (String.concat " " (List.map string_of_int vs))

type t = (string, string) Hashtbl.t

exception Malformed of string

let parse ~item ~kv s =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun it ->
      if it <> "" then
        match String.index_opt it kv with
        | None | Some 0 -> raise (Malformed ("malformed item: " ^ it))
        | Some i ->
          let k = String.sub it 0 i in
          if Hashtbl.mem tbl k then raise (Malformed ("duplicate key " ^ k));
          Hashtbl.add tbl k (String.sub it (i + 1) (String.length it - i - 1)))
    (String.split_on_char item s);
  tbl

let decode ~item ~kv s f =
  match f (parse ~item ~kv s) with
  | v -> Ok v
  | exception Malformed msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let string r k =
  match Hashtbl.find_opt r k with
  | Some v -> v
  | None -> raise (Malformed ("missing key " ^ k))

let typed what of_string r k =
  match of_string (string r k) with
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "bad %s for %s" what k))

let int = typed "int" int_of_string_opt

let float = typed "float" float_of_string_opt

let bool = typed "bool" bool_of_string_opt

let opt_int r k =
  match string r k with "none" -> None | _ -> Some (int r k)

let ints r k =
  List.map
    (fun x ->
      match int_of_string_opt x with
      | Some v -> v
      | None -> raise (Malformed ("bad int list for " ^ k)))
    (String.split_on_char ' ' (string r k))
