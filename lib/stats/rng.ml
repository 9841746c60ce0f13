(* The 64-bit SplitMix64 state lives in an 8-byte buffer rather than a
   [mutable int64] field: storing an [int64] into a record field boxes it,
   one allocation per draw, while the bytes primitives below read and write
   it unboxed. *)
type t = Bytes.t

external get_state : t -> int -> int64 = "%caml_bytes_get64u"

external set_state : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: state advances by the golden gamma and the
   result is a finalizing mix of the new state. *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

(* Non-negative 62-bit int from the top bits, avoiding sign trouble. *)
let[@inline] next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t ~bound =
  assert (bound > 0);
  next_nonneg t mod bound

let int_in t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* 53 random bits scaled into [0, 1). *)
let[@inline] float t = float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let bool t ~p =
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  float t < p

(* Redraw a uniform until it is safely away from 0 (log of it is finite). *)
let[@inline] positive_float t =
  let u = ref (float t) in
  while !u <= 1e-300 do
    u := float t
  done;
  !u

let[@inline] gaussian t =
  let u1 = positive_float t in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let[@inline] exponential t ~mean = -.mean *. log (positive_float t)

let exponential_int t ~mean = int_of_float (exponential t ~mean)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t ~bound:(Array.length a))
