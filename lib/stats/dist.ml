type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Lognormal of { mu : float; sigma : float }
  | Pareto of { scale : float; shape : float }
  | Discrete of (float * float) array
  | Mixture of (float * t) array

(* Uniform over [0, 1): the same value [Rng.float] returns, computed here
   so the float stays unboxed (a float returned by a call into another
   module is boxed unless the compiler inlines it). *)
let[@inline] uniform rng = float_of_int (Rng.bits53 rng) *. (1.0 /. 9007199254740992.0)

(* Sum of the weights, left to right. *)
let[@inline] total_weight weighted =
  let acc = ref 0.0 in
  for i = 0 to Array.length weighted - 1 do
    acc := !acc +. fst (Array.unsafe_get weighted i)
  done;
  !acc

(* Walk the cumulative weights until the uniform draw is covered. *)
let pick_weighted rng weighted =
  let target = uniform rng *. total_weight weighted in
  let last = Array.length weighted - 1 in
  let i = ref 0 in
  let acc = ref 0.0 in
  let found = ref false in
  while (not !found) && !i < last do
    acc := !acc +. fst (Array.unsafe_get weighted !i);
    if target < !acc then found := true else incr i
  done;
  !i

(* Resolve nested mixtures to one leaf distribution, drawing each
   component choice in turn. *)
let rec leaf t rng =
  match t with
  | Mixture components -> leaf (snd components.(pick_weighted rng components)) rng
  | _ -> t

(* One draw from a leaf; [leaf] has already removed every [Mixture]. *)
let[@inline] sample_leaf t rng =
  match t with
  | Constant v -> v
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. uniform rng)
  | Exponential { mean } -> Rng.exponential rng ~mean
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. Rng.gaussian rng))
  | Pareto { scale; shape } ->
    let u = Float.max 1e-12 (uniform rng) in
    scale *. (u ** (-1.0 /. shape))
  | Discrete entries -> snd entries.(pick_weighted rng entries)
  | Mixture _ -> assert false

let sample t rng = sample_leaf (leaf t rng) rng

let sample_size t rng ~min_bytes =
  let v = int_of_float (Float.round (sample_leaf (leaf t rng) rng)) in
  if v < min_bytes then min_bytes else v

let mean_estimate t rng ~samples =
  assert (samples > 0);
  let acc = ref 0.0 in
  for _ = 1 to samples do
    acc := !acc +. sample t rng
  done;
  !acc /. float_of_int samples

let zipf rng ~n ~s =
  assert (n > 0);
  (* Inverse-CDF on the harmonic weights via rejection-free cumulative walk is
     O(n); instead use the standard approximation by inverting the continuous
     Zipf CDF, which is accurate enough for working-set modeling. *)
  if s = 1.0 then
    let u = uniform rng in
    let hn = log (float_of_int n +. 1.0) in
    let r = int_of_float (exp (u *. hn)) - 1 in
    if r < 0 then 0 else if r >= n then n - 1 else r
  else
    let u = uniform rng in
    let nf = float_of_int n in
    let one_minus_s = 1.0 -. s in
    let hn = ((nf +. 1.0) ** one_minus_s -. 1.0) /. one_minus_s in
    let x = ((u *. hn *. one_minus_s) +. 1.0) ** (1.0 /. one_minus_s) in
    let r = int_of_float x - 1 in
    if r < 0 then 0 else if r >= n then n - 1 else r
