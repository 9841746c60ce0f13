(* Between resets a bump allocator hands out strictly increasing
   addresses, so records kept in allocation order are sorted by address
   and a lookup is a binary search.  The arrays grow by doubling and are
   kept across [reset], so recording an object allocates nothing once the
   largest transaction has been seen (a hash table would allocate a bucket
   per object). *)

type t = {
  mutable addrs : int array;
  mutable sizes : int array;
  mutable n : int;
}

let create () = { addrs = Array.make 256 0; sizes = Array.make 256 0; n = 0 }

let add t ~addr ~size =
  assert (t.n = 0 || addr > t.addrs.(t.n - 1));
  if t.n = Array.length t.addrs then begin
    let grow a = Array.append a (Array.make t.n 0) in
    t.addrs <- grow t.addrs;
    t.sizes <- grow t.sizes
  end;
  t.addrs.(t.n) <- addr;
  t.sizes.(t.n) <- size;
  t.n <- t.n + 1

let find t ~addr =
  let lo = ref 0 and hi = ref (t.n - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let a = t.addrs.(mid) in
    if a = addr then found := t.sizes.(mid)
    else if a < addr then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let reset t = t.n <- 0
