(* Fully-associative, exact-LRU TLB over flat arrays.  A linear scan of
   [entries] ints beats a Hashtbl at realistic sizes (64 entries), and the
   miss path allocates nothing.  Victim selection is the least-recent
   stamp, lowest slot first. *)

type t = {
  entries : int;
  shift : int;
  pages : int array;  (* -1 = empty slot *)
  stamp : int array;  (* last-use clock; 0 = never used since flush *)
  mutable clock : int;
  mutable last : int;  (* slot of the last hit or fill *)
  hint : int array;  (* page land hint_mask -> slot that last held such a page *)
  hint_mask : int;
}

let create ~entries ~page_shift =
  assert (entries > 0 && page_shift >= 10);
  (* At least four hint cells per entry, so pages rarely share a cell. *)
  let cells = ref 1 in
  while !cells < 4 * entries do
    cells := 2 * !cells
  done;
  {
    entries;
    shift = page_shift;
    pages = Array.make entries (-1);
    stamp = Array.make entries 0;
    clock = 0;
    last = 0;
    hint = Array.make !cells 0;
    hint_mask = !cells - 1;
  }

(* The last slot missed: try the page's hint cell, then scan for the
   page, else install it over the LRU slot.  Hints are only hints — a
   stale one fails the page compare — and a page occupies at most one
   slot, so every path finds the slot a plain scan would. *)
let access_scan t page clock =
  let cell = page land t.hint_mask in
  let h = Array.unsafe_get t.hint cell in
  let hit = ref (if Array.unsafe_get t.pages h = page then h else -1) in
  let i = ref 0 in
  while !hit < 0 && !i < t.entries do
    if Array.unsafe_get t.pages !i = page then hit := !i;
    incr i
  done;
  if !hit >= 0 then begin
    Array.unsafe_set t.stamp !hit clock;
    t.last <- !hit;
    Array.unsafe_set t.hint cell !hit;
    true
  end
  else begin
    (* Empty slots carry stamp 0 and therefore always win the min-stamp
       scan, so the TLB fills before evicting. *)
    let victim = ref 0 in
    for j = 1 to t.entries - 1 do
      if Array.unsafe_get t.stamp j < Array.unsafe_get t.stamp !victim then
        victim := j
    done;
    Array.unsafe_set t.pages !victim page;
    Array.unsafe_set t.stamp !victim clock;
    t.last <- !victim;
    Array.unsafe_set t.hint cell !victim;
    false
  end

let[@inline] access t ~addr =
  let page = addr lsr t.shift in
  let clock = t.clock + 1 in
  t.clock <- clock;
  (* Last-slot fast path: consecutive lines of one range, and allocator
     metadata walks, stay on one page.  A page occupies at most one slot,
     so this finds the slot the scan would. *)
  let last = t.last in
  if Array.unsafe_get t.pages last = page then begin
    Array.unsafe_set t.stamp last clock;
    true
  end
  else access_scan t page clock

let flush t =
  Array.fill t.pages 0 t.entries (-1);
  Array.fill t.stamp 0 t.entries 0

let page_shift t = t.shift
