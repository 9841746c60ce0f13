(** Host-side object sizes for the bump allocators (region, obstack), which
    keep no size metadata in simulated memory.  Lookups cost no simulated
    traffic.  Requires the addresses added between two [reset]s to be
    strictly increasing, as bump allocation produces them. *)

type t

val create : unit -> t

val add : t -> addr:int -> size:int -> unit

val find : t -> addr:int -> int
(** The size recorded for [addr] since the last [reset], or [-1]. *)

val reset : t -> unit
(** Forget every object (freeAll). *)
