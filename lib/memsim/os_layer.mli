(** A minimal operating-system memory layer.

    Allocators obtain large chunks of address space here, as real allocators
    do with [mmap]/[sbrk].  The layer hands out disjoint, aligned ranges of
    the simulated address space, records which ranges are mapped with large
    pages (the TLB model consults this), tracks per-owner claimed bytes
    (Figure 9's "memory allocated from the underlying allocator"), and
    charges the instruction cost of the system call to the [Kernel]
    context — the paper's Oprofile breakdowns exclude kernel memory
    management from the "memory operations" bucket, and so do we. *)

type t

val create : Memory.t -> t

type account
(** The claimed-bytes account of one owner name.  Every heap opened under
    the same name shares it: a restarted Ruby worker's fresh heap keeps
    counting the address space its predecessor left mapped. *)

val account : t -> owner:string -> account
(** The account of [owner], created empty on first use.  Heaps look it up
    once, at creation, and keep it. *)

val claimed : account -> int
(** Current bytes mapped through the account (mmap minus munmap). *)

val mmap :
  t -> account:account -> bytes:int -> align:int -> large_pages:bool -> int
(** Claim [bytes] of address space aligned to [align] (a power of two).
    Returns the base address.  The space reads as zero until written. *)

val munmap : t -> account:account -> addr:int -> bytes:int -> unit
(** Release a previously mapped range (bookkeeping only; the range must not
    be touched again). *)

val page_size_of : t -> addr:int -> int
(** Page size governing [addr]: 2 MB for ranges mapped with large pages,
    4 KB otherwise (including unmapped scratch such as simulated stacks). *)

val claimed_bytes : t -> owner:string -> int
(** [claimed] of [owner]'s account; 0 for a name never used. *)

val total_claimed : t -> int

val syscall_instructions : int
(** Instruction cost charged to [Kernel] per mmap/munmap. *)
