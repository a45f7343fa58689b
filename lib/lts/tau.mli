(** Tau-SCC condensation, the weak closure sweep and the branching
    signature cache.

    This module is the engine behind the on-the-fly weak saturation used
    by {!Bisim}: weak and branching signatures are computed directly on
    the packed CSR over the tau-SCC condensation DAG, instead of
    materializing the saturated transition relation. Weak signatures are
    recomputed for every component by one sweep per refinement round,
    into arenas reused across rounds; branching signatures are memoized
    per state, carried across rounds by block renaming and dropped when
    a block they depend on splits. The design and the memory model are
    documented in {e docs/WEAK_EQUIVALENCE.md}. *)

(** {1 Condensation} *)

(** The tau-SCC condensation of an LTS: states grouped into strongly
    connected components of the tau-only transition relation, plus the
    induced component DAG, both in CSR form. Components are numbered in
    reverse topological order (every condensed tau edge points to a
    strictly smaller id). *)
type condensation = {
  num_comps : int;  (** number of tau-SCC components *)
  comp_of : int array;  (** state -> component id *)
  tau_row : int array;
      (** CSR row index into [tau_tgt], length [num_comps + 1] *)
  tau_tgt : int array;
      (** condensed tau edges, deduped, self-loops removed *)
  mem_row : int array;
      (** CSR row index into [members], length [num_comps + 1] *)
  members : int array;  (** member states of each component *)
}

(** [condense lts] computes the tau-SCC condensation of [lts]. Runs
    under a ["bisim.tau.condense"] span. Linear in states + edges. *)
val condense : Lts.t -> condensation

(** {1 Flat sorting}

    In-place sorts over an array prefix, shared by the weak sweep and
    {!Bisim}'s signature passes: neither allocates. *)

(** [sort_prefix a n] sorts [a.(0 .. n - 1)] ascending: insertion sort
    up to 16 elements, {!heapsort_by} above. *)
val sort_prefix : int array -> int -> unit

(** [heapsort_by lt a n] sorts [a.(0 .. n - 1)] under the strict order
    [lt]. Not stable: give [lt] a tie-break when equal keys must keep
    their input order. *)
val heapsort_by : (int -> int -> bool) -> int array -> int -> unit

(** {1 Weak signature sweep} *)

(** Per-component tau-closure block sets [C] and full weak signatures
    [W] of one partition, held in flat offset/data arenas. After
    [sweep t block], {!Weak.blit_signature}[ t s] copies out exactly the
    sorted, deduplicated packed-pair array that
    [strong_signature (saturate lts) block s] would produce — so signature
    refinement over the sweep is round-for-round bit-identical to strong
    refinement of the materialized saturation. *)
module Weak : sig
  type t

  (** [create lts] condenses [lts] (under a ["bisim.tau.condense"] span)
      and allocates the arenas; call {!sweep} before reading signatures. *)
  val create : Lts.t -> t

  (** [sweep t block] recomputes [C] and [W] of every component under
      partition [block]: one ascending pass over the components for [C],
      a second for [W]. Each union is deduplicated as it is pushed,
      through a generation-stamped set owned by [t], so only its
      distinct entries are sorted. Linear in the condensation plus the
      pushed entries, plus the sorts of the distinct ones. *)
  val sweep : t -> int array -> unit

  (** [signature_length t s] is the length of [s]'s weak signature under
      the partition of the last {!sweep}. *)
  val signature_length : t -> int -> int

  (** [blit_signature t s dst] copies [s]'s weak signature to
      [dst.(0 .. signature_length t s - 1)]. Read-only on [t], so pool
      workers may call it concurrently between sweeps. *)
  val blit_signature : t -> int -> int array -> unit

  (** Set [bisim.tau.components] to the component count and
      [bisim.tau.closure_bytes_peak] to the bytes the arenas, the union
      buffer and the dedup set hold — their high-water mark, since they
      only grow. *)
  val record : t -> unit
end

(** {1 Materialized saturation}

    The weak sweep and the branching cache never build the double-arrow
    relation; the functions here do, for the few consumers that need actual weak
    transitions rather than signatures. *)

val tau_closure : Lts.t -> int list array
(** [tau_closure lts] is, per state, the sorted list of states reachable
    through tau transitions (including the state itself). Quadratic
    output in the worst case — callers are the subset construction and
    {!saturate}, both of which run on small or already-minimized
    models. *)

val saturate : ?traced:bool -> Lts.t -> Lts.t
(** Weak-transition closure: in the result, an [Obs a] transition
    [s -> t] exists iff [s =tau*=> . -a-> . =tau*=> t] in the input, and
    a [Tau] transition [s -> t] iff [s =tau*=> t] (including [s = t]).
    Rates are dropped. [~traced:false] skips the ["bisim.saturate"]
    tracing span — for callers (diagnostics) that account the closure
    under a span of their own.

    The weak equivalence entry points never call this: it is the final
    materialization step of {!Bisim.minimize_weak} (at quotient size,
    one state per weak class) and the small-model closure used by the
    diagnostics replay. *)

(** {1 Cross-round renaming}

    Used by the branching cache to carry its entries across rounds. *)

(** [renaming ~old_block ~new_block] maps each old block id to its new
    id when the block did not split this round, or to [-1] when it did.
    The mapping is injective on unsplit blocks: a refinement key
    includes the old block, so a new block never spans two old ones. *)
val renaming : old_block:int array -> new_block:int array -> int array

(** [remap_pairs rename pairs] rewrites the block component of every
    packed [(label, block)] pair through [rename] and re-sorts, or
    returns [None] if any mentioned block was split. The result needs no
    re-deduplication because [rename] is injective on unsplit blocks. *)
val remap_pairs : int array -> int array -> int array option

(** {1 Branching signature cache} *)

(** Per-state cache of branching signatures (the same-block tau closure
    with inert steps excluded). An entry stays valid across a round while
    every block it mentions and the state's {e own} block are unsplit,
    because the same-block closure can shrink when the block splits.
    Workers of a parallel round compute into thread-confined shards over
    the frozen cache, merged back by the coordinator. *)
module Branching : sig
  type t

  type shard

  val create : Lts.t -> t

  (** Running peak of bytes interned across all rounds so far. *)
  val bytes_peak : t -> int

  (** [signature_fn t block s] is the branching signature of [s] under
      partition [block], computed on demand and memoized per state. *)
  val signature_fn : t -> int array -> int -> int array

  val shard : t -> shard

  val shard_signature_fn : shard -> int array -> int -> int array

  val merge_shard : t -> shard -> unit

  val advance : t -> old_block:int array -> new_block:int array -> unit

  val record : t -> unit
end
