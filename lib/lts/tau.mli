(** Tau-SCC condensation and the per-round signature sweep over it.

    This module is the engine behind the on-the-fly weak and branching
    equivalences of {!Bisim}: signatures are computed directly on the
    packed CSR over the tau-SCC condensation DAG, instead of
    materializing the saturated transition relation. One {!Sweep.t}
    recomputes the signature of every component once per refinement
    round, into arenas reused across rounds — two ascending passes for
    weak signatures, one for branching signatures. The design and the
    memory model are documented in {e docs/WEAK_EQUIVALENCE.md}. *)

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

(** [components lts] maps every state to its tau-SCC, numbered in
    reverse topological order: the [comp_of] of {!condense}, without the
    rest of the condensation. *)
val components : Lts.t -> int array

(** [condense lts] computes the tau-SCC condensation of [lts]. Runs
    under a ["bisim.tau.condense"] span. Linear in states + edges. *)
val condense : Lts.t -> condensation

(** {1 Flat sorting}

    In-place sorts over an array prefix, shared by the sweep and
    {!Bisim}'s signature passes: neither allocates. *)

(** [sort_prefix a n] sorts [a.(0 .. n - 1)] ascending: insertion sort
    up to 16 elements, {!heapsort_by} above. *)
val sort_prefix : int array -> int -> unit

(** [heapsort_by lt a n] sorts [a.(0 .. n - 1)] under the strict order
    [lt]. Not stable: give [lt] a tie-break when equal keys must keep
    their input order. *)
val heapsort_by : (int -> int -> bool) -> int array -> int -> unit

(** {1 Signature sweep} *)

(** Per-component signatures of one partition, held in flat offset/data
    arenas together with the union buffer and the dedup set that build
    them. After [weak t block], {!Sweep.blit_signature}[ t s] copies out
    exactly the sorted, deduplicated packed-pair array that
    [strong_signature (saturate lts) block s] would produce — so
    signature refinement over the sweep is round-for-round
    bit-identical to strong refinement of the materialized saturation.
    After [branching t block] it copies out the Blom–Orzan branching
    signature of [s]: every non-inert [(label, block)] pair of the
    states [s] reaches by tau steps inside its own block. *)
module Sweep : sig
  type t

  (** [create lts] condenses [lts] (under a ["bisim.tau.condense"] span)
      and allocates the arenas; call {!weak} or {!branching} before
      reading signatures. *)
  val create : Lts.t -> t

  (** [weak t block] recomputes the weak signature of every component
      under partition [block]: one ascending pass over the components
      for their tau-closure blocks [C], a second for their signatures
      [W]. Each union is deduplicated as it is pushed, through a
      generation-stamped set owned by [t], so only its distinct entries
      are sorted. Linear in the condensation plus the pushed entries,
      plus the sorts of the distinct ones. *)
  val weak : t -> int array -> unit

  (** [branching t block] recomputes the branching signature of every
      component under partition [block], in one ascending pass: a
      component's own non-inert pairs, plus the signatures of the
      condensed tau successors in its block. Exact whenever every
      tau-SCC lies inside one block of [block], which holds for every
      iterate of branching refinement from the trivial partition.
      @raise Invalid_argument when a tau-SCC spans two blocks. *)
  val branching : t -> int array -> unit

  (** [signature_length t s] is the length of [s]'s signature under the
      partition of the last sweep. *)
  val signature_length : t -> int -> int

  (** [blit_signature t s dst] copies [s]'s signature to
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

    The sweep never builds the double-arrow relation; the functions
    here do, for the few consumers that need actual weak transitions
    rather than signatures. *)

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
