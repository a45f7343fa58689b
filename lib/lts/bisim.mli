(** Bisimulation equivalences.

    Strong bisimulation is computed by signature-based partition refinement;
    Markovian (lumping) equivalence refines signatures with cumulative
    rates, giving ordinary lumpability on the underlying CTMC.

    Weak (observational) equivalence is Milner's reduction to strong
    bisimulation over the double-arrow relation — but the double arrows
    are never materialized. Weak signatures are computed directly on the
    packed CSR: each refinement round sweeps the tau-SCC condensation
    DAG once, in topological order, filling every component's
    tau-closure blocks and weak signature into arenas reused across
    rounds ({!Tau.Sweep}). The swept signatures equal, pair for pair, the
    strong signatures of the saturated LTS, so partitions, verdicts,
    rounds and distinguishing formulas are bit-identical to what strong
    refinement of the materialized saturation would produce (the retired
    [--saturate] oracle; {!Tau.saturate} still materializes the closure
    where actual weak transitions are needed). The arenas hold one
    round's signatures — on tau-thin models the size of the CSR — never
    the saturated edge set. Branching signatures come from the same
    sweep, in a single pass: every tau-SCC lies inside one block of every
    branching iterate, so the unit is again the component.
    docs/WEAK_EQUIVALENCE.md documents the contract and the memory
    model.

    {2 The class table}

    Every refinement — strong, Markovian, weak, branching — runs one
    loop: each round keys every state by (current block, signature) and
    numbers the distinct keys densely in first-seen state order. A
    signature pass writes the state's signature into the scratch buffer
    of a flat open-addressing class table: strong pairs collected in
    place, sorted and deduplicated; Markovian (label, block, rate class)
    keys sorted with their rates summed in edge order; the weak pass's
    or branching pass's swept slice copied in. The table hashes
    and compares the buffer in place and copies it into its arenas
    only when it opens a new class. It is allocated once per
    refinement and cleared between rounds, so a round allocates nothing
    per state. A state alone in its old block skips the signature pass:
    no other state can share its key, so it opens a fresh class in
    place.

    {2 Parallel refinement}

    Every refinement-based entry point takes [?jobs] (default
    {!Dpma_util.Pool.default_jobs}): with more than one job, each round's
    signature pass — read-only over the frozen CSR and the pre-round
    partition — is dealt to the domain pool as contiguous state ranges.
    Each worker classifies into a class table of its own, kept across
    rounds, and the coordinator merges the workers' classes in state
    order, assigning global class ids in first-seen order. The merged
    numbering is exactly the sequential first-seen-by-state-index
    numbering, so partitions, quotients, verdicts, and distinguishing
    formulas are bit-identical for any job count. The weak and branching
    passes keep this property: their workers read the round's sweep,
    which is frozen during the round and recomputed between rounds.

    [?par_cutoff] is the state count below which a refinement runs
    sequentially even when [jobs > 1] (the signature pass is then too
    cheap to amortize the pool's per-round spawn cost). It defaults
    adaptively — 1024, or never parallelizing when
    {!Dpma_util.Pool.hardware_parallelism} is 1 — and affects scheduling
    only, never results. Branching refinement defaults to never
    parallelizing: its signature work is the sequential sweep, so a
    parallel round would only add the spawn. *)

val strong_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest strong-bisimulation partition; entry [i] is the block of state
    [i], blocks numbered densely from 0. *)

val weak_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest weak-bisimulation partition, computed with swept
    tau-closure signatures on the packed CSR — the saturated LTS is
    never materialized. On a tau-free LTS it is {!strong_partition},
    numbering included. *)

val markovian_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest ordinary-lumpability partition: signatures accumulate total
    exponential rate (and immediate weight, per priority) per label and
    target block. *)

val branching_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest branching-bisimulation partition (Blom–Orzan signature
    refinement, one sweep over the tau-SCC condensation per round). Branching bisimilarity
    is strictly finer than weak bisimilarity and preserves the branching
    structure of internal stuttering; it is offered as a stricter
    alternative for the noninterference check. *)

val branching_equivalent :
  ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool

val strong_equivalent : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool

val weak_equivalent : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool
(** Weak bisimilarity of the two initial states, via {!weak_partition} of
    the disjoint union. *)

val minimize_strong : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t

val minimize_weak : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t
(** Quotient by the coarsest weak partition, carrying the saturated
    (double-arrow) transitions of the result — one weak-transition edge
    set per class pair. The partition comes from the weak pass (the
    input is never saturated); double arrows are materialized by
    {!Tau.saturate} on the quotient only (one state per weak class), so
    the quadratic step runs at minimized size. *)

val same_class : int array -> int -> int -> bool

val determinize : ?max_states:int -> Lts.t -> Lts.t
(** Observable-deterministic automaton by epsilon-closure subset
    construction: tau-free, one transition per (state, label), recognizing
    exactly the weak traces of the input. Exponential in the worst case;
    raises {!Lts.Too_many_states} beyond [max_states] (default 500_000). *)

val trace_equivalent : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool
(** Weak trace equivalence (equality of observable-trace languages, which
    are prefix-closed here): determinize both sides and compare by strong
    bisimulation — on deterministic automata the two notions coincide.
    Strictly coarser than weak bisimilarity: deadlocks after a common
    trace are invisible. *)

(** {1 On-the-fly product refinement}

    The noninterference check relates the initial states of two LTSs; the
    product entry points below decide exactly that question without ever
    materializing the disjoint union of the unreduced sides. Each side is
    first pruned to the part reachable from its initial state and
    pre-reduced on its own (strong quotient, tau-SCC collapse — for the
    weak check); the reduced sides are stitched unsaturated and refined
    through the weak pass (no ["bisim.saturate"] span fires). The
    watched refinement over the stitched product stops as soon as the two
    initial states split (early-exit INSECURE, splitting signatures
    retained) or as soon as the partition over the pruned product is
    stable with the initial states co-blocked (SECURE). Progress lands in
    the [ni.product.*] and [bisim.tau.*] instruments. *)

type product_trail = {
  left : Lts.t;  (** the original (unpruned, unreduced) left side *)
  right : Lts.t;  (** the original right side *)
  split_round : int;
      (** 1-based watched-refinement round whose signatures told the two
          initial states apart *)
  left_signature : int array;
      (** packed weak signature (see {!Lts}) of the left initial state's
          class at the splitting round, over the reduced product's block
          ids *)
  right_signature : int array;  (** same, for the right initial state *)
}
(** Evidence of an initial-state split, sufficient for
    [Diagnose.of_product_trail] to extract a distinguishing formula
    without re-deciding the verdict. *)

type product_result =
  | Product_secure of { partition : int array; rounds : int }
      (** The stable partition over the pruned, per-side-reduced product
          (left-side classes first), and the number of refinement rounds
          run. *)
  | Product_insecure of product_trail

val weak_product_check :
  ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> product_result
(** [weak_product_check a b] decides weak bisimilarity of the two initial
    states — the same verdict as {!weak_equivalent}, with reachability
    pruning, per-side pre-reduction, and watched early exit. The watched
    refinement parallelizes like every other: the early-exit check runs
    in the coordinator on the deterministically merged round result, so
    the exit round, verdict, and splitting signatures are identical for
    any job count. *)

val branching_product_secure :
  ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool
(** {!branching_equivalent} through the watched product refiner
    (reachability pruning + early exit; no saturation is involved in the
    branching signatures). *)

val trace_product_secure :
  ?max_states:int -> ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool
(** {!trace_equivalent} through the watched product refiner: both sides
    are pruned to their reachable parts before determinization, and the
    strong refinement of the determinized product stops at the first
    initial-state split. *)
