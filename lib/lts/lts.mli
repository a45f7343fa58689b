(** Labelled transition systems, stored in compressed sparse row form.

    An LTS is the common semantic object of the methodology: the functional
    models are plain LTSs, the Markovian models are LTSs whose transitions
    carry {!Dpma_pa.Rate.t} annotations, and the general models reuse the
    same structure with distributions attached per action name by the
    simulator.

    Labels are interned integers ({!Dpma_pa.Label.t}, [tau = 0]), and the
    transition relation lives in flat arrays: edges of state [s] occupy the
    index range [row.(s) .. row.(s+1) - 1] of [lab] (label ids), [tgt]
    (target states), and the packed rate arrays. Hot loops (partition
    refinement, simulation stepping, CTMC extraction) index these arrays
    directly; {!transitions_of} unpacks a state's edges into the
    list-of-records view for cold consumers. *)

type label = Dpma_pa.Label.t
(** Interned label id; [tau] is [0]. *)

val tau : label

val obs : string -> label
(** Intern an observable action name as a label. *)

val label_name : label -> string
(** Printable name ("tau" for {!tau}). *)

val is_tau : label -> bool

val label_equal : label -> label -> bool

val label_compare : label -> label -> int
(** Display order: [tau] first, then observable labels alphabetically by
    name — id order would depend on interning order. *)

val pp_label : Format.formatter -> label -> unit

type transition = { label : label; rate : Dpma_pa.Rate.t option; target : int }

type t = private {
  init : int;
  num_states : int;
  state_name : int -> string;
      (** printable description of a state (used in diagnostics) *)
  row : int array;  (** edge index range of state [s]: [row.(s)] inclusive
                        to [row.(s+1)] exclusive; length [num_states + 1] *)
  lab : int array;  (** edge label ids *)
  tgt : int array;  (** edge target states *)
  rate_kind : int array;
      (** 0 = unrated, 1 = exponential, 2 = immediate, 3 = passive *)
  rate_val : float array;
      (** exponential rate, immediate weight, or passive weight *)
  rate_prio : int array;  (** immediate priority (0 otherwise) *)
}

exception Too_many_states of int

val make : init:int -> state_name:(int -> string) -> transition list array -> t
(** Pack per-state transition lists (index = state) into CSR form,
    preserving list order. *)

val rate_of : t -> int -> Dpma_pa.Rate.t option
(** Rate annotation of the edge at the given flat index. *)

val transitions_of : t -> int -> transition list
(** The outgoing transitions of a state, in packing order. *)

val out_degree : t -> int -> int

type build_stats = {
  jobs : int;  (** worker count the build was asked to use *)
  rounds : int;  (** BFS depth: level-synchronous frontier expansions *)
  peak_frontier : int;  (** largest frontier expanded in one round *)
  merge_seconds : float;
      (** time spent merging worker slices in frontier order *)
  segments : int;  (** fixed-size storage segments allocated *)
  segment_bytes_peak : int;
      (** peak bytes held resident in segment storage before CSR
          compaction (spilled segments leave this figure) *)
  spilled_segments : int;
      (** full edge/row segments spilled to the temp file (0 without a
          spill directory or under budget) *)
  spilled_bytes : int;  (** bytes written to the spill temp file *)
  spill_write_seconds : float;
      (** wall-clock time spent writing spilled segments *)
  build_seconds : float;  (** wall-clock time of the whole build *)
}

type bfs = {
  roots : int array;  (** the state id of each root term, in order *)
  csr : t;  (** the packed system; its [init] is [roots.(0)] *)
  term : int -> Dpma_pa.Term.t;  (** the state term of a state id *)
  guard : int array;
      (** the guard-id column, one per edge ([[||]] unless [guarded]) *)
  stats : build_stats;
}

val bfs :
  phase:string ->
  ?partial:(string * float) list ->
  t0:float ->
  max_states:int ->
  ?jobs:int ->
  ?par_threshold:int ->
  ?spill_dir:string ->
  ?max_resident_bytes:int ->
  ?seg_bits:int ->
  guarded:bool ->
  roots:Dpma_pa.Term.t array ->
  shard:(unit -> 'sh) ->
  derive_in:('sh -> Dpma_pa.Term.t -> 'out) ->
  finish:('sh -> unit) ->
  emit:
    ('out -> (label -> Dpma_pa.Term.t -> Dpma_pa.Rate.t -> int -> unit) ->
     unit) ->
  unit ->
  bfs
(** The level-synchronous breadth-first exploration behind {!build} and
    [Flts.build_family], parameterized by the derivation and the edge
    payload. Each round derives the frontier through [shard]/[derive_in]
    (one shard per worker, [finish]ed in worker order after the round),
    then [emit]s every state's derivation, in frontier order, to the
    edge sink [push label target rate guard]; [guard] is stored only
    when [guarded] (a fifth int column). The loop owns the state table
    ([max_states]), the segmented term store, the {!Dpma_util.Guard}
    poll (under [phase], reporting [partial] before its own progress
    fields), the [jobs]/[par_threshold] defaults and the {!Segstore}
    policy — see {!build} for all of these — plus compaction and the
    [lts.par.*]/[lts.csr_pack.seconds] instruments.
    [stats.build_seconds] counts from [t0]. *)

val build :
  ?max_states:int ->
  ?jobs:int ->
  ?par_threshold:int ->
  ?spill_dir:string ->
  ?max_resident_bytes:int ->
  ?seg_bits:int ->
  Dpma_pa.Term.spec ->
  t * build_stats
(** Enumerate the reachable states of a process-algebra specification by
    level-synchronous breadth-first exploration over a memoized SOS
    engine: each round, the frontier (a contiguous id range, since states
    are numbered in merge order) is dealt in chunks to [jobs] pool
    domains, each deriving successors through a private
    {!Dpma_pa.Semantics.shard}; the slices are then merged in frontier
    order, so state numbering, edge order, and every CSR array are
    bit-identical to the sequential build for any job count. [jobs]
    defaults to {!Dpma_util.Pool.default_jobs}; edges, row offsets, and
    state terms accumulate in fixed-size chunked segments compacted into
    the flat CSR arrays once at the end. Raises {!Too_many_states} beyond
    [max_states] (default 500_000). Transition rates are preserved.

    Rounds whose frontier is smaller than [par_threshold] derive in the
    coordinating domain — below it the per-round domain traffic outweighs
    the work being dealt. Defaults to [256 * jobs], or to never
    parallelizing when {!Dpma_util.Pool.hardware_parallelism} is 1;
    scheduling only, results are identical for any value.

    [spill_dir]/[max_resident_bytes]/[seg_bits] configure the
    {!Segstore} policy: with a spill directory, full edge/row segments
    exceeding the resident budget are written oldest-first to a
    memory-mapped temp file and read back once during CSR compaction —
    numbering, labels, and rates are bit-identical whether or not spill
    triggered, and the temp file is removed on success and abort alike.
    Omitted knobs fall back to {!Segstore.set_defaults}.

    The build polls the ambient {!Dpma_util.Guard} between BFS rounds
    (phase ["lts.build"]); a tripped budget aborts with
    {!Dpma_util.Guard.Resource_exceeded} carrying the states,
    transitions, and rounds explored so far. *)

val of_spec :
  ?max_states:int -> ?jobs:int -> ?par_threshold:int -> ?spill_dir:string ->
  ?max_resident_bytes:int -> ?seg_bits:int -> Dpma_pa.Term.spec -> t
(** [build] without the statistics. *)

val num_transitions : t -> int

val labels : t -> label list
(** All distinct transition labels, sorted by {!label_compare} ([tau]
    first if present). *)

val enabled : t -> int -> label list
(** Distinct labels enabled in a state. *)

val enables_action : t -> int -> string -> bool
(** Does the state have an outgoing observable transition with that
    name? *)

val successors : t -> int -> label -> int list

val deadlock_states : t -> int list

val reachable_from : t -> int -> bool array

val disjoint_union : t -> t -> t * int * int
(** [disjoint_union a b] is the side-by-side composition; returns the LTS
    (whose [init] is [a]'s) and the translated initial states of [a] and
    [b]. *)

val quotient : t -> int array -> t
(** [quotient lts block] merges states mapped to the same block id;
    transitions are deduplicated by (label, target) keeping the first
    rate annotation. The result's init is [block.(lts.init)]'s class.
    Runs under an ["lts.quotient"] span. *)

val map_labels : t -> (label -> label option) -> t
(** Relabel transitions; [None] deletes the transition (restriction).
    [f] is applied once per distinct label of the LTS, not once per
    edge, so it must be a function of the label alone. Edge order and
    rates are kept. *)

val hide_all_but : t -> keep:(string -> bool) -> t
(** Turn every observable transition whose name fails [keep] into [tau]. *)

val restrict : t -> remove:(string -> bool) -> t
(** Delete every observable transition whose name satisfies [remove]. *)

val pp_stats : Format.formatter -> t -> unit

val quotient_by_representative : t -> int array -> t
(** Like {!quotient}, but each class inherits the full transition multiset
    of one representative state (duplicates and rates preserved). This is
    the correct quotient for ordinary lumpability, where parallel
    transitions into the same class must keep their cumulative rate. The
    partition must be at least as fine as Markovian bisimilarity for the
    result to be stochastically equivalent. *)

val pp_dot : ?max_states:int -> Format.formatter -> t -> unit
(** Graphviz rendering: states as nodes (initial state doubly circled),
    transitions as labelled edges (rates appended when present). Refuses
    LTSs above [max_states] (default 2000) — dot layouts beyond that are
    unreadable anyway. *)
