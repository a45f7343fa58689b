(* Every instrument of the stack, registered eagerly at module init.
   Names, units, and descriptions are the stable contract documented in
   docs/OBSERVABILITY.md (checked by test/doc_sync.ml). *)

let c = Metrics.counter

let g = Metrics.gauge

let h = Metrics.histogram

(* Front end *)

let adl_tokens =
  c ~unit_:"tokens" ~desc:"tokens produced by the lexer" "adl.lex.tokens"

let adl_parses =
  c ~unit_:"descriptions" ~desc:"architectural descriptions parsed"
    "adl.parse.archis"

let adl_elem_types =
  c ~unit_:"types" ~desc:"element types parsed" "adl.parse.elem_types"

let adl_instances =
  c ~unit_:"instances" ~desc:"instances parsed" "adl.parse.instances"

let adl_attachments =
  c ~unit_:"attachments" ~desc:"attachments parsed" "adl.parse.attachments"

let adl_constants =
  c ~unit_:"constants" ~desc:"process constants produced by elaboration"
    "adl.elaborate.constants"

(* Compiled term core *)

let pa_terms =
  g ~unit_:"terms" ~desc:"live hash-consed terms in the sharing table"
    "pa.terms"

let pa_labels =
  g ~unit_:"labels" ~desc:"distinct interned action labels (tau included)"
    "pa.labels"

let sos_memo_hits =
  c ~unit_:"lookups" ~desc:"SOS derivations answered from the per-build memo"
    "sos.memo.hits"

let sos_memo_misses =
  c ~unit_:"lookups" ~desc:"SOS derivations computed and memoized"
    "sos.memo.misses"

(* State space *)

let lts_builds =
  c ~unit_:"builds" ~desc:"plain LTS constructions from a specification"
    "lts.builds"

let lts_states =
  c ~unit_:"states" ~desc:"states explored by plain builds, summed over builds"
    "lts.states"

let lts_transitions =
  c ~unit_:"transitions"
    ~desc:"transitions derived by plain builds, summed over builds"
    "lts.transitions"

let lts_build_seconds =
  h ~unit_:"seconds" ~desc:"wall-clock time of each plain LTS construction"
    "lts.build.seconds"

let lts_csr_pack_seconds =
  h ~unit_:"seconds"
    ~desc:"wall-clock time spent packing each LTS into CSR arrays"
    "lts.csr_pack.seconds"

(* Level-synchronous parallel builder *)

let lts_par_rounds =
  c ~unit_:"rounds"
    ~desc:"level-synchronous BFS rounds, summed over plain and featured builds"
    "lts.par.rounds"

let lts_par_frontier =
  h ~unit_:"states" ~desc:"frontier size at each BFS level" "lts.par.frontier"

let lts_par_derives_per_worker =
  h ~unit_:"derivations"
    ~desc:"SOS derivations (memo hits + misses) by each worker of each \
           parallel round"
    "lts.par.derives_per_worker"

let lts_par_merge_seconds =
  h ~unit_:"seconds"
    ~desc:"wall-clock time each build, plain or featured, spent merging \
           worker slices in frontier order"
    "lts.par.merge.seconds"

let lts_par_segments =
  c ~unit_:"segments"
    ~desc:"storage segments allocated, summed over plain and featured builds"
    "lts.par.segments"

let lts_par_segment_bytes =
  g ~unit_:"bytes"
    ~desc:"peak bytes held in chunked segments by the last build, plain or \
           featured"
    "lts.par.segment_bytes_peak"

(* Spill-to-disk segment store *)

let lts_spill_segments =
  c ~unit_:"segments"
    ~desc:"full segments spilled to memory-mapped temp files, summed over \
           builds"
    "lts.spill.segments"

let lts_spill_bytes =
  c ~unit_:"bytes" ~desc:"bytes written to spill files, summed over builds"
    "lts.spill.bytes"

let lts_spill_write_seconds =
  h ~unit_:"seconds"
    ~desc:"wall-clock time each build spent writing spilled segments"
    "lts.spill.write_seconds"

(* Resource guards *)

let guard_polls =
  c ~unit_:"polls"
    ~desc:"resource-guard checks performed between BFS and refinement rounds"
    "guard.polls"

let guard_trips =
  c ~unit_:"trips"
    ~desc:"resource-guard limit violations (phases aborted with a degraded \
           verdict)"
    "guard.trips"

(* Equivalence checking *)

let bisim_refines =
  c ~unit_:"fixpoints" ~desc:"partition-refinement fixpoints computed"
    "bisim.refines"

let bisim_rounds =
  c ~unit_:"rounds" ~desc:"refinement iterations, summed over fixpoints"
    "bisim.refine.rounds"

let bisim_blocks_per_round =
  h ~unit_:"blocks" ~desc:"block count after each refinement round"
    "bisim.refine.blocks"

let bisim_blocks =
  g ~unit_:"blocks" ~desc:"final block count of the last refinement"
    "bisim.blocks"

let bisim_par_rounds =
  c ~unit_:"rounds"
    ~desc:"refinement rounds whose signature pass was dealt to the pool"
    "bisim.par.rounds"

let bisim_par_blocks_per_worker =
  h ~unit_:"blocks"
    ~desc:
      "distinct signature classes produced by one worker in one parallel \
       refinement round"
    "bisim.par.blocks_per_worker"

let bisim_par_merge_seconds =
  h ~unit_:"seconds"
    ~desc:
      "time the coordinator spent merging per-worker signature classes in \
       state order, per parallel round"
    "bisim.par.merge.seconds"

let bisim_par_seq_fallbacks =
  c ~unit_:"fixpoints"
    ~desc:
      "refinement fixpoints that ran sequentially despite jobs > 1 (state \
       count under the parallel cutoff)"
    "bisim.par.seq_fallbacks"

let bisim_tau_components =
  g ~unit_:"components"
    ~desc:
      "tau-SCC components condensed by the last weak or branching \
       refinement"
    "bisim.tau.components"

let bisim_tau_cache_hits =
  c ~unit_:"lookups"
    ~desc:
      "unrecorded: branching signature lookups answered from the per-state \
       cache the sweep replaced; kept registered for readers of older reports"
    "bisim.tau.cache_hits"

let bisim_tau_cache_misses =
  c ~unit_:"entries"
    ~desc:
      "unrecorded: branching signatures the replaced per-state cache \
       computed on demand; kept registered for readers of older reports"
    "bisim.tau.cache_misses"

let bisim_tau_closure_bytes =
  g ~unit_:"bytes"
    ~desc:
      "closure memory of the last weak or branching refinement: the sweep's \
       arenas plus union buffer and dedup set (high-water mark)"
    "bisim.tau.closure_bytes_peak"

(* Noninterference product refiner *)

let ni_product_pruned =
  c ~unit_:"states"
    ~desc:
      "states dropped by the product refiner's reachability pruning, summed \
       over checks"
    "ni.product.states_pruned"

let ni_product_rounds =
  c ~unit_:"rounds"
    ~desc:"watched-refinement rounds, summed over product checks"
    "ni.product.rounds"

let ni_product_secure_exits =
  c ~unit_:"checks"
    ~desc:"product checks that ended with the initial states stably co-blocked"
    "ni.product.secure_exits"

let ni_product_insecure_exits =
  c ~unit_:"checks"
    ~desc:"product checks that exited early on an initial-state split"
    "ni.product.insecure_exits"

(* Markovian solution *)

let ctmc_builds =
  c ~unit_:"builds" ~desc:"CTMC extractions (vanishing-state eliminations)"
    "ctmc.builds"

let ctmc_states =
  c ~unit_:"states" ~desc:"tangible states, summed over extractions"
    "ctmc.states"

let ctmc_transitions =
  c ~unit_:"transitions" ~desc:"rated transitions, summed over extractions"
    "ctmc.transitions"

let ctmc_solves =
  c ~unit_:"solves" ~desc:"steady-state solutions computed" "ctmc.solves"

let ctmc_solve_iterations =
  c ~unit_:"iterations"
    ~desc:
      "solver iterations, summed over BSCC solves (Gauss-Seidel sweeps; a \
       direct dense solve counts one per elimination pivot)"
    "ctmc.solve.iterations"

let ctmc_absorption_sweeps =
  c ~unit_:"sweeps" ~desc:"fixed-point sweeps of the absorption computation"
    "ctmc.absorption.sweeps"

let ctmc_solve_residual =
  g ~unit_:"residual" ~desc:"final ||pi Q||_inf of the last solve (worst BSCC)"
    "ctmc.solve.residual"

let ctmc_reward_seconds =
  h ~unit_:"seconds" ~desc:"wall-clock time of each reward-evaluation batch"
    "ctmc.rewards.seconds"

(* Simulation *)

let sim_runs =
  c ~unit_:"runs" ~desc:"simulation trajectories executed" "sim.runs"

let sim_events =
  c ~unit_:"events" ~desc:"simulation events executed, summed over runs"
    "sim.events"

let sim_events_per_sec =
  g ~unit_:"events/s"
    ~desc:"aggregate event throughput of the last replication set"
    "sim.events_per_sec"

let sim_ci_rel_half_width =
  h ~unit_:"ratio"
    ~desc:"relative CI half-width of each estimate (half_width / |mean|)"
    "sim.ci.rel_half_width"

(* Featured configuration families *)

let family_builds =
  c ~unit_:"builds" ~desc:"featured family state-space builds" "family.builds"

let family_configs =
  g ~unit_:"configurations"
    ~desc:"configuration count of the last featured build" "family.configs"

let family_states =
  g ~unit_:"states" ~desc:"union states of the last featured build"
    "family.states"

let family_edges =
  g ~unit_:"edges" ~desc:"guarded transitions of the last featured build"
    "family.edges"

let family_guards =
  g ~unit_:"guards"
    ~desc:"distinct interned feature guards of the last featured build"
    "family.guard_table"

let family_build_seconds =
  h ~unit_:"seconds" ~desc:"wall-clock time of each featured family build"
    "family.build.seconds"

let family_project_seconds =
  h ~unit_:"seconds"
    ~desc:"wall-clock time of each per-configuration projection"
    "family.project.seconds"

let family_sharing_ratio =
  g ~unit_:"ratio"
    ~desc:
      "union states / summed projected states of the last full projection \
       (lower is more sharing)"
    "family.sharing_ratio"

let family_guard_words =
  g ~unit_:"words"
    ~desc:"total bitset payload words in the last featured build's guard table"
    "family.guard_words"

let family_distinct_quotients =
  g ~unit_:"quotients"
    ~desc:"distinct lumped CTMC quotients of the last dedup family solve"
    "family.distinct_quotients"

let family_solves_shared =
  g ~unit_:"solves"
    ~desc:
      "members of the last dedup family solve served by another member's \
       steady-state solution"
    "family.solves_shared"

(* Domain pool *)

let pool_parallel_maps =
  c ~unit_:"calls" ~desc:"parallel maps that spawned worker domains"
    "pool.parallel_maps"

let pool_tasks =
  c ~unit_:"tasks" ~desc:"work items dealt to pool workers" "pool.tasks"

let pool_tasks_per_worker =
  h ~unit_:"tasks" ~desc:"items processed by each worker of each parallel map"
    "pool.tasks_per_worker"

let pool_jobs =
  g ~unit_:"workers" ~desc:"worker-domain count of the last parallel map"
    "pool.jobs"

let pool_utilization =
  g ~unit_:"fraction"
    ~desc:"busy fraction of the last parallel map (busy / workers x elapsed)"
    "pool.utilization"

let force () = ()
