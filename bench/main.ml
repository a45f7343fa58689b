(* Benchmark harness.

   Part 1 regenerates every table/figure of the paper's evaluation
   (Sect. 3 verdicts, Figs. 3-8) and prints the same series the paper
   plots; EXPERIMENTS.md records the paper-vs-measured comparison.

   Part 2 runs Bechamel micro-benchmarks — one Test.make per figure driver
   (at reduced sweep size, so the harness stays in the minutes range) plus
   the core algorithms (parsing, state-space construction, weak
   bisimulation, CTMC solution, simulation).

   Run with: dune exec bench/main.exe
   Arguments (after --):
     quick   shrink the figure sweeps
     smoke   quick figures only, skip the micro-benchmarks (CI smoke)
     tiny    minimal single-point run (sec3 + one fig3 point), no micro
     json    write BENCH_results.json and print the same document to stdout
     metrics print the metrics registry to stderr on exit
     trace   record span timings and print the tree to stderr on exit
     -j N    run sweeps on N domains (same as DPMA_JOBS=N)
     --max-seconds S   wall-clock budget; on a trip the run prints a
                       machine-readable degraded verdict and exits 3
     --max-mb MB       resident-memory budget, same degraded contract
     --spill-dir DIR   spill full storage segments beyond the resident
                       budget to a mapped temp file in DIR
     --spill-mb MB     resident segment budget for --spill-dir
                       (default: half of --max-mb, else 64)

   Figure tables go to stdout and are bit-identical for any job count;
   wall-clock timing lines go to stderr. In json mode stdout carries the
   pure JSON report (schema dpma.bench/1, see docs/OBSERVABILITY.md) and
   the figure tables move to stderr. *)

module Figures = Dpma_models.Figures
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Adhoc = Dpma_models.Adhoc
module General = Dpma_core.General
module Markov = Dpma_core.Markov
module NI = Dpma_core.Noninterference
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Ctmc = Dpma_ctmc.Ctmc
module Sim = Dpma_sim.Sim
module Elaborate = Dpma_adl.Elaborate
module Parser = Dpma_adl.Parser
module Measure = Dpma_measures.Measure
module Flts = Dpma_lts.Flts
module Prng = Dpma_util.Prng
module Pool = Dpma_util.Pool

module Rguard = Dpma_util.Guard

let quick, json_mode, smoke, tiny =
  let quick = ref false and json = ref false in
  let smoke = ref false and tiny = ref false in
  let max_seconds = ref None and max_mb = ref None in
  let spill_dir = ref None and spill_mb = ref None in
  let num kind conv name rest k =
    match rest with
    | v :: rest -> (
        match conv v with
        | Some x -> k x; rest
        | None ->
            Printf.eprintf "bench: %s expects a %s\n" name kind;
            exit 2)
    | [] ->
        Printf.eprintf "bench: %s expects an argument\n" name;
        exit 2
  in
  let pos_int s =
    match int_of_string_opt s with Some v when v >= 1 -> Some v | _ -> None
  in
  let pos_float s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && Float.is_finite v -> Some v
    | _ -> None
  in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> Pool.set_default_jobs j
        | _ ->
            prerr_endline "bench: -j expects a positive integer";
            exit 2);
        parse rest
    | "--max-seconds" :: rest ->
        parse
          (num "non-negative number" pos_float "--max-seconds" rest (fun s ->
               max_seconds := Some s))
    | "--max-mb" :: rest ->
        parse
          (num "positive integer" pos_int "--max-mb" rest (fun m ->
               max_mb := Some m))
    | "--spill-dir" :: rest ->
        parse
          (num "directory" (fun d -> Some d) "--spill-dir" rest (fun d ->
               spill_dir := Some d))
    | "--spill-mb" :: rest ->
        parse
          (num "positive integer" pos_int "--spill-mb" rest (fun m ->
               spill_mb := Some m))
    | "quick" :: rest ->
        quick := true;
        parse rest
    | "json" :: rest ->
        json := true;
        parse rest
    | "smoke" :: rest ->
        smoke := true;
        quick := true;
        parse rest
    | "tiny" :: rest ->
        tiny := true;
        smoke := true;
        quick := true;
        parse rest
    | "metrics" :: rest ->
        Dpma_obs.Report.configure ~metrics:(Some Dpma_obs.Report.Text) ();
        parse rest
    | "trace" :: rest ->
        Dpma_obs.Report.configure ~trace:true ();
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %S\n" arg;
        exit 2
  in
  Dpma_obs.Report.init_from_env ();
  parse (List.tl (Array.to_list Sys.argv));
  (* Same resolution as dpma's --spill-dir/--max-* flags: spill budget
     defaults to half the memory budget, and the guard is ambient so it
     covers every build and refinement phase of the run. *)
  (match !spill_dir with
  | Some dir ->
      let budget_mb =
        match (!spill_mb, !max_mb) with
        | Some b, _ -> max 1 b
        | None, Some m -> max 1 (m / 2)
        | None, None -> 64
      in
      Dpma_lts.Segstore.set_defaults ~spill_dir:dir
        ~max_resident_bytes:(budget_mb * 1024 * 1024) ()
  | None -> ());
  if !max_seconds <> None || !max_mb <> None then
    Rguard.install
      (Rguard.create ?max_seconds:!max_seconds
         ?max_resident_bytes:(Option.map (fun m -> m * 1024 * 1024) !max_mb)
         ());
  (!quick, !json, !smoke, !tiny)

(* ------------------------------------------------------------------ *)
(* Wall-clock accounting (stderr only, so stdout stays diffable)       *)

let wall_clock : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  wall_clock := (name, dt) :: !wall_clock;
  Printf.eprintf "[bench] %-16s %8.2f s\n%!" name dt;
  r

(* ------------------------------------------------------------------ *)
(* Per-study compiled-core timings and state-count goldens             *)

(* Smoke and tiny runs time the two paper studies through the compiled
   state-space core (BFS build over the memoized SOS engine, then the
   weak-bisimulation noninterference check) and assert the known state
   counts — a refactor of the term/label/LTS representation must change
   neither. The timings land in BENCH_results.json under
   "study_seconds" so regressions of the two hot phases are visible
   per study, not just as aggregate histograms. *)

let study_seconds : (string * (string * float) list) list ref = ref []

let study_golden_counts =
  [ ("rpc", (546, 546)); ("streaming", (2565, 19133)) ]

(* Each study's state space is rebuilt at 1, 2 and 4 jobs so the scaling
   of the level-synchronous builder lands in the JSON report
   (lts.build_seconds.jN). The legs are timed on equal footing: an
   untimed warmup build runs first (it populates the global term-sharing
   table and sizes the major heap), and each timed leg runs behind a
   full major collection keeping only that warmup LTS plus O(1) digests
   of the earlier legs live — holding each leg's ~100-MiB CSR while
   timing the next would bill later legs for the GC marking of the
   earlier ones (measured on the 518k-state model: a second *identical
   j1* build runs 1.6x slower than the first when the first result
   stays live). The digests double as the bit-identity differential
   across job counts, and cover the full CSR, not just the state
   count. *)
let jobs_sweep = [ 1; 2; 4 ]

let csr_digest (lts : Lts.t) =
  let h = ref 0x1505 in
  let mix x = h := (((!h lsl 5) + !h) lxor x) land max_int in
  mix lts.Lts.init;
  mix lts.Lts.num_states;
  Array.iter mix lts.Lts.row;
  Array.iter mix lts.Lts.lab;
  Array.iter mix lts.Lts.tgt;
  Array.iter mix lts.Lts.rate_kind;
  Array.iter mix lts.Lts.rate_prio;
  Array.iter
    (fun v -> mix (Int64.to_int (Int64.bits_of_float v)))
    lts.Lts.rate_val;
  !h

type sweep = {
  sw_lts : Lts.t;  (* the warmup build, reused by the study's phases *)
  sw_digest : int;
  sw_legs : (int * int * Lts.build_stats) list;  (* (jobs, digest, stats) *)
}

let build_sweep ?max_states spec =
  let sw_lts, _ = Lts.build ?max_states ~jobs:1 spec in
  let sw_digest = csr_digest sw_lts in
  let sw_legs =
    List.map
      (fun j ->
        Gc.full_major ();
        let lts, st = Lts.build ?max_states ~jobs:j spec in
        (j, csr_digest lts, st))
      jobs_sweep
  in
  { sw_lts; sw_digest; sw_legs }

let sweep_entries sweep =
  List.map
    (fun (j, _, (st : Lts.build_stats)) ->
      (Printf.sprintf "lts.build_seconds.j%d" j, st.Lts.build_seconds))
    sweep.sw_legs

let check_sweep_agrees name sweep =
  List.iter
    (fun (j, digest, _) ->
      if digest <> sweep.sw_digest then begin
        Printf.eprintf "[bench] JOBS MISMATCH %s: CSR digest differs at j%d\n%!"
          name j;
        exit 1
      end)
    sweep.sw_legs;
  sweep.sw_lts

(* -j must be a safe default: with the adaptive sequential-fallback
   thresholds a parallel build may never be slower than the sequential
   one beyond timing noise (10% relative plus 250 ms absolute slack for
   sub-second builds on loaded CI machines). *)
let check_build_regression name sweep =
  match sweep.sw_legs with
  | (_, _, (first : Lts.build_stats)) :: rest ->
      let t1 = first.Lts.build_seconds in
      List.iter
        (fun (j, _, (st : Lts.build_stats)) ->
          let tj = st.Lts.build_seconds in
          if tj > (1.1 *. t1) +. 0.25 then begin
            Printf.eprintf
              "[bench] BUILD REGRESSION %s: %.3f s at j%d vs %.3f s at j1\n%!"
              name tj j t1;
            exit 1
          end)
        rest
  | [] -> ()

(* One refinement at 1, 2 and 4 jobs, as "<key>.jN" entries. The
   partitions must be bit-identical across job counts — the parallel
   signature pass merges per-worker classes in state order — so every
   leg doubles as a differential check of its signature kind. A [gated]
   leg must also never lose to its j1 run beyond timing noise (10%
   relative plus 250 ms absolute slack, as for the build). *)
let jobs_leg ?(gated = false) name (lts : Lts.t) ~kind ~key partition =
  let results =
    List.map
      (fun j ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let p = partition ~jobs:j lts in
        let dt = Unix.gettimeofday () -. t0 in
        (j, p, dt))
      jobs_sweep
  in
  (match results with
  | (_, first, t1) :: rest ->
      List.iter
        (fun (j, p, tj) ->
          if p <> first then begin
            Printf.eprintf
              "[bench] JOBS MISMATCH %s: %s partition differs at j%d\n%!"
              name kind j;
            exit 1
          end;
          if gated && tj > (1.1 *. t1) +. 0.25 then begin
            Printf.eprintf
              "[bench] %s REGRESSION %s: %.3f s at j%d vs %.3f s at j1\n%!"
              (String.uppercase_ascii kind) name tj j t1;
            exit 1
          end)
        rest
  | [] -> ());
  List.map (fun (j, _, dt) -> (Printf.sprintf "%s.j%d" key j, dt)) results

(* The refinement loop's jobs scaling, next to the builder's, on the
   study's full LTS: the coarsest strong-bisimulation partition
   (bisim.refine_seconds.jN), the ordinary-lumpability partition
   (bisim.markovian_refine_seconds.jN, a differential check of the rate
   sums too) and the branching-bisimulation partition
   (bisim.branching_refine_seconds.jN, gated like the weak sweep).
   Branching refinement runs its rounds on one job unless given a
   cutoff, so this leg passes [~par_cutoff:0]: its j2/j4 runs take the
   parallel rounds, and the partition check covers their merge at bench
   scale. *)
let refine_sweep name (lts : Lts.t) =
  jobs_leg name lts ~kind:"strong" ~key:"bisim.refine_seconds"
    (fun ~jobs lts -> Bisim.strong_partition ~jobs lts)
  @ jobs_leg name lts ~kind:"markovian" ~key:"bisim.markovian_refine_seconds"
      (fun ~jobs lts -> Bisim.markovian_partition ~jobs lts)
  @ jobs_leg ~gated:true name lts ~kind:"branching"
      ~key:"bisim.branching_refine_seconds"
      (fun ~jobs lts -> Bisim.branching_partition ~jobs ~par_cutoff:0 lts)

(* The weak path next to the strong one: the weak-bisimulation
   partition of the study's functional LTS at 1, 2 and 4 jobs
   (bisim.weak_refine_seconds.jN), bit-identical across job counts — the
   standing determinism differential now that the
   materialized-saturation oracle is gone (test/test_weak_lazy.ml keeps
   a reconstructed oracle differential on small models) — and gated. *)
let weak_sweep name (lts : Lts.t) =
  jobs_leg ~gated:true name lts ~kind:"weak" ~key:"bisim.weak_refine_seconds"
    (fun ~jobs lts -> Bisim.weak_partition ~jobs lts)

let study_timings () =
  let check what expected actual =
    if expected <> actual then begin
      Printf.eprintf
        "[bench] GOLDEN MISMATCH %s: expected %d states, got %d\n%!" what
        expected actual;
      exit 1
    end
  in
  let one name (study : Dpma_core.Pipeline.study) =
    let functional_states, full_states =
      List.assoc name study_golden_counts
    in
    let sweep = build_sweep study.Dpma_core.Pipeline.spec in
    let lts = check_sweep_agrees name sweep in
    check_build_regression name sweep;
    let build_s =
      match sweep.sw_legs with (_, _, st) :: _ -> st.Lts.build_seconds | [] -> 0.0
    in
    check (name ^ " full") full_states lts.Lts.num_states;
    let refine_entries = refine_sweep name lts in
    let functional =
      Option.value ~default:study.Dpma_core.Pipeline.spec
        study.Dpma_core.Pipeline.functional_spec
    in
    let flts = Lts.of_spec functional in
    check (name ^ " functional") functional_states flts.Lts.num_states;
    let weak_entries = weak_sweep name flts in
    let pruned0 =
      Dpma_obs.Metrics.count Dpma_obs.Instruments.ni_product_pruned
    in
    let t1 = Unix.gettimeofday () in
    (match
       NI.check_spec functional ~high:study.Dpma_core.Pipeline.high
         ~low:study.Dpma_core.Pipeline.low
     with
    | NI.Secure -> ()
    | NI.Insecure _ ->
        Printf.eprintf "[bench] GOLDEN MISMATCH %s: expected secure verdict\n%!"
          name;
        exit 1);
    let check_s = Unix.gettimeofday () -. t1 in
    let pruned =
      Dpma_obs.Metrics.count Dpma_obs.Instruments.ni_product_pruned - pruned0
    in
    Printf.eprintf
      "[bench] %-16s lts.build %.3f s, ni.check %.3f s, pruned %d states\n%!"
      name build_s check_s pruned;
    study_seconds :=
      ( name,
        (("lts.build_seconds", build_s) :: sweep_entries sweep)
        @ refine_entries @ weak_entries
        @ [
            (* the check *is* the refinement phase; the historical key is
               kept alongside the explicit one *)
            ("bisim.refine_seconds", check_s);
            ("ni.check_seconds", check_s);
            ("ni.states_pruned", float_of_int pruned);
          ] )
      :: !study_seconds
  in
  one "rpc" (Rpc.study Rpc.default_params);
  one "streaming" (Streaming.study Streaming.default_params);
  study_seconds := List.rev !study_seconds

(* The N-station scaling model (lib/models/streaming.ml, scaled_archi):
   the state space where segment storage and the parallel builder earn
   their keep. Tiny runs use a single station (530 states) so the JSON
   contract check stays fast; smoke and full runs build the calibrated
   default (2 stations, >500k states) at 1/2/4 jobs. *)
let scaled_study () =
  let sp, expected_states, max_states =
    if tiny then
      ( { Streaming.default_scaled_params with Streaming.stations = 1 },
        530, 100_000 )
    else (Streaming.default_scaled_params, 518_218, 600_000)
  in
  let spec = Streaming.scaled_spec sp in
  let sweep = build_sweep ~max_states spec in
  let lts = check_sweep_agrees "streaming_scaled" sweep in
  check_build_regression "streaming_scaled" sweep;
  if lts.Lts.num_states <> expected_states then begin
    Printf.eprintf
      "[bench] GOLDEN MISMATCH streaming_scaled: expected %d states, got %d\n%!"
      expected_states lts.Lts.num_states;
    exit 1
  end;
  (* The full half-million-state refinement sweep is minutes of work;
     smoke runs stay inside their timeout by skipping it (tiny runs use
     the 530-state model, so the JSON contract keys stay covered — the
     smoke legs cover refinement through the rpc/streaming sweeps). *)
  let refine_entries =
    if tiny || not smoke then refine_sweep "streaming_scaled" lts else []
  in
  (* The weak sweep is the weak path's headline number: the 518k-state
     model's weak partition without ever materializing the saturated
     relation, checked bit-identical across job counts. Gated like the
     strong sweep; the closure arenas' high-water mark rides along in
     the JSON entry. *)
  let weak_entries =
    if tiny || not smoke then
      weak_sweep "streaming_scaled" lts
      @ [
          ( "bisim.tau.closure_bytes_peak",
            Dpma_obs.Metrics.value Dpma_obs.Instruments.bisim_tau_closure_bytes
          );
        ]
    else []
  in
  (* Spill differential: the same build forced through the disk-backed
     segment path (resident budget 0, so every full segment spills) must
     produce a bit-identical CSR, leave no temp file behind, and report
     its spill traffic. Tiny runs shrink the segments (seg_bits 8) so the
     530-state model still crosses segment boundaries. *)
  let spill_dir = Filename.temp_dir "dpma-bench" ".spill" in
  Gc.full_major ();
  let slts, sst =
    Lts.build ~max_states
      ?seg_bits:(if tiny then Some 8 else None)
      ~spill_dir ~max_resident_bytes:0 spec
  in
  if csr_digest slts <> sweep.sw_digest then begin
    Printf.eprintf
      "[bench] SPILL MISMATCH streaming_scaled: CSR digest differs with \
       spill forced\n\
       %!";
    exit 1
  end;
  if sst.Lts.spilled_segments = 0 then begin
    Printf.eprintf
      "[bench] SPILL MISMATCH streaming_scaled: forced spill spilled no \
       segments\n\
       %!";
    exit 1
  end;
  (match Sys.readdir spill_dir with
  | [||] -> Unix.rmdir spill_dir
  | leftovers ->
      Printf.eprintf
        "[bench] SPILL LEAK streaming_scaled: %d temp files left in %s\n%!"
        (Array.length leftovers) spill_dir;
      exit 1);
  let st = match sweep.sw_legs with (_, _, st) :: _ -> st | [] -> assert false in
  Printf.eprintf
    "[bench] %-16s %d states, %d transitions, %d segments, %.1f MiB peak, \
     lts.build %.3f s, spilled %d segs (%.1f MiB, %.3f s)\n\
     %!"
    "streaming_scaled" lts.Lts.num_states (Lts.num_transitions lts)
    st.Lts.segments
    (float_of_int st.Lts.segment_bytes_peak /. 1048576.0)
    st.Lts.build_seconds sst.Lts.spilled_segments
    (float_of_int sst.Lts.spilled_bytes /. 1048576.0)
    sst.Lts.spill_write_seconds;
  study_seconds :=
    !study_seconds
    @ [
        ( "streaming_scaled",
          (("lts.build_seconds", st.Lts.build_seconds) :: sweep_entries sweep)
          @ refine_entries @ weak_entries
          @ [
              ("lts.states", float_of_int lts.Lts.num_states);
              ("lts.transitions", float_of_int (Lts.num_transitions lts));
              ("lts.segment_bytes_peak",
               float_of_int st.Lts.segment_bytes_peak);
              ("lts.spill.segments", float_of_int sst.Lts.spilled_segments);
              ("lts.spill.bytes", float_of_int sst.Lts.spilled_bytes);
              ("lts.spill.build_seconds", sst.Lts.build_seconds);
            ] );
      ]

(* The featured-family path next to the per-configuration one: a
   4-configuration awake-period family of the streaming study, one
   featured build plus per-configuration projections, against the
   baseline of four independent Lts.of_spec pipelines on the same
   specifications. The projections are bit-identical to the baseline
   builds by the Flts contract (test/test_family.ml asserts the full
   CSR); here the bench asserts the shape and that the shared build
   actually pays — the featured leg must beat the N-pipeline baseline
   or the run aborts. The baseline runs second, so any warmup the legs
   share favors the baseline, making the guard conservative. *)
let family_sweep () =
  let periods = [ 100.0; 200.0; 400.0; 800.0 ] in
  let specs =
    Array.of_list
      (List.map
         (fun a ->
           (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
              { Streaming.default_params with awake_period_mean = a })
             .Elaborate.spec)
         periods)
  in
  let nconfigs = Array.length specs in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let fam, _stats = Flts.build_family specs in
  let build_s = Unix.gettimeofday () -. t0 in
  let proj_s = Array.make nconfigs 0.0 in
  let ltss =
    Array.init nconfigs (fun c ->
        let t0 = Unix.gettimeofday () in
        let lts = Flts.project fam c in
        proj_s.(c) <- Unix.gettimeofday () -. t0;
        lts)
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let base = Array.map (fun spec -> Lts.of_spec spec) specs in
  let base_s = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun c lts ->
      let b = base.(c) in
      if
        lts.Lts.num_states <> b.Lts.num_states
        || Lts.num_transitions lts <> Lts.num_transitions b
      then begin
        Printf.eprintf
          "[bench] FAMILY MISMATCH streaming_family: config %d projects to \
           %d states / %d transitions, pipeline builds %d / %d\n\
           %!"
          c lts.Lts.num_states (Lts.num_transitions lts) b.Lts.num_states
          (Lts.num_transitions b);
        exit 1
      end)
    ltss;
  let proj_total = Array.fold_left ( +. ) 0.0 proj_s in
  let fam_total = build_s +. proj_total in
  if fam_total >= base_s then begin
    Printf.eprintf
      "[bench] FAMILY REGRESSION streaming_family: featured build + %d \
       projections took %.3f s, %d independent pipelines took %.3f s\n\
       %!"
      nconfigs fam_total nconfigs base_s;
    exit 1
  end;
  let sum_states =
    Array.fold_left (fun acc l -> acc + l.Lts.num_states) 0 ltss
  in
  let sharing =
    float_of_int fam.Flts.num_states /. float_of_int sum_states
  in
  Printf.eprintf
    "[bench] %-16s %d configs, %d union states (sharing %.3f), family \
     %.3f s vs pipelines %.3f s (%.1fx)\n\
     %!"
    "streaming_family" nconfigs fam.Flts.num_states sharing fam_total base_s
    (base_s /. fam_total);
  study_seconds :=
    !study_seconds
    @ [
        ( "streaming_family",
          [
            ("family.configs", float_of_int nconfigs);
            ("family.states", float_of_int fam.Flts.num_states);
            ("family.sharing_ratio", sharing);
            ("family.build_seconds", build_s);
            ("family.project_seconds", proj_total);
          ]
          @ Array.to_list
              (Array.mapi
                 (fun c dt ->
                   (Printf.sprintf "family.project_seconds.c%d" c, dt))
                 proj_s)
          @ [
              ("baseline.build_seconds", base_s);
              ("family.speedup", base_s /. fam_total);
            ] );
      ]

(* Thousand-configuration grid: an ADL sweep grid (dpm toggle x dozing
   timeout x awake period) elaborated to 2 x T x A members, analyzed by
   the featured path — one union build, per-member projections, and
   quotient-deduplicated CTMC solves — against the per-member pipeline
   (Lts.of_spec + analyze_lts each). The dpm=0 half of the grid never
   reaches the timeout/awake-sensitive behaviors, so all those members
   collapse to one lumped quotient and share a single solve. The run
   aborts on any of: a sampled projection differing from its pipeline
   build (full CSR compare), a measure value off by more than 1e-12, no
   solve sharing, or the featured leg failing to finish in under half
   the baseline time. The baseline runs second, so shared warmup favors
   it. Tiny runs shrink the grid to 2 x 4 x 8 = 64 members; smoke and
   full runs race the whole 1024-member grid. *)
let family_scale () =
  let t_max, a_max = if tiny then (4, 8) else (16, 32) in
  let src =
    Printf.sprintf
      {|ARCHI_TYPE Streaming_Grid(void)

feature dpm in {0, 1}
feature timeout in {1 .. %d}
feature awake in {1 .. %d}

ARCHI_ELEM_TYPES

ELEM_TYPE Source_Type(void)
BEHAVIOR
Source(void; void) =
  <emit_frame, exp(0.5)> . Source()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI emit_frame

ELEM_TYPE Buffer_Type(const integer size)
BEHAVIOR
Buffer(void; void) = Hold(0);
Hold(integer h; void) =
  choice {
    cond(h < size) -> <put_frame, _> . Hold(h + 1),
    cond(h > 0) -> <get_frame, _> . Hold(h - 1)
  }
INPUT_INTERACTIONS UNI put_frame; get_frame
OUTPUT_INTERACTIONS void

ELEM_TYPE Client_Type(void)
BEHAVIOR
Playing_Client(void; void) =
  choice {
    <fetch_frame, exp(1.0)> . <decode_frame, exp(8.0)> . Playing_Client(),
    <doze_cmd, _> . Dozing_Client()
  };
Dozing_Client(void; void) =
  <wake_client, exp_mean(timeout)> . Playing_Client()
INPUT_INTERACTIONS UNI doze_cmd
OUTPUT_INTERACTIONS UNI fetch_frame

ELEM_TYPE Dpm_Type(void)
BEHAVIOR
Dpm(void; void) =
  cond(dpm = 1) ->
    <observe_idle, exp_mean(awake)> . <cmd_doze, inf> . Dpm()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI cmd_doze

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
SRC : Source_Type();
BUF : Buffer_Type(2);
CL  : Client_Type();
PM  : Dpm_Type()

ARCHI_ATTACHMENTS
FROM SRC.emit_frame TO BUF.put_frame;
FROM CL.fetch_frame TO BUF.get_frame;
FROM PM.cmd_doze TO CL.doze_cmd

END
|}
      t_max a_max
  in
  let measures =
    Measure.parse
      {|MEASURE frame_rate IS
  ENABLED(CL.fetch_frame#BUF.get_frame) -> TRANS_REWARD(1);
MEASURE doze_time IS
  ENABLED(CL.wake_client) -> STATE_REWARD(1);
MEASURE frames_per_doze IS
  ENABLED(CL.fetch_frame#BUF.get_frame) -> TRANS_REWARD(1)
  DIVIDED_BY
  ENABLED(CL.wake_client) -> STATE_REWARD(1);|}
  in
  (* Elaboration is identical work for both legs, so it stays outside
     the timers. *)
  let fam_adl = Elaborate.elaborate_family (Parser.parse src) in
  let specs =
    Array.map (fun m -> m.Elaborate.spec) fam_adl.Elaborate.members
  in
  let members = Array.length specs in
  assert (members = 2 * t_max * a_max);
  (* Featured leg: one union build, every projection, dedup solves. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let fam, _stats = Flts.build_family specs in
  let build_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let ltss = Flts.project_all fam in
  let project_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let analyses, solve_stats = Markov.analyze_ltss_dedup ltss measures in
  let analyze_s = Unix.gettimeofday () -. t0 in
  let fam_total = build_s +. project_s +. analyze_s in
  (* Baseline leg, second: one full pipeline per member. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let base =
    Array.map (fun spec -> Markov.analyze_lts (Lts.of_spec spec) measures)
      specs
  in
  let base_s = Unix.gettimeofday () -. t0 in
  (* Sampled bit-identity: eight members spread across the grid must
     project to exactly the pipeline's CSR. *)
  let samples =
    List.sort_uniq Int.compare
      (List.init 8 (fun i -> i * (members - 1) / 7))
  in
  List.iter
    (fun c ->
      let p = ltss.(c) and b = Lts.of_spec specs.(c) in
      let same =
        p.Lts.num_states = b.Lts.num_states
        && p.Lts.init = b.Lts.init
        && p.Lts.row = b.Lts.row
        && p.Lts.lab = b.Lts.lab
        && p.Lts.tgt = b.Lts.tgt
        && p.Lts.rate_kind = b.Lts.rate_kind
        && p.Lts.rate_val = b.Lts.rate_val
        && p.Lts.rate_prio = b.Lts.rate_prio
      in
      if not same then begin
        Printf.eprintf
          "[bench] FAMILY MISMATCH family_scale: member %d's projection \
           differs from its pipeline build\n\
           %!"
          c;
        exit 1
      end)
    samples;
  (* Every member's dedup-solved measure values against its own solve. *)
  let close a b =
    (Float.is_nan a && Float.is_nan b) || abs_float (a -. b) <= 1e-12
  in
  Array.iteri
    (fun c (a : Markov.analysis) ->
      List.iter2
        (fun (name, v) (bname, bv) ->
          assert (String.equal name bname);
          if not (close v bv) then begin
            Printf.eprintf
              "[bench] VALUE MISMATCH family_scale: member %d measure %s: \
               dedup %.17g vs pipeline %.17g\n\
               %!"
              c name v bv;
            exit 1
          end)
        a.Markov.values base.(c).Markov.values)
    analyses;
  if solve_stats.Markov.distinct_quotients >= members then begin
    Printf.eprintf
      "[bench] NO SHARING family_scale: %d distinct quotients for %d \
       members\n\
       %!"
      solve_stats.Markov.distinct_quotients members;
    exit 1
  end;
  if fam_total >= 0.5 *. base_s then begin
    Printf.eprintf
      "[bench] FAMILY REGRESSION family_scale: featured+dedup took %.3f s, \
       %d pipelines took %.3f s (want < 0.5x)\n\
       %!"
      fam_total members base_s;
    exit 1
  end;
  let guard_words = Flts.Guard.table_words fam.Flts.guards in
  Printf.eprintf
    "[bench] %-16s %d members, %d union states, %d distinct quotients \
     (%d solves shared), %d guard words, featured %.3f s vs pipelines \
     %.3f s (%.1fx)\n\
     %!"
    "family_scale" members fam.Flts.num_states
    solve_stats.Markov.distinct_quotients solve_stats.Markov.solves_shared
    guard_words fam_total base_s (base_s /. fam_total);
  study_seconds :=
    !study_seconds
    @ [
        ( "family_scale",
          [
            ("family.configs", float_of_int members);
            ("family.states", float_of_int fam.Flts.num_states);
            ("family.distinct_quotients",
             float_of_int solve_stats.Markov.distinct_quotients);
            ("family.solves_shared",
             float_of_int solve_stats.Markov.solves_shared);
            ("family.guard_words", float_of_int guard_words);
            ("family.build_seconds", build_s);
            ("family.project_seconds", project_s);
            ("family.analyze_seconds", analyze_s);
            ("baseline.analyze_seconds", base_s);
            ("family.speedup", base_s /. fam_total);
          ] );
      ]

(* The N-node ad hoc network chain (lib/models/adhoc.ml): the
   million-state scenario the spill store and the resource guards exist
   for. Smoke and full runs build the calibrated 4-node instance — over
   2 million states whose in-memory edge segments peak near 500 MiB —
   under a 64-MiB resident segment budget, which only the spill path can
   satisfy. Tiny runs shrink the chain to 2 nodes and the segments to
   seg_bits 8 so the same spill machinery (and the JSON contract keys)
   is exercised in milliseconds, and add two checks the big instance
   would pay for twice: a bit-identity differential against the
   in-memory build, and a deliberately tripped wall-clock guard whose
   structured verdict must carry the partial build progress. *)
let adhoc_study () =
  let p, expected_states, max_states, cap_mb =
    if tiny then
      ( { Adhoc.default_params with Adhoc.nodes = 2; queue_size = 1 },
        1_232, 100_000, 0 )
    else
      ( { Adhoc.default_params with
          Adhoc.nodes = 4; queue_size = 1; head_queue_size = Some 2 },
        2_025_289, 2_500_000, 64 )
  in
  let spec = Adhoc.spec ~monitors:false p in
  let seg_bits = if tiny then Some 8 else None in
  let spill_dir = Filename.temp_dir "dpma-bench" ".adhoc" in
  Gc.full_major ();
  let lts, st =
    Lts.build ~max_states ?seg_bits ~spill_dir
      ~max_resident_bytes:(cap_mb * 1024 * 1024) spec
  in
  if lts.Lts.num_states <> expected_states then begin
    Printf.eprintf
      "[bench] GOLDEN MISMATCH adhoc_net: expected %d states, got %d\n%!"
      expected_states lts.Lts.num_states;
    exit 1
  end;
  if st.Lts.spilled_segments = 0 then begin
    Printf.eprintf
      "[bench] SPILL MISMATCH adhoc_net: capped build spilled no segments\n%!";
    exit 1
  end;
  if tiny then begin
    (* Differential against the in-memory path (cheap at 2 nodes; the
       big instance relies on the streaming_scaled spill differential,
       which runs in every mode). *)
    let mem = Lts.of_spec ~max_states spec in
    if csr_digest mem <> csr_digest lts then begin
      Printf.eprintf
        "[bench] SPILL MISMATCH adhoc_net: CSR digest differs from the \
         in-memory build\n\
         %!";
      exit 1
    end
  end;
  (match Sys.readdir spill_dir with
  | [||] -> Unix.rmdir spill_dir
  | leftovers ->
      Printf.eprintf
        "[bench] SPILL LEAK adhoc_net: %d temp files left in %s\n%!"
        (Array.length leftovers) spill_dir;
      exit 1);
  (* Deliberate guard trip: an exhausted wall-clock budget must abort
     the build with the structured trip — right resource, right phase,
     partial progress attached — not a crash. [Guard.poll] clears a
     tripped guard, so the rest of the run is unaffected. *)
  let trip =
    try
      Rguard.with_guard
        (Rguard.create ~max_seconds:0.0 ())
        (fun () -> ignore (Lts.build ~max_states:10_000 spec));
      Printf.eprintf
        "[bench] GUARD MISMATCH adhoc_net: exhausted wall-clock budget did \
         not trip\n\
         %!";
      exit 1
    with Rguard.Resource_exceeded trip -> trip
  in
  if trip.Rguard.resource <> Rguard.Wall_clock
     || trip.Rguard.phase <> "lts.build"
     || trip.Rguard.partial = []
  then begin
    Printf.eprintf "[bench] GUARD MISMATCH adhoc_net: malformed trip %s\n%!"
      (Rguard.verdict_line trip);
    exit 1
  end;
  Printf.eprintf
    "[bench] %-16s %d states, %d transitions under a %d-MiB cap: %.1f MiB \
     resident peak, spilled %d segs (%.1f MiB, %.3f s), lts.build %.3f s\n\
     %!"
    "adhoc_net" lts.Lts.num_states (Lts.num_transitions lts) cap_mb
    (float_of_int st.Lts.segment_bytes_peak /. 1048576.0)
    st.Lts.spilled_segments
    (float_of_int st.Lts.spilled_bytes /. 1048576.0)
    st.Lts.spill_write_seconds st.Lts.build_seconds;
  study_seconds :=
    !study_seconds
    @ [
        ( "adhoc_net",
          [
            ("lts.build_seconds", st.Lts.build_seconds);
            ("lts.states", float_of_int lts.Lts.num_states);
            ("lts.transitions", float_of_int (Lts.num_transitions lts));
            ("lts.segment_bytes_peak", float_of_int st.Lts.segment_bytes_peak);
            ("lts.spill.segments", float_of_int st.Lts.spilled_segments);
            ("lts.spill.bytes", float_of_int st.Lts.spilled_bytes);
            ("guard.trips", 1.0);
          ] );
      ]

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration                                         *)

(* Minimal run for CI checks of the JSON contract: one Markovian and one
   simulated fig3 point, enough to touch every pipeline metric. *)
let figures_tiny () =
  let sim =
    { General.default_sim_params with runs = 2; duration = 2_000.0; warmup = 200.0 }
  in
  Format.printf "%a@.@." Figures.pp_sec3
    (timed "sec3" (fun () -> Figures.sec3_noninterference ()));
  Format.printf "%a@.@."
    (Figures.pp_rpc_rows ~title:"Fig. 3 (left): rpc Markovian, one point")
    (timed "fig3-markov" (fun () -> Figures.fig3_markov ~timeouts:[ 5.0 ] ()));
  Format.printf "%a@.@."
    (Figures.pp_rpc_rows ~title:"Fig. 3 (right): rpc general, one point")
    (timed "fig3-general" (fun () ->
         Figures.fig3_general ~timeouts:[ 5.0 ] ~sim ()))

let figures () =
  let rpc_sim =
    if quick then
      { General.default_sim_params with runs = 10; duration = 10_000.0; warmup = 1_000.0 }
    else { General.default_sim_params with duration = 30_000.0; warmup = 3_000.0 }
  in
  let streaming_sim =
    if quick then
      { General.default_sim_params with runs = 5; duration = 50_000.0; warmup = 3_000.0 }
    else
      { General.default_sim_params with runs = 10; duration = 120_000.0; warmup = 5_000.0 }
  in
  let timeouts =
    if quick then [ 0.5; 2.0; 5.0; 10.0; 12.5; 25.0 ] else Figures.default_rpc_timeouts
  in
  let awakes =
    if quick then [ 1.0; 100.0; 400.0; 800.0 ] else Figures.default_awake_periods
  in
  Format.printf "%a@.@." Figures.pp_sec3
    (timed "sec3" (fun () -> Figures.sec3_noninterference ()));
  let fig3m = timed "fig3-markov" (fun () -> Figures.fig3_markov ~timeouts ()) in
  Format.printf "%a@.@." (Figures.pp_rpc_rows ~title:"Fig. 3 (left): rpc Markovian") fig3m;
  let fig3g =
    timed "fig3-general" (fun () -> Figures.fig3_general ~timeouts ~sim:rpc_sim ())
  in
  Format.printf "%a@.@." (Figures.pp_rpc_rows ~title:"Fig. 3 (right): rpc general") fig3g;
  let fig4 = timed "fig4" (fun () -> Figures.fig4_markov ~awake_periods:awakes ()) in
  Format.printf "%a@.@."
    (Figures.pp_streaming_rows ~title:"Fig. 4: streaming Markovian") fig4;
  Format.printf "%a@.@." Figures.pp_validation_rows
    (timed "fig5" (fun () -> Figures.fig5_validation ~sim:rpc_sim ()));
  let fig6 =
    timed "fig6" (fun () ->
        Figures.fig6_general ~awake_periods:awakes ~sim:streaming_sim ())
  in
  Format.printf "%a@.@."
    (Figures.pp_streaming_rows ~title:"Fig. 6: streaming general") fig6;
  Figures.pp_fig7 ~markov:fig3m ~general:fig3g Format.std_formatter ();
  Format.printf "@.@.";
  Figures.pp_fig8 ~markov:fig4 ~general:fig6 Format.std_formatter ();
  Format.printf "@.@.";
  (* Design-choice ablations (not figures of the paper; see DESIGN.md). *)
  timed "ablations" (fun () ->
      Format.printf "%a@.@." Figures.pp_policy_rows (Figures.ablation_rpc_policy ());
      Format.printf "%a@.@." Figures.pp_lumping_rows (Figures.ablation_lumping ());
      Format.printf "%a@.@." Figures.pp_family_rows
        (Figures.ablation_distribution_family
           ~sim:
             (if quick then
                { General.default_sim_params with runs = 5; duration = 8_000.0; warmup = 800.0 }
              else
                { General.default_sim_params with runs = 10; duration = 15_000.0; warmup = 1_500.0 })
           ()));
  (* Battery lifetime (the title's unit): see lib/models/battery.ml. *)
  let battery = Dpma_models.Battery.default_params in
  Format.printf
    "== Battery lifetime (capacity %d quanta, rpc appliance) ==@."
    battery.Dpma_models.Battery.capacity;
  Format.printf "%-9s | %-12s %-12s %s@." "timeout" "with DPM" "without" "extension";
  List.iter
    (fun (t, l) ->
      Format.printf "%-9.1f | %-12.2f %-12.2f %+.0f%%@." t
        l.Dpma_models.Battery.with_dpm l.Dpma_models.Battery.without_dpm
        (100.0 *. l.Dpma_models.Battery.extension))
    (timed "battery" (fun () ->
         Dpma_models.Battery.lifetime_sweep battery
           ~timeouts:(if quick then [ 1.0; 10.0 ] else [ 0.5; 1.0; 2.0; 5.0; 10.0; 25.0 ])));
  Format.printf "@.";
  (* Third case study: the disk-drive break-even sweep. *)
  Format.printf "== Disk drive: spin-down break-even (third case study) ==@.";
  Format.printf "%-16s | %-12s %-12s | %-8s %s@." "interarrival(s)" "e/req DPM"
    "e/req no" "drop DPM" "verdict";
  let disk_rows =
    timed "disk" (fun () ->
        Pool.parallel_map
          (fun inter ->
            let w, wo =
              Dpma_models.Disk.compare_dpm
                { Dpma_models.Disk.default_params with
                  Dpma_models.Disk.interarrival_mean = inter }
            in
            (inter, w, wo))
          (if quick then [ 2_000.0; 30_000.0 ]
           else [ 500.0; 2_000.0; 8_000.0; 15_000.0; 30_000.0; 120_000.0 ]))
  in
  List.iter
    (fun (inter, w, wo) ->
      Format.printf "%-16.1f | %-12.0f %-12.0f | %-8.4f %s@."
        (inter /. 1000.0) w.Dpma_models.Disk.energy_per_request
        wo.Dpma_models.Disk.energy_per_request w.Dpma_models.Disk.drop_ratio
        (if
           w.Dpma_models.Disk.energy_per_request
           < wo.Dpma_models.Disk.energy_per_request
         then "DPM wins"
         else "DPM counterproductive"))
    disk_rows;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)

open Bechamel
open Toolkit

let rpc_params = Rpc.default_params

let rpc_spec =
  lazy (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true rpc_params).Elaborate.spec

let rpc_lts = lazy (Lts.of_spec (Lazy.force rpc_spec))

let rpc_general =
  lazy
    (let el = Rpc.elaborate ~mode:Rpc.General ~monitors:true rpc_params in
     ( Lts.of_spec el.Elaborate.spec,
       General.timing_of_list el.Elaborate.general_timings ))

let paper_text = Format.asprintf "%a" Dpma_adl.Ast.pp (Rpc.simplified_archi ())

let micro_tests =
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* Core algorithm benches. *)
    t "adl/parse-rpc" (fun () -> ignore (Dpma_adl.Parser.parse paper_text));
    t "lts/build-rpc" (fun () -> ignore (Lts.of_spec (Lazy.force rpc_spec)));
    t "bisim/weak-equivalence-rpc" (fun () ->
        let lts = Lazy.force rpc_lts in
        let hidden, removed =
          NI.observed_pair lts
            ~high:(fun a -> List.exists (String.equal a) Rpc.high_actions)
            ~low:(fun a -> List.exists (String.equal a) Rpc.low_actions)
        in
        ignore (Bisim.weak_equivalent hidden removed));
    t "ctmc/solve-rpc" (fun () ->
        let c = Ctmc.of_lts (Lazy.force rpc_lts) in
        ignore (Ctmc.steady_state c));
    t "sim/run-rpc-1000ms" (fun () ->
        let lts, timing = Lazy.force rpc_general in
        ignore (Sim.run ~timing ~lts ~duration:1_000.0 ~estimands:[] (Prng.create 7)));
    (* One Test.make per figure driver (reduced sweeps). *)
    t "fig/sec3" (fun () -> ignore (Figures.sec3_noninterference ()));
    t "fig/fig3-markov-point" (fun () ->
        ignore (Figures.fig3_markov ~timeouts:[ 5.0 ] ()));
    t "fig/fig3-general-point" (fun () ->
        ignore
          (Figures.fig3_general ~timeouts:[ 5.0 ]
             ~sim:
               { General.default_sim_params with runs = 2; duration = 2_000.0; warmup = 200.0 }
             ()));
    t "fig/fig4-markov-point" (fun () ->
        ignore (Figures.fig4_markov ~awake_periods:[ 100.0 ] ()));
    t "fig/fig5-validation-point" (fun () ->
        ignore
          (Figures.fig5_validation ~timeouts:[ 5.0 ]
             ~sim:
               { General.default_sim_params with runs = 2; duration = 2_000.0; warmup = 200.0 }
             ()));
    t "fig/fig6-general-point" (fun () ->
        ignore
          (Figures.fig6_general ~awake_periods:[ 100.0 ]
             ~sim:
               { General.default_sim_params with runs = 1; duration = 5_000.0; warmup = 500.0 }
             ()));
  ]

(* Runs the micro suite, prints the table and returns
   [(name, ns_per_run, r_square)] rows for the JSON report. *)
let run_micro () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.5 else 1.5))
      ~kde:None ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"dpma" micro_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "== Bechamel micro-benchmarks (monotonic clock, OLS) ==@.";
  Format.printf "%-36s %14s %8s@." "benchmark" "time/run" "r^2";
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.map
    (fun (name, v) ->
      let estimate =
        match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square v) in
      let pretty =
        if estimate > 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      Format.printf "%-36s %14s %8.4f@." name pretty r2;
      (name, estimate, r2))
    rows

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let json_report ~jobs ~micro =
  let figs = List.rev !wall_clock in
  let total = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 figs in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"dpma.bench/1\",\n";
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  (* Perf-history record traveling with every report. On-the-fly weak
     saturation, measured on the 518218-state streaming_scaled study:
     `minimize --weak` never materializes the input's saturated
     relation. With the earlier lazy per-component closure caches it
     took 559 s on a 1-core host (136 s via the since-removed
     --saturate oracle) and held 38.6 MB of interned closures. The weak
     pass now sweeps the tau-SCC condensation once per refinement round
     into arenas reused across rounds: 274 s wall on a 2-vCPU host at
     the default job count, 38.6 MB of arenas
     (bisim.tau.closure_bytes_peak), of which the strong pre-reduction
     and the weak refinement take about 120 s each and the
     quotient-size saturation 1 s; outputs bit-identical. *)
  Buffer.add_string b
    "  \"notes\": \"weak pass sweeps the tau-SCC condensation once per \
     round (no closure cache): streaming_scaled (518218 states) minimize \
     --weak takes 274s on a 2-vCPU host at default jobs with 38.6 MB of \
     closure arenas and no materialized saturated relation (earlier \
     lazy caches: 559s on 1 core, 38.6 MB interned), outputs \
     bit-identical\",\n";
  Printf.bprintf b "  \"figures_wall_clock_s\": {\n";
  List.iter
    (fun (name, dt) ->
      Printf.bprintf b "    \"%s\": %s,\n" (json_escape name) (json_float dt))
    figs;
  Printf.bprintf b "    \"total\": %s\n  },\n" (json_float total);
  if !study_seconds <> [] then begin
    Printf.bprintf b "  \"study_seconds\": {";
    List.iteri
      (fun i (study, entries) ->
        Printf.bprintf b "%s\n    \"%s\": {" (if i = 0 then "" else ",")
          (json_escape study);
        List.iteri
          (fun j (k, v) ->
            Printf.bprintf b "%s \"%s\": %s" (if j = 0 then "" else ",")
              (json_escape k) (json_float v))
          entries;
        Printf.bprintf b " }")
      !study_seconds;
    Printf.bprintf b "\n  },\n"
  end;
  Printf.bprintf b "  \"micro_ns_per_run\": {";
  List.iteri
    (fun i (name, est, r2) ->
      Printf.bprintf b "%s\n    \"%s\": { \"estimate\": %s, \"r_square\": %s }"
        (if i = 0 then "" else ",")
        (json_escape name) (json_float est) (json_float r2))
    micro;
  Buffer.add_string b (if micro = [] then "},\n" else "\n  },\n");
  (* The same metric objects dpma --metrics=json emits; the names and
     units are the contract of docs/OBSERVABILITY.md. *)
  Printf.bprintf b "  \"metrics\": %s\n"
    (Dpma_obs.Json.to_string ~indent:2 (Dpma_obs.Metrics.to_json ()));
  Buffer.add_string b "}\n";
  Buffer.contents b

let () =
  (* In json mode stdout must carry nothing but the JSON document, so the
     figure tables (all printed through [Format.std_formatter]) move to
     stderr. *)
  if json_mode then Format.set_formatter_out_channel stderr;
  at_exit (fun () -> Dpma_obs.Report.emit stderr);
  Printf.eprintf "[bench] jobs = %d\n%!" (Pool.default_jobs ());
  (* A tripped --max-seconds/--max-mb guard degrades the run instead of
     crashing it: human rendering to stderr, the machine-readable
     dpma.degraded/1 verdict to stdout, exit 3 — the same contract as
     the dpma front end. *)
  try
    if tiny then figures_tiny () else figures ();
    if smoke then timed "study-timings" study_timings;
    if smoke then timed "family-sweep" family_sweep;
    if smoke then timed "family-scale" family_scale;
    timed "scaled-study" scaled_study;
    timed "adhoc-study" adhoc_study;
    let micro = if smoke then [] else run_micro () in
    if json_mode then begin
      let report = json_report ~jobs:(Pool.default_jobs ()) ~micro in
      let oc = open_out "BENCH_results.json" in
      output_string oc report;
      close_out oc;
      Printf.eprintf "[bench] wrote BENCH_results.json\n%!";
      print_string report;
      flush stdout
    end
  with Rguard.Resource_exceeded trip ->
    Format.eprintf "%a@." Rguard.pp_trip trip;
    print_endline (Rguard.verdict_line trip);
    exit 3
