(* End-to-end test of the incremental methodology (paper Fig. 1) on the
   rpc case study, plus the General-phase helpers. *)

module Pipeline = Dpma_core.Pipeline
module General = Dpma_core.General
module Markov = Dpma_core.Markov
module NI = Dpma_core.Noninterference
module Rpc = Dpma_models.Rpc
module Stats = Dpma_util.Stats
module Lts = Dpma_lts.Lts
module Metrics = Dpma_obs.Metrics
module Instruments = Dpma_obs.Instruments

let fast_sim =
  { General.default_sim_params with runs = 5; duration = 8_000.0; warmup = 800.0 }

let report =
  lazy
    (Pipeline.assess ~sim_params:fast_sim
       (Rpc.study ~mode:Rpc.General Rpc.default_params))

let test_phase1_secure () =
  match (Lazy.force report).Pipeline.verdict with
  | NI.Secure -> ()
  | NI.Insecure _ -> Alcotest.fail "revised rpc study must be secure"

let test_phase2_comparison () =
  let r = Lazy.force report in
  let thr_with = Markov.value r.Pipeline.markovian_with_dpm "throughput" in
  let thr_without = Markov.value r.Pipeline.markovian_without_dpm "throughput" in
  Alcotest.(check bool) "DPM costs throughput" true (thr_with < thr_without);
  let e_with = Markov.value r.Pipeline.markovian_with_dpm "energy" in
  let e_without = Markov.value r.Pipeline.markovian_without_dpm "energy" in
  Alcotest.(check bool) "DPM saves energy rate" true (e_with < e_without)

let test_phase3_validation () =
  let r = Lazy.force report in
  Alcotest.(check bool) "validation consistent" true
    r.Pipeline.validation.General.consistent

let test_phase3_estimates_present () =
  let r = Lazy.force report in
  Alcotest.(check int) "with-DPM estimates" 3 (List.length r.Pipeline.general_with_dpm);
  Alcotest.(check int) "without-DPM estimates" 3
    (List.length r.Pipeline.general_without_dpm);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "finite estimate for %s" e.General.measure)
        true
        (Float.is_finite e.General.summary.Stats.mean))
    (r.Pipeline.general_with_dpm @ r.Pipeline.general_without_dpm)

let test_report_rendering () =
  let s = Format.asprintf "%a" Pipeline.pp_report (Lazy.force report) in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "phase 1 present" true (has "Phase 1");
  Alcotest.(check bool) "phase 2 present" true (has "Phase 2");
  Alcotest.(check bool) "validation present" true (has "validation")

let test_timing_of_list_lookup () =
  let timing =
    General.timing_of_list [ ("x", Dpma_dist.Dist.Deterministic 2.0) ]
  in
  (match timing "x" with
  | Some (Dpma_sim.Sim.Timed (Dpma_dist.Dist.Deterministic c)) ->
      Alcotest.(check (float 0.0)) "found" 2.0 c
  | _ -> Alcotest.fail "expected deterministic timing");
  Alcotest.(check bool) "missing is None" true (timing "y" = None)

let test_default_sim_params_match_paper () =
  (* 30 replications and 90% confidence, as used for the paper's Fig. 5. *)
  Alcotest.(check int) "30 runs" 30 General.default_sim_params.General.runs;
  Alcotest.(check (float 0.0)) "90% confidence" 0.90
    General.default_sim_params.General.confidence

let suite =
  [
    Alcotest.test_case "phase 1 secure" `Slow test_phase1_secure;
    Alcotest.test_case "phase 2 comparison" `Slow test_phase2_comparison;
    Alcotest.test_case "phase 3 validation" `Slow test_phase3_validation;
    Alcotest.test_case "phase 3 estimates" `Slow test_phase3_estimates_present;
    Alcotest.test_case "report rendering" `Slow test_report_rendering;
    Alcotest.test_case "timing_of_list" `Quick test_timing_of_list_lookup;
    Alcotest.test_case "default sim params" `Quick test_default_sim_params_match_paper;
  ]

let test_hierarchy_fields () =
  let r = Lazy.force report in
  Alcotest.(check bool) "SNNI secure" true r.Pipeline.trace_secure;
  Alcotest.(check bool) "branching secure" true r.Pipeline.branching_secure;
  let s = Format.asprintf "%a" Pipeline.pp_report r in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "hierarchy line rendered" true (has "Focardi-Gorrieri")

let hierarchy_suite =
  [ Alcotest.test_case "hierarchy fields" `Slow test_hierarchy_fields ]

let suite = suite @ hierarchy_suite

(* Without a separate functional model, [assess] builds the LTS once and
   runs every phase on it. Its report must equal one assembled from the
   phases run on their own, each building its own LTS. *)
let test_single_build () =
  let study =
    { (Rpc.study ~mode:Rpc.General Rpc.default_params) with
      Pipeline.functional_spec = None }
  in
  let builds0 = Metrics.count Instruments.lts_builds in
  let report = Pipeline.assess ~sim_params:fast_sim study in
  Alcotest.(check int) "one LTS build" 1
    (Metrics.count Instruments.lts_builds - builds0);
  let spec = study.Pipeline.spec
  and high = study.Pipeline.high
  and low = study.Pipeline.low
  and measures = study.Pipeline.measures in
  let lts = Lts.of_spec spec in
  let without = Markov.without_dpm lts ~high in
  let timing = General.timing_of_list study.Pipeline.general_timings in
  let reference =
    {
      Pipeline.verdict = NI.check_spec spec ~high ~low;
      trace_secure = NI.trace_secure_spec spec ~high ~low;
      branching_secure = NI.branching_secure_spec spec ~high ~low;
      markovian_with_dpm = Markov.analyze_lts lts measures;
      markovian_without_dpm = Markov.analyze_lts without measures;
      validation = General.validate lts ~timing ~measures fast_sim;
      general_with_dpm = General.simulate lts ~timing ~measures fast_sim;
      general_without_dpm = General.simulate without ~timing ~measures fast_sim;
    }
  in
  Alcotest.(check string) "report"
    (Format.asprintf "%a" Pipeline.pp_report reference)
    (Format.asprintf "%a" Pipeline.pp_report report)

let suite =
  suite
  @ [ Alcotest.test_case "one build without a functional model" `Slow
        test_single_build ]
