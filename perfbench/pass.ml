(* One cold pass of one benchmark workload, in a process of its own.

   perfbench/run.py starts a fresh process for every pass, so no pass
   inherits the heap, the global hash-cons term table, the Rpc/Streaming
   elaboration memo or a live CSR of an earlier one: a dpma user pays
   the cold cost on every call, and so does the benchmark.

     pass.exe gen DIR
       Write the workloads' ADL inputs into DIR (generated from
       Streaming.scaled_archi and printed with Ast.pp).
     pass.exe run --workload W --inputs DIR --work DIR --spawn T
                  [--seed N] [--trace] [--j1-leg] [--setup-only]
       Run one pass and print one JSON object on stdout. T is the
       wall-clock time (Unix epoch seconds) at which the parent started
       this process; setup_s is measured from it.

   The timed section runs from the first layer call to the last output
   the workload produces; every correctness check runs after it. With
   --trace, spans are recorded around each public layer call (names
   prefixed "bench.") and the library's own spans are enabled too; they
   stay in memory and are folded into per-layer self times at the end. *)

module Ast = Dpma_adl.Ast
module Parser = Dpma_adl.Parser
module Elaborate = Dpma_adl.Elaborate
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module NI = Dpma_core.Noninterference
module General = Dpma_core.General
module Ctmc = Dpma_ctmc.Ctmc
module Measure = Dpma_measures.Measure
module Streaming = Dpma_models.Streaming
module Figures = Dpma_models.Figures
module Pool = Dpma_util.Pool
module Metrics = Dpma_obs.Metrics
module I = Dpma_obs.Instruments
module Trace = Dpma_obs.Trace
module Json = Dpma_obs.Json

let mib = 1024.0 *. 1024.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* The two generated models. [functional_check]: one station with its
   own radio channel and buffers 16/16 (41,639 states). [two_station_j2]:
   two stations, no radio channel, buffers 1/1 (170,732 states). *)
let scaled_params ~stations ~radio ~buffer =
  {
    Streaming.stations;
    radio_channel = radio;
    station =
      {
        Streaming.default_params with
        ap_buffer_size = buffer;
        client_buffer_size = buffer;
      };
  }

let generated =
  [
    ("functional_check", scaled_params ~stations:1 ~radio:true ~buffer:16);
    ("two_station_j2", scaled_params ~stations:2 ~radio:false ~buffer:1);
  ]

let gen dir =
  List.iter
    (fun (name, sp) ->
      let base = Filename.concat dir name in
      write_file (base ^ ".aem")
        (Format.asprintf "%a@." Ast.pp (Streaming.scaled_archi sp));
      write_file (base ^ ".high")
        (String.concat "\n" (Streaming.scaled_high_actions sp) ^ "\n");
      write_file (base ^ ".low")
        (String.concat "\n" (Streaming.scaled_low_actions sp) ^ "\n"))
    generated

(* ------------------------------------------------------------------ *)
(* Timing, spans and metric deltas                                     *)

let traced = ref false

(* A public layer call. Its key names the per-layer metric its whole
   duration is billed to (library spans inside it fold into it). *)
let layer key f =
  if !traced then Trace.with_span ("bench." ^ key) f else f ()

(* A transparent wrapper (the figure drivers, which make their layer
   calls inside lib/models): the library spans inside it are billed by
   [library_key] below. *)
let group name f =
  if !traced then Trace.with_span ("bench.group." ^ name) f else f ()

(* Library span name -> per-layer metric, for spans under a group. *)
let library_key = function
  | "adl.parse" -> Some "adl.parse_s"
  | "adl.elaborate" -> Some "adl.elaborate_s"
  | "lts.build" -> Some "lts.build_s"
  | "family.build" -> Some "flts.build_s"
  | "family.project" -> Some "flts.project_s"
  | "bisim.product" -> Some "ni.check_s"
  | "ctmc.build" -> Some "ctmc.build_s"
  | "ctmc.solve" -> Some "ctmc.solve_s"
  | "markov.analyze" -> Some "measures.eval_s"
  | "sim.replicate" -> Some "sim.replicate_s"
  | _ -> None

let span_keys =
  [
    "adl.parse_s"; "adl.elaborate_s"; "lts.build_s"; "flts.build_s";
    "flts.project_s"; "bisim.strong_s"; "bisim.weak_s"; "bisim.markovian_s";
    "ni.check_s"; "ctmc.build_s"; "ctmc.solve_s"; "measures.eval_s";
    "sim.replicate_s";
  ]

let strip p s = String.sub s (String.length p) (String.length s - String.length p)

(* Self time per key. Benchmark layer spans are opaque; group spans and
   the library spans under them bill their self time (duration minus
   children) to their own key, or to the enclosing key when they have
   none. Roots not opened by the benchmark (pool worker domains) overlap
   the coordinator's spans in time and are ignored. *)
let layer_times () =
  let tbl = Hashtbl.create 16 in
  let bill key dt =
    match key with
    | None -> ()
    | Some k ->
        Hashtbl.replace tbl k (dt +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let rec walk inherited (s : Trace.span) =
    let key =
      match library_key s.Trace.name with Some k -> Some k | None -> inherited
    in
    let covered =
      List.fold_left (fun acc (c : Trace.span) -> acc +. c.Trace.dur_s) 0.0 s.Trace.children
    in
    bill key (s.Trace.dur_s -. covered);
    List.iter (walk key) s.Trace.children
  in
  List.iter
    (fun (s : Trace.span) ->
      if String.starts_with ~prefix:"bench.group." s.Trace.name then
        List.iter (walk None) s.Trace.children
      else if String.starts_with ~prefix:"bench." s.Trace.name then
        bill (Some (strip "bench." s.Trace.name)) s.Trace.dur_s)
    (Trace.roots ());
  tbl

type clock = { wall : float; cpu : float }

let clock () =
  let t = Unix.times () in
  { wall = Unix.gettimeofday (); cpu = t.Unix.tms_utime +. t.Unix.tms_stime }

(* Peak resident set size of this process, in MiB (VmHWM). *)
let peak_rss_mb () =
  let status = String.split_on_char '\n' (read_file "/proc/self/status") in
  let line = List.find_opt (String.starts_with ~prefix:"VmHWM:") status in
  match line with
  | None -> nan
  | Some l -> Scanf.sscanf l "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.0)

(* Counter and histogram values at the start of the timed section, so
   that the pass reports deltas. *)
let counters =
  [
    I.sos_memo_hits; I.sos_memo_misses; I.lts_states; I.lts_spill_bytes;
    I.bisim_rounds; I.bisim_tau_cache_hits; I.bisim_tau_cache_misses;
    I.bisim_par_seq_fallbacks; I.ni_product_rounds; I.ni_product_pruned;
    I.ctmc_solve_iterations; I.sim_events;
  ]

let histograms = [ I.lts_csr_pack_seconds; I.lts_par_merge_seconds; I.lts_spill_write_seconds ]

(* Instruments are mutable records, so they are looked up by identity. *)
let base_counts = ref []

let base_sums = ref []

let mark_metrics () =
  base_counts := List.map (fun c -> (c, Metrics.count c)) counters;
  base_sums := List.map (fun h -> (h, (Metrics.stats h).Metrics.hist_sum)) histograms

let dcount c = float_of_int (Metrics.count c - List.assq c !base_counts)

let dsum h = (Metrics.stats h).Metrics.hist_sum -. List.assq h !base_sums

let gauge g =
  let v = Metrics.value g in
  if Float.is_nan v then 0.0 else v

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type outcome = {
  checks : (string * bool) list;
  extra : (string * float) list;  (** workload-specific per-layer figures *)
}

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

let is_secure = function NI.Secure -> true | NI.Insecure _ -> false

let predicate actions =
  let tbl = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace tbl a ()) actions;
  Hashtbl.mem tbl

let value values name = Option.value ~default:nan (List.assoc_opt name values)

(* Station 1 and station 2 of the symmetric two-station model. *)
let twins_agree values =
  List.for_all
    (fun m -> rel_close ~tol:1e-9 (value values (m ^ "_1")) (value values (m ^ "_2")))
    [ "miss"; "doze"; "frames" ]

let max_states = 1_000_000

(* Each workload takes [start], which it calls right before its first
   layer call and which returns the function that closes the timed
   section. *)

let paper_figures ~seed ~start =
  Pool.set_default_jobs 1;
  let rpc_sim =
    { General.default_sim_params with runs = 10; duration = 10_000.0; warmup = 1_000.0; seed }
  in
  let streaming_sim =
    { General.default_sim_params with runs = 5; duration = 60_000.0; warmup = 3_000.0; seed }
  in
  let timeouts = [ 0.5; 2.0; 5.0; 10.0; 12.5; 25.0 ] in
  let awake_periods = [ 1.0; 50.0; 100.0; 400.0; 800.0 ] in
  let stop = start () in
  let sec3 = group "sec3" (fun () -> Figures.sec3_noninterference ~jobs:1 ()) in
  let fig3m = group "fig3_markov" (fun () -> Figures.fig3_markov ~jobs:1 ~timeouts ()) in
  let fig3g =
    group "fig3_general" (fun () -> Figures.fig3_general ~jobs:1 ~timeouts ~sim:rpc_sim ())
  in
  let fig5 = group "fig5" (fun () -> Figures.fig5_validation ~jobs:1 ~sim:rpc_sim ()) in
  let fig4 = group "fig4" (fun () -> Figures.fig4_markov ~jobs:1 ~awake_periods ()) in
  let fig6 =
    group "fig6_general" (fun () ->
        Figures.fig6_general ~jobs:1 ~awake_periods ~sim:streaming_sim ())
  in
  let text =
    group "render" (fun () ->
        Format.asprintf "%a@.%a@.%a@.%a@.%a@.%a@." Figures.pp_sec3 sec3
          (Figures.pp_rpc_rows ~title:"Fig. 3 (left): rpc Markovian") fig3m
          (Figures.pp_rpc_rows ~title:"Fig. 3 (right): rpc general") fig3g
          Figures.pp_validation_rows fig5
          (Figures.pp_streaming_rows ~title:"Fig. 4: streaming Markovian") fig4
          (Figures.pp_streaming_rows ~title:"Fig. 6: streaming general") fig6)
  in
  stop ();
  let finite_rpc (m : Dpma_models.Rpc.metrics) =
    Float.is_finite m.Dpma_models.Rpc.throughput && Float.is_finite m.Dpma_models.Rpc.energy_rate
  in
  let finite_streaming (m : Streaming.metrics) =
    Float.is_finite m.Streaming.miss && Float.is_finite m.Streaming.energy_per_frame
  in
  let rpc_rows_ok rows =
    List.length rows = List.length timeouts
    && List.for_all
         (fun (r : Figures.rpc_row) ->
           finite_rpc r.Figures.with_dpm && finite_rpc r.Figures.without_dpm)
         rows
  in
  let streaming_rows_ok rows =
    List.length rows = List.length awake_periods
    && List.for_all
         (fun (r : Figures.streaming_row) ->
           finite_streaming r.Figures.s_with_dpm && finite_streaming r.Figures.s_without_dpm)
         rows
  in
  (* Each Fig. 5 row ends in its verdict column: "yes" or "NO". *)
  let consistent_lines =
    List.length
      (List.filter
         (fun l -> String.ends_with ~suffix:"| yes" (String.trim l))
         (String.split_on_char '\n' text))
  in
  {
    checks =
      [
        ("sec3 simplified rpc INSECURE", not (is_secure sec3.Figures.simplified_rpc));
        ("sec3 revised rpc SECURE", is_secure sec3.Figures.revised_rpc);
        ("sec3 streaming SECURE", is_secure sec3.Figures.streaming);
        ("fig3 markov rows", rpc_rows_ok fig3m);
        ("fig3 general rows", rpc_rows_ok fig3g);
        ("fig4 rows", streaming_rows_ok fig4);
        ("fig6 rows", streaming_rows_ok fig6);
        ("every fig5 line consistent", fig5 <> [] && consistent_lines = List.length fig5);
      ];
    extra = [];
  }

let functional_check ~inputs ~start =
  let base = Filename.concat inputs "functional_check" in
  let text = read_file (base ^ ".aem") in
  let high = predicate (read_lines (base ^ ".high")) in
  let low = predicate (read_lines (base ^ ".low")) in
  let stop = start () in
  let archi = layer "adl.parse_s" (fun () -> Parser.parse text) in
  let el = layer "adl.elaborate_s" (fun () -> Elaborate.elaborate archi) in
  let lts, _ =
    layer "lts.build_s" (fun () -> Lts.build ~max_states ~jobs:1 el.Elaborate.spec)
  in
  let verdict = layer "ni.check_s" (fun () -> NI.check_lts ~jobs:1 lts ~high ~low) in
  let strong = layer "bisim.strong_s" (fun () -> Bisim.minimize_strong ~jobs:1 lts) in
  let weak = layer "bisim.weak_s" (fun () -> Bisim.minimize_weak ~jobs:1 lts) in
  stop ();
  let states = lts.Lts.num_states and trans = Lts.num_transitions lts in
  let sb = strong.Lts.num_states and wb = weak.Lts.num_states in
  {
    checks =
      [
        ("41639 states", states = 41_639);
        ("163875 transitions", trans = 163_875);
        ("verdict SECURE", is_secure verdict);
        ("weak blocks <= strong blocks <= states", wb <= sb && sb <= states);
        (* Coarsest partitions are unique, so their sizes are fixed. *)
        ("strong blocks 40878", sb = 40_878);
        ("weak blocks 40878", wb = 40_878);
      ];
    extra =
      [
        ( "bisim.weak_quotient_edge_ratio",
          ratio (float_of_int (Lts.num_transitions weak)) (float_of_int trans) );
      ];
  }

(* Measures shared by the two two-station workloads: per-station miss,
   doze (shutdown) and frame rates. *)
let stations_measures inputs = read_file (Filename.concat inputs "stations.measures")

(* CTMC of an LTS, its steady state and the measures' values. *)
let solve lts measures =
  let ctmc = layer "ctmc.build_s" (fun () -> Ctmc.of_lts lts) in
  let pi = layer "ctmc.solve_s" (fun () -> Ctmc.steady_state ctmc) in
  let values =
    layer "measures.eval_s" (fun () ->
        List.map (fun m -> (m.Measure.name, Measure.eval_ctmc ctmc pi m)) measures)
  in
  (ctmc.Ctmc.n, values)

let residual_tolerance = 1e-9

let scaled_solve ~inputs ~model ~start =
  let text = read_file model in
  let measures_text = stations_measures inputs in
  let stop = start () in
  let archi = layer "adl.parse_s" (fun () -> Parser.parse text) in
  let el = layer "adl.elaborate_s" (fun () -> Elaborate.elaborate archi) in
  let measures = layer "measures.eval_s" (fun () -> Measure.parse measures_text) in
  let lts, _ =
    layer "lts.build_s" (fun () -> Lts.build ~max_states ~jobs:1 el.Elaborate.spec)
  in
  let states = lts.Lts.num_states in
  let tangible, values = solve lts measures in
  stop ();
  let residual = Metrics.value I.ctmc_solve_residual in
  {
    checks =
      [
        ("518218 states", states = 518_218);
        ("10840 tangible states", tangible = 10_840);
        ("solve residual below tolerance", residual < residual_tolerance);
        ("station twins agree", twins_agree values);
        ("miss rate 0.00860257", rel_close ~tol:1e-6 (value values "miss_1") 0.00860257);
      ];
    extra = [];
  }

(* CSR digest of the two-station model built at one job without spill,
   pinned at the commit that introduced this benchmark: the j2 spilled
   build must produce the bit-identical CSR. *)
let two_station_digest = 208526025467270851

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
  Array.iter (fun v -> mix (Int64.to_int (Int64.bits_of_float v))) lts.Lts.rate_val;
  !h

let resident_budget = 16 * 1024 * 1024

(* [jobs] is 2 for the workload itself; the traced run repeats build, NI
   check and Markovian partition at 1 job for the j2/j1 ratios. *)
let two_station ~inputs ~work ~jobs ~start =
  let base = Filename.concat inputs "two_station_j2" in
  let text = read_file (base ^ ".aem") in
  let high = predicate (read_lines (base ^ ".high")) in
  let low = predicate (read_lines (base ^ ".low")) in
  let measures_text = stations_measures inputs in
  let spill_dir = Filename.concat work "spill" in
  Sys.mkdir spill_dir 0o755;
  let stop = start () in
  let archi = layer "adl.parse_s" (fun () -> Parser.parse text) in
  let el = layer "adl.elaborate_s" (fun () -> Elaborate.elaborate archi) in
  let measures = layer "measures.eval_s" (fun () -> Measure.parse measures_text) in
  let lts, st =
    layer "lts.build_s" (fun () ->
        Lts.build ~max_states ~jobs ~spill_dir ~max_resident_bytes:resident_budget
          el.Elaborate.spec)
  in
  let verdict = layer "ni.check_s" (fun () -> NI.check_lts ~jobs lts ~high ~low) in
  let lumped =
    layer "bisim.markovian_s" (fun () ->
        Lts.quotient_by_representative lts (Bisim.markovian_partition ~jobs lts))
  in
  let values = if jobs = 1 then None else Some (snd (solve lumped measures)) in
  stop ();
  let leftovers = Sys.readdir spill_dir in
  let common =
    [
      ("170732 states", lts.Lts.num_states = 170_732);
      ("verdict SECURE", is_secure verdict);
      ("CSR digest equals the pinned j1 digest", csr_digest lts = two_station_digest);
      ("spill fired", st.Lts.spilled_segments > 0);
      ("no spill file left", leftovers = [||]);
    ]
  in
  let twins =
    match values with
    | None -> []
    | Some values -> [ ("station twins agree", twins_agree values) ]
  in
  { checks = common @ twins; extra = [] }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let per_layer ~wall ~extra =
  let times = layer_times () in
  let t k = Option.value ~default:0.0 (Hashtbl.find_opt times k) in
  let attributed = List.fold_left (fun acc k -> acc +. t k) 0.0 span_keys in
  let hits = dcount I.sos_memo_hits and misses = dcount I.sos_memo_misses in
  let thits = dcount I.bisim_tau_cache_hits and tmisses = dcount I.bisim_tau_cache_misses in
  let events = dcount I.sim_events in
  let x k = Option.value ~default:0.0 (List.assoc_opt k extra) in
  List.map (fun k -> (k, t k)) span_keys
  @ [
      ("unattributed_s", wall -. attributed);
      ("lts.states_per_s", ratio (dcount I.lts_states) (t "lts.build_s"));
      ("lts.csr_pack_s", dsum I.lts_csr_pack_seconds);
      ("lts.merge_s", dsum I.lts_par_merge_seconds);
      ("pa.sos_memo_hit_ratio", ratio hits (hits +. misses));
      ("pa.terms", gauge I.pa_terms);
      ("lts.segment_peak_mb", gauge I.lts_par_segment_bytes /. mib);
      ("lts.spill_mb", dcount I.lts_spill_bytes /. mib);
      ("lts.spill_write_s", dsum I.lts_spill_write_seconds);
      ("bisim.refine_rounds", dcount I.bisim_rounds);
      ("bisim.tau_cache_hit_ratio", ratio thits (thits +. tmisses));
      ("bisim.weak_quotient_edge_ratio", x "bisim.weak_quotient_edge_ratio");
      ("bisim.par_seq_fallbacks", dcount I.bisim_par_seq_fallbacks);
      ("ni.product_rounds", dcount I.ni_product_rounds);
      ("ni.states_pruned", dcount I.ni_product_pruned);
      ("ctmc.solve_iterations", dcount I.ctmc_solve_iterations);
      ("ctmc.solve_residual", gauge I.ctmc_solve_residual);
      ("sim.events", events);
      ("sim.events_per_s", ratio events (t "sim.replicate_s"));
      ("pool.utilization", gauge I.pool_utilization);
    ]

let usage () =
  prerr_endline
    "usage: pass.exe gen DIR\n\
    \       pass.exe run --workload W --inputs DIR --work DIR --spawn T [--seed N] \
     [--trace] [--j1-leg] [--setup-only]";
  exit 2

let run args =
  let workload = ref "" and inputs = ref "" and work = ref "" and spawn = ref nan in
  let seed = ref 42 and j1_leg = ref false and setup_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--inputs" :: v :: r -> inputs := v; parse r
    | "--work" :: v :: r -> work := v; parse r
    | "--spawn" :: v :: r -> spawn := float_of_string v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--trace" :: r -> traced := true; parse r
    | "--j1-leg" :: r -> j1_leg := true; parse r
    | "--setup-only" :: r -> setup_only := true; parse r
    | _ -> usage ()
  in
  parse args;
  if !inputs = "" || !work = "" || Float.is_nan !spawn then usage ();
  let first = ref None and last = ref None in
  (* Opens the timed section; the returned function closes it. With
     --setup-only the pass ends here, having measured set-up alone. *)
  let start () =
    let c = clock () in
    first := Some c;
    if !setup_only then begin
      print_endline
        (Json.to_string (Json.Obj [ ("setup_s", Json.Num (c.wall -. !spawn)) ]));
      exit 0
    end;
    mark_metrics ();
    if !traced then Trace.set_enabled true;
    fun () ->
      last := Some (clock ());
      Trace.set_enabled false
  in
  let inputs = !inputs and work = !work in
  let outcome =
    match !workload with
    | "paper_figures" -> paper_figures ~seed:!seed ~start
    | "functional_check" -> functional_check ~inputs ~start
    | "scaled_solve" ->
        scaled_solve ~inputs ~model:"examples/specs/streaming_scaled.aem" ~start
    | "two_station_j2" ->
        two_station ~inputs ~work ~jobs:(if !j1_leg then 1 else 2) ~start
    | w ->
        Printf.eprintf "unknown workload %s\n" w;
        exit 2
  in
  let peak = peak_rss_mb () in
  match (!first, !last) with
  | Some a, Some b ->
      let wall = b.wall -. a.wall in
      let failures = List.filter_map (fun (n, ok) -> if ok then None else Some n) outcome.checks in
      let layers = if !traced then per_layer ~wall ~extra:outcome.extra else [] in
      let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("setup_s", Json.Num (a.wall -. !spawn));
                ("wall_s", Json.Num wall);
                ("cpu_s", Json.Num (b.cpu -. a.cpu));
                ("peak_rss_mb", Json.Num peak);
                ("attempted", Json.num_of_int (List.length outcome.checks));
                ("failed", Json.num_of_int (List.length failures));
                ("failures", Json.List (List.map (fun s -> Json.Str s) failures));
                ("layers", num_obj layers);
              ]))
  | _ ->
      prerr_endline "pass: the timed section was not closed";
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; dir ] -> gen dir
  | "run" :: args -> run args
  | _ -> usage ()
