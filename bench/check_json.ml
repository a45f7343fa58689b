(* Contract check for the bench JSON report: runs as part of @runtest via
   the rule in bench/dune. Reads a dpma.bench/1 document on stdin (the
   stdout of `main.exe tiny json`) and verifies that it parses and that
   the metrics array carries the headline instruments promised by
   docs/OBSERVABILITY.md. Exits non-zero with a diagnostic otherwise. *)

module Json = Dpma_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check_json: " ^ s); exit 1) fmt

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 4096
     done
   with End_of_file -> ());
  Buffer.contents b

(* Metric names that every pipeline run must populate. *)
let required =
  [
    "pa.terms";
    "pa.labels";
    "sos.memo.hits";
    "sos.memo.misses";
    "lts.states";
    "lts.transitions";
    "lts.par.rounds";
    "lts.par.frontier";
    "lts.par.derives_per_worker";
    "lts.par.merge.seconds";
    "lts.par.segments";
    "lts.par.segment_bytes_peak";
    "lts.spill.segments";
    "lts.spill.bytes";
    "lts.spill.write_seconds";
    "guard.polls";
    "guard.trips";
    "bisim.refine.rounds";
    "bisim.tau.components";
    "bisim.tau.cache_hits";
    "bisim.tau.cache_misses";
    "bisim.tau.closure_bytes_peak";
    "ni.product.states_pruned";
    "ni.product.rounds";
    "ni.product.secure_exits";
    "family.guard_words";
    "family.distinct_quotients";
    "family.solves_shared";
    "ctmc.states";
    "ctmc.solve.iterations";
    "ctmc.solve.residual";
    "sim.events";
    "sim.events_per_sec";
  ]

let () =
  let doc =
    match Json.parse (read_all stdin) with
    | Ok doc -> doc
    | Error msg -> fail "report does not parse: %s" msg
  in
  (match Json.member "schema" doc with
  | Some (Json.Str "dpma.bench/1") -> ()
  | Some j -> fail "unexpected schema %s" (Json.to_string j)
  | None -> fail "missing \"schema\" field");
  (* The job count the run was executed with (Pool.default_jobs) is part
     of the report metadata: scaling claims are meaningless without it. *)
  (match Json.member "jobs" doc with
  | Some (Json.Num v) when v >= 1.0 -> ()
  | Some j -> fail "\"jobs\" should be a positive number, got %s" (Json.to_string j)
  | None -> fail "missing \"jobs\" field");
  (* The perf-history note (before/after numbers for the monomorphic
     hash-table switch) travels with every report. *)
  (match Json.member "notes" doc with
  | Some (Json.Str s) when String.length s > 0 -> ()
  | Some j -> fail "\"notes\" should be a non-empty string, got %s" (Json.to_string j)
  | None -> fail "missing \"notes\" field");
  (match Json.member "figures_wall_clock_s" doc with
  | Some (Json.Obj _) -> ()
  | _ -> fail "missing \"figures_wall_clock_s\" object");
  (* Tiny runs time the two paper studies through the compiled core; both
     phases must be present and positive for both studies. *)
  (match Json.member "study_seconds" doc with
  | Some (Json.Obj _ as studies) ->
      List.iter
        (fun study ->
          match Json.member study studies with
          | Some (Json.Obj _ as entry) ->
              List.iter
                (fun phase ->
                  match Json.member phase entry with
                  | Some (Json.Num v) when v > 0.0 -> ()
                  | Some j ->
                      fail "study_seconds.%s.%s should be positive, got %s"
                        study phase (Json.to_string j)
                  | None -> fail "study_seconds.%s misses %s" study phase)
                [ "lts.build_seconds"; "lts.build_seconds.j1";
                  "lts.build_seconds.j2"; "lts.build_seconds.j4";
                  "bisim.refine_seconds"; "bisim.refine_seconds.j1";
                  "bisim.refine_seconds.j2"; "bisim.refine_seconds.j4";
                  (* the Markovian leg of the same sweep *)
                  "bisim.markovian_refine_seconds.j1";
                  "bisim.markovian_refine_seconds.j2";
                  "bisim.markovian_refine_seconds.j4";
                  (* the branching leg, gated against its j1 run *)
                  "bisim.branching_refine_seconds.j1";
                  "bisim.branching_refine_seconds.j2";
                  "bisim.branching_refine_seconds.j4";
                  (* the lazy weak sweep (legs checked bit-identical
                     across job counts by the bench itself) *)
                  "bisim.weak_refine_seconds.j1";
                  "bisim.weak_refine_seconds.j2";
                  "bisim.weak_refine_seconds.j4";
                  "ni.check_seconds" ]
          | _ -> fail "study_seconds misses study %s" study)
        [ "rpc"; "streaming" ];
      (* The N-station scaling model: built at 1/2/4 jobs through the
         segment store, reporting its size and peak segment memory. *)
      (match Json.member "streaming_scaled" studies with
      | Some (Json.Obj _ as entry) ->
          List.iter
            (fun key ->
              match Json.member key entry with
              | Some (Json.Num v) when v > 0.0 -> ()
              | Some j ->
                  fail "study_seconds.streaming_scaled.%s should be positive, \
                        got %s"
                    key (Json.to_string j)
              | None -> fail "study_seconds.streaming_scaled misses %s" key)
            [ "lts.build_seconds"; "lts.build_seconds.j1";
              "lts.build_seconds.j2"; "lts.build_seconds.j4";
              (* the refinement sweeps run in tiny mode (smoke skips them
                 on the full-size model to stay inside the timeout) *)
              "bisim.refine_seconds.j1"; "bisim.refine_seconds.j2";
              "bisim.refine_seconds.j4";
              "bisim.markovian_refine_seconds.j1";
              "bisim.markovian_refine_seconds.j2";
              "bisim.markovian_refine_seconds.j4";
              "bisim.branching_refine_seconds.j1";
              "bisim.branching_refine_seconds.j2";
              "bisim.branching_refine_seconds.j4";
              "bisim.weak_refine_seconds.j1"; "bisim.weak_refine_seconds.j2";
              "bisim.weak_refine_seconds.j4";
              (* closure-arena high-water mark of the weak sweep: the
                 weak pass must report its memory footprint *)
              "bisim.tau.closure_bytes_peak"; "lts.states";
              "lts.transitions"; "lts.segment_bytes_peak";
              (* the forced-spill differential leg: bit-identical CSR,
                 and it must actually have spilled *)
              "lts.spill.segments"; "lts.spill.bytes";
              "lts.spill.build_seconds" ]
      | _ -> fail "study_seconds misses study streaming_scaled");
      (* The N-node ad hoc network chain: built under a resident segment
         budget through the spill path, with a deliberately tripped
         wall-clock guard leg. *)
      (match Json.member "adhoc_net" studies with
      | Some (Json.Obj _ as entry) ->
          List.iter
            (fun key ->
              match Json.member key entry with
              | Some (Json.Num v) when v > 0.0 -> ()
              | Some j ->
                  fail "study_seconds.adhoc_net.%s should be positive, got %s"
                    key (Json.to_string j)
              | None -> fail "study_seconds.adhoc_net misses %s" key)
            [ "lts.build_seconds"; "lts.states"; "lts.transitions";
              "lts.segment_bytes_peak"; "lts.spill.segments";
              "lts.spill.bytes"; "guard.trips" ]
      | _ -> fail "study_seconds misses study adhoc_net");
      (* The featured-family sweep: one shared build plus four
         per-configuration projections of the streaming awake-period
         family, raced against four independent pipelines. The bench
         itself aborts unless the featured leg wins, so a speedup key
         <= 1 can never reach this check — here we only require the
         keys to be present and positive. *)
      (match Json.member "streaming_family" studies with
      | Some (Json.Obj _ as entry) ->
          List.iter
            (fun key ->
              match Json.member key entry with
              | Some (Json.Num v) when v > 0.0 -> ()
              | Some j ->
                  fail "study_seconds.streaming_family.%s should be \
                        positive, got %s"
                    key (Json.to_string j)
              | None -> fail "study_seconds.streaming_family misses %s" key)
            [ "family.configs"; "family.states"; "family.sharing_ratio";
              "family.build_seconds"; "family.project_seconds";
              "family.project_seconds.c0"; "family.project_seconds.c1";
              "family.project_seconds.c2"; "family.project_seconds.c3";
              "baseline.build_seconds"; "family.speedup" ]
      | _ -> fail "study_seconds misses study streaming_family");
      (* The thousand-configuration grid: featured build + projections +
         quotient-deduplicated solves raced against the per-member
         pipeline. The bench aborts on any value mismatch; here the
         contract is the keys, genuine solve sharing (strictly fewer
         distinct quotients than members), and the >= 2x speedup the
         acceptance bar demands (the bench's own abort threshold). *)
      (match Json.member "family_scale" studies with
      | Some (Json.Obj _ as entry) ->
          let num key =
            match Json.member key entry with
            | Some (Json.Num v) -> v
            | Some j ->
                fail "study_seconds.family_scale.%s should be a number, \
                      got %s"
                  key (Json.to_string j)
            | None -> fail "study_seconds.family_scale misses %s" key
          in
          List.iter
            (fun key ->
              if num key <= 0.0 then
                fail "study_seconds.family_scale.%s should be positive" key)
            [ "family.configs"; "family.states"; "family.distinct_quotients";
              "family.solves_shared"; "family.guard_words";
              "family.build_seconds"; "family.project_seconds";
              "family.analyze_seconds"; "baseline.analyze_seconds";
              "family.speedup" ];
          if num "family.distinct_quotients" >= num "family.configs" then
            fail
              "family_scale: %g distinct quotients for %g members (no \
               solve sharing)"
              (num "family.distinct_quotients")
              (num "family.configs");
          if num "family.speedup" < 2.0 then
            fail "family_scale: speedup %g, want >= 2" (num "family.speedup")
      | _ -> fail "study_seconds misses study family_scale");
      (* The streaming DPM-removed side strands unreachable states, so the
         product refiner's reachability pruning must have fired there. *)
      (match Json.member "streaming" studies with
      | Some entry -> (
          match Json.member "ni.states_pruned" entry with
          | Some (Json.Num v) when v > 0.0 -> ()
          | Some j ->
              fail "study_seconds.streaming.ni.states_pruned should be > 0, \
                    got %s"
                (Json.to_string j)
          | None -> fail "study_seconds.streaming misses ni.states_pruned")
      | None -> assert false)
  | _ -> fail "missing \"study_seconds\" object");
  let metrics =
    match Json.member "metrics" doc with
    | Some (Json.List items) -> items
    | _ -> fail "missing \"metrics\" array"
  in
  let name_of = function
    | Json.Obj _ as item -> (
        match Json.member "name" item with
        | Some (Json.Str n) -> n
        | _ -> fail "metric object without a string \"name\"")
    | j -> fail "metrics array holds a non-object: %s" (Json.to_string j)
  in
  let names = List.map name_of metrics in
  List.iter
    (fun n ->
      if not (List.mem n names) then fail "required metric %s is missing" n)
    required;
  (* Counters that must be non-zero after a tiny run. *)
  List.iter
    (fun n ->
      let item =
        List.find (fun item -> String.equal (name_of item) n) metrics
      in
      match Json.member "value" item with
      | Some (Json.Num v) when v > 0.0 -> ()
      | Some j -> fail "metric %s should be positive, got %s" n (Json.to_string j)
      | None -> fail "metric %s has no \"value\"" n)
    [ "lts.states"; "ctmc.states"; "sim.events"; "sos.memo.hits";
      "sos.memo.misses"; "lts.par.rounds"; "lts.par.segments";
      "lts.par.segment_bytes_peak";
      (* the weak pass must have condensed its LTS and reported the
         high-water mark of its closure arenas *)
      "bisim.tau.components"; "bisim.tau.closure_bytes_peak";
      (* the forced-spill legs and the deliberate guard trip of the tiny
         run must land in the central registry *)
      "lts.spill.segments"; "lts.spill.bytes"; "guard.polls";
      "guard.trips" ];
  print_endline "bench json report ok"
