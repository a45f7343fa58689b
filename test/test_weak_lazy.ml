(* Differential tests for the on-the-fly weak saturation (lib/lts/tau.ml
   + the weak and branching passes in lib/lts/bisim.ml): the weak sweep
   must be bit-identical to strong refinement of the materialized
   saturation — reconstructed here from [Tau.saturate] and the public
   refinement API — on signatures, partitions, minimized LTSs and
   equivalence verdicts; product verdicts, trails and distinguishing
   formulas must be identical for any job count; and on tau-free models
   the weak partition must be the strong one. The swept branching
   signatures have their own oracle in test_refine_oracle.ml. *)

module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Tau = Dpma_lts.Tau
module Hml = Dpma_lts.Hml
module Diagnose = Dpma_lts.Diagnose
module NI = Dpma_core.Noninterference
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Elaborate = Dpma_adl.Elaborate
module Metrics = Dpma_obs.Metrics
module Instruments = Dpma_obs.Instruments

let rpc_lts =
  lazy
    (Lts.of_spec
       (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
         .Elaborate.spec)

let simplified_rpc_lts =
  lazy
    (Lts.of_spec (Elaborate.elaborate (Rpc.simplified_archi ())).Elaborate.spec)

(* Buffer-size-1 streaming: small enough that the oracle's quadratic
   saturation stays affordable inside a differential test. *)
let small_streaming_lts =
  lazy
    (Lts.of_spec
       (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false
          {
            Streaming.default_params with
            ap_buffer_size = 1;
            client_buffer_size = 1;
          })
         .Elaborate.spec)

(* The one-station scaled model (13551 states) of test_parallel_build. *)
let scaled_lts =
  lazy
    (Lts.of_spec
       (Streaming.scaled_spec
          {
            Streaming.stations = 1;
            Streaming.radio_channel = true;
            Streaming.station =
              {
                Streaming.default_params with
                Streaming.ap_buffer_size = 8;
                Streaming.client_buffer_size = 8;
              };
          }))

let check_partition name p q =
  Alcotest.(check bool) (name ^ ": partitions identical") true (p = q)

(* ------------------------------------------------------------------ *)
(* Partition and minimization differentials against a reconstructed
   materialized-saturation oracle: pre-reduce exactly like
   [weak_partition] (strong quotient, then tau-SCC collapse via
   [Tau.condense]), materialize the saturation of the reduced LTS with
   [Tau.saturate], refine it with strong signatures, and compose. This
   is the retired [--saturate] path, rebuilt from the public API. *)

let oracle_weak_partition lts =
  let p1 = Bisim.strong_partition lts in
  let l1 = Lts.quotient lts p1 in
  let p2 = (Tau.condense l1).Tau.comp_of in
  let l2 = Lts.quotient l1 p2 in
  let p3 = Bisim.strong_partition (Tau.saturate ~traced:false l2) in
  Array.init (Array.length p1) (fun s -> p3.(p2.(p1.(s))))

let test_partition_differentials () =
  List.iter
    (fun (name, lts) ->
      let lts = Lazy.force lts in
      check_partition (name ^ " lazy vs oracle")
        (Bisim.weak_partition lts)
        (oracle_weak_partition lts))
    [
      ("rpc", rpc_lts);
      ("simplified rpc", simplified_rpc_lts);
      ("streaming", small_streaming_lts);
      ("scaled", scaled_lts);
    ]

(* Saturation commutes with disjoint union, so strong bisimilarity of
   the saturated union decides weak bisimilarity — Milner's reduction,
   materialized. *)
let oracle_weak_equivalent x y =
  let union, ia, ib = Lts.disjoint_union x y in
  let p = Bisim.strong_partition (Tau.saturate ~traced:false union) in
  p.(ia) = p.(ib)

let test_equivalent_agrees () =
  let a = Lazy.force rpc_lts and b = Lazy.force small_streaming_lts in
  List.iter
    (fun (name, x, y) ->
      Alcotest.(check bool) name (oracle_weak_equivalent x y)
        (Bisim.weak_equivalent x y))
    [
      ("rpc ~ rpc", a, a);
      ("streaming ~ streaming", b, b);
      ("rpc ~ streaming", a, b);
    ]

(* The lazy [minimize_weak] saturates at quotient size, so its edge
   *order* may differ from the oracle's (which quotients a saturated
   input); states, numbering and per-state edge sets must coincide. *)
let edge_sets (lts : Lts.t) =
  Array.init lts.Lts.num_states (fun s ->
      let rec go i acc =
        if i < lts.Lts.row.(s) then acc
        else go (i - 1) ((lts.Lts.lab.(i), lts.Lts.tgt.(i)) :: acc)
      in
      List.sort_uniq compare (go (lts.Lts.row.(s + 1) - 1) []))

let test_minimize_differentials () =
  List.iter
    (fun (name, lts) ->
      let lts = Lazy.force lts in
      let lazy_min = Bisim.minimize_weak lts in
      let oracle =
        let sat = Tau.saturate ~traced:false lts in
        Lts.quotient sat (Bisim.strong_partition sat)
      in
      Alcotest.(check int) (name ^ ": num_states") oracle.Lts.num_states
        lazy_min.Lts.num_states;
      Alcotest.(check int) (name ^ ": init") oracle.Lts.init lazy_min.Lts.init;
      Alcotest.(check bool) (name ^ ": per-state edge sets") true
        (edge_sets oracle = edge_sets lazy_min))
    [ ("rpc", rpc_lts); ("streaming", small_streaming_lts) ]

(* ------------------------------------------------------------------ *)
(* Product checks: verdicts, trails and formulas must be identical for
   any job count (the watched early exit runs in the coordinator on the
   deterministically merged round result).                              *)

let test_product_insecure_differential () =
  let high a = List.mem a Rpc.high_actions in
  let low a = List.mem a Rpc.low_actions_simplified in
  let hidden, removed =
    NI.observed_pair (Lazy.force simplified_rpc_lts) ~high ~low
  in
  let trail jobs =
    match Bisim.weak_product_check ~jobs ~par_cutoff:0 hidden removed with
    | Bisim.Product_secure _ -> Alcotest.fail "simplified rpc must be insecure"
    | Bisim.Product_insecure trail -> trail
  in
  let seq_t = trail 1 and par_t = trail 4 in
  Alcotest.(check int) "split round" seq_t.Bisim.split_round
    par_t.Bisim.split_round;
  Alcotest.(check bool) "left signature" true
    (seq_t.Bisim.left_signature = par_t.Bisim.left_signature);
  Alcotest.(check bool) "right signature" true
    (seq_t.Bisim.right_signature = par_t.Bisim.right_signature);
  Alcotest.(check string) "distinguishing formula"
    (Hml.to_string ~weak:true (Diagnose.of_product_trail seq_t))
    (Hml.to_string ~weak:true (Diagnose.of_product_trail par_t))

let test_product_secure_differential () =
  let high a = List.mem a Streaming.high_actions in
  let low a = List.mem a Streaming.low_actions in
  let hidden, removed =
    NI.observed_pair (Lazy.force small_streaming_lts) ~high ~low
  in
  let result jobs =
    match Bisim.weak_product_check ~jobs ~par_cutoff:0 hidden removed with
    | Bisim.Product_secure { partition; rounds } -> (partition, rounds)
    | Bisim.Product_insecure _ -> Alcotest.fail "streaming must be secure"
  in
  let sp, sr = result 1 and pp, pr = result 4 in
  Alcotest.(check int) "secure exit round" sr pr;
  check_partition "secure product partition" sp pp

(* Declassified mutants (high actions made observable): the early
   INSECURE exit must produce the same formula at any job count. *)
let test_mutant_formula_differential () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
  in
  let high = Rpc.high_actions and low = Rpc.low_actions @ Rpc.high_actions in
  let formula jobs =
    match NI.check_spec ~jobs spec ~high ~low with
    | NI.Secure -> Alcotest.fail "declassified DPM action must be observable"
    | NI.Insecure f -> Hml.to_string ~weak:true f
  in
  Alcotest.(check string) "mutant formula" (formula 1) (formula 4)

(* ------------------------------------------------------------------ *)
(* Parallel identity of the swept weak and branching paths             *)

let test_weak_jobs_identity () =
  List.iter
    (fun (name, lts) ->
      let lts = Lazy.force lts in
      let p1 = Bisim.weak_partition ~jobs:1 lts in
      let p2 = Bisim.weak_partition ~jobs:2 ~par_cutoff:0 lts in
      let p4 = Bisim.weak_partition ~jobs:4 ~par_cutoff:0 lts in
      check_partition (name ^ " weak j1 vs j2") p1 p2;
      check_partition (name ^ " weak j1 vs j4") p1 p4)
    [ ("rpc", rpc_lts); ("streaming", small_streaming_lts);
      ("scaled", scaled_lts) ]

let test_branching_jobs_identity () =
  let lts = Lazy.force small_streaming_lts in
  check_partition "branching j1 vs j4"
    (Bisim.branching_partition ~jobs:1 lts)
    (Bisim.branching_partition ~jobs:4 ~par_cutoff:0 lts)

(* ------------------------------------------------------------------ *)
(* Weak sweep against the saturated oracle: after [Tau.Sweep.weak t
   block], every state's signature must be its strong signature on
   [Tau.saturate lts] under [block]. One sweep value is reused across
   the partitions, as refinement reuses it across rounds.               *)

(* The strong signature of [s], packed as refinement packs it. *)
let strong_signature (lts : Lts.t) block s =
  let acc = ref [] in
  for i = lts.Lts.row.(s) to lts.Lts.row.(s + 1) - 1 do
    acc := ((lts.Lts.lab.(i) lsl 31) lor block.(lts.Lts.tgt.(i))) :: !acc
  done;
  Array.of_list (List.sort_uniq Int.compare !acc)

let check_sweep name lts =
  let n = lts.Lts.num_states in
  let strong = Bisim.strong_partition lts in
  let weak = Bisim.weak_partition lts in
  (* Strong blocks where the strong id is even, weak blocks (shifted past
     the strong ids) elsewhere: a partition no refinement round yields. *)
  let mixed =
    Array.mapi (fun s b -> if b mod 2 = 0 then b else n + weak.(s)) strong
  in
  let sat = Tau.saturate ~traced:false lts in
  let sweep = Tau.Sweep.create lts in
  List.iter
    (fun (pname, block) ->
      Tau.Sweep.weak sweep block;
      for s = 0 to n - 1 do
        let swept = Array.make (Tau.Sweep.signature_length sweep s) 0 in
        Tau.Sweep.blit_signature sweep s swept;
        if swept <> strong_signature sat block s then
          Alcotest.failf "%s, %s partition: weak signature of state %d" name
            pname s
      done)
    [ ("trivial", Array.make n 0); ("strong", strong); ("weak", weak);
      ("mixed", mixed) ]

(* A generated ring (38 states) with its actions hidden: fully, and with
   only the stations' [tick] self-loops left observable. Either way the
   token moves become tau-SCCs joined by condensed tau edges — shapes the
   paper's models, pre-reduced or not, barely exercise. *)
let tau_dense_rings =
  lazy
    (let archi =
       QCheck.Gen.generate1 ~rand:(Random.State.make [| 5 |])
         Test_fuzz.gen_archi
     in
     let lts = Lts.of_spec (Elaborate.elaborate archi).Elaborate.spec in
     [ ("ring, all hidden", Lts.hide_all_but lts ~keep:(fun _ -> false));
       ( "ring, ticks visible",
         Lts.hide_all_but lts ~keep:(String.ends_with ~suffix:".tick") ) ])

(* A tau-star: a hub with tau edges to [leaves] leaves, each leaf with
   its own observable label into a common deadlock state — and, with
   [back], a tau edge back to the hub, which makes hub and leaves one
   tau-SCC. Either way the hub's weak signature unions [leaves + 1]
   distinct pairs even under the trivial partition: more than the weak
   sweep's dedup set holds before its first regrowth (64 slots). *)
let tau_star ~leaves ~back =
  let sink = leaves + 1 in
  let tau target = { Lts.label = Lts.tau; rate = None; target } in
  Lts.make ~init:0 ~state_name:string_of_int
    (Array.init (leaves + 2) (fun s ->
         if s = 0 then List.init leaves (fun i -> tau (i + 1))
         else if s = sink then []
         else
           { Lts.label = Lts.obs (Printf.sprintf "leaf%d" s); rate = None;
             target = sink }
           :: (if back then [ tau 0 ] else [])))

let test_sweep_vs_saturation () =
  check_sweep "rpc" (Lazy.force rpc_lts);
  check_sweep "streaming" (Lazy.force small_streaming_lts);
  List.iter
    (fun (name, ring) ->
      let cond = Tau.condense ring in
      Alcotest.(check bool) (name ^ ": tau-SCCs and condensed tau edges") true
        (cond.Tau.num_comps < ring.Lts.num_states
        && cond.Tau.tau_row.(cond.Tau.num_comps) > 0);
      check_sweep name ring)
    (Lazy.force tau_dense_rings);
  List.iter
    (fun (name, back, comps) ->
      let star = tau_star ~leaves:100 ~back in
      Alcotest.(check int) (name ^ ": tau-SCCs") comps
        (Tau.condense star).Tau.num_comps;
      check_sweep name star)
    [ ("tau-star fan-out", false, 102); ("tau-star cycle", true, 2) ]

(* On tau-free models weak and strong bisimilarity coincide, and the
   weak pass must find the strong partition with the same numbering:
   the tau-SCC collapse is the identity and the weak refinement of the
   strong quotient leaves every state in its own block. *)
let prop_tau_free_weak_is_strong =
  QCheck.Test.make ~count:30
    ~name:"fuzz: tau-free weak partition = strong partition"
    Test_fuzz.arb_archi (fun archi ->
      let lts = Lts.of_spec (Elaborate.elaborate archi).Elaborate.spec in
      if Array.exists (fun l -> l = Lts.tau) lts.Lts.lab then
        QCheck.assume_fail ()
      else Bisim.weak_partition lts = Bisim.strong_partition lts)

(* ------------------------------------------------------------------ *)
(* Instruments: weak and branching refinements both report the sweep's
   condensation and arena size                                          *)

let test_sweep_counters () =
  let lts = Lazy.force small_streaming_lts in
  List.iter
    (fun (name, partition) ->
      Metrics.set Instruments.bisim_tau_components 0.0;
      Metrics.set Instruments.bisim_tau_closure_bytes 0.0;
      ignore (partition lts);
      Alcotest.(check bool) (name ^ ": components recorded") true
        (Metrics.value Instruments.bisim_tau_components > 0.0);
      Alcotest.(check bool) (name ^ ": arena bytes recorded") true
        (Metrics.value Instruments.bisim_tau_closure_bytes > 0.0))
    [ ("weak", fun l -> Bisim.weak_partition l);
      ("branching", fun l -> Bisim.branching_partition l) ]

let suite =
  [
    Alcotest.test_case "weak partitions lazy = oracle" `Quick
      test_partition_differentials;
    Alcotest.test_case "weak_equivalent lazy = oracle" `Quick
      test_equivalent_agrees;
    Alcotest.test_case "minimize_weak lazy = oracle" `Quick
      test_minimize_differentials;
    Alcotest.test_case "insecure product trail jobs-identical" `Quick
      test_product_insecure_differential;
    Alcotest.test_case "secure product jobs-identical" `Quick
      test_product_secure_differential;
    Alcotest.test_case "mutant formula jobs-identical" `Quick
      test_mutant_formula_differential;
    Alcotest.test_case "lazy weak jobs-identical" `Quick
      test_weak_jobs_identity;
    Alcotest.test_case "swept branching jobs-identical" `Quick
      test_branching_jobs_identity;
    Alcotest.test_case "weak sweep = saturated strong signatures" `Quick
      test_sweep_vs_saturation;
    QCheck_alcotest.to_alcotest ~long:false prop_tau_free_weak_is_strong;
    Alcotest.test_case "tau sweep counters recorded" `Quick
      test_sweep_counters;
  ]
