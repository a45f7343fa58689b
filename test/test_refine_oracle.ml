(* The flat refinement kernels (lib/lts/bisim.ml's class table and
   signature passes) against an independent oracle: the list-and-Hashtbl
   signature refinement they replaced — per-state signature records, a
   [Hashtbl.Make] class table keyed by (old block, ints, floats), strong
   signatures through [List.sort_uniq], Markovian signatures through a
   per-state triple table, every state re-keyed every round. Partitions,
   round counts and the Markovian lumped quotients must agree bit for
   bit at 1, 2 and 4 jobs, on generated rings and on hand-built edge
   cases: deadlock states (empty signatures), signatures longer than the
   insertion-sort cutoff, rate sums whose value depends on their order,
   and one round that forces the class table through several
   regrowths. *)

module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Rate = Dpma_pa.Rate
module Elaborate = Dpma_adl.Elaborate
module Metrics = Dpma_obs.Metrics
module Instruments = Dpma_obs.Instruments

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

module Oracle = struct
  let pack_pair label block = (label lsl 31) lor block

  module Sig_key = struct
    type t = { old_block : int; ints : int array; floats : float array }

    let equal a b =
      a.old_block = b.old_block
      && Array.length a.ints = Array.length b.ints
      && Array.length a.floats = Array.length b.floats
      && Array.for_all2 Int.equal a.ints b.ints
      && Array.for_all2 (fun (x : float) y -> x = y) a.floats b.floats

    let hash { old_block; ints; floats } =
      let h = ref (old_block + 1) in
      Array.iter (fun x -> h := (!h * 31) + x) ints;
      Array.iter
        (fun x ->
          h := (!h * 31) + (Int64.to_int (Int64.bits_of_float x) land max_int))
        floats;
      !h land max_int
  end

  module Sig_tbl = Hashtbl.Make (Sig_key)

  type signature = { ints : int array; floats : float array }

  (* Sequential first-seen-by-state-index refinement to the fixpoint;
     returns the partition and the number of rounds. *)
  let refine (lts : Lts.t) ~signature =
    let n = lts.Lts.num_states in
    let block = Array.make n 0 in
    let num_blocks = ref 1 and rounds = ref 0 in
    let continue_ = ref (n > 0) in
    while !continue_ do
      incr rounds;
      let table = Sig_tbl.create (2 * !num_blocks) in
      let new_block = Array.make n 0 in
      let next = ref 0 in
      for s = 0 to n - 1 do
        let { ints; floats } = signature block s in
        let key = { Sig_key.old_block = block.(s); ints; floats } in
        match Sig_tbl.find_opt table key with
        | Some id -> new_block.(s) <- id
        | None ->
            Sig_tbl.add table key !next;
            new_block.(s) <- !next;
            incr next
      done;
      if !next = !num_blocks then continue_ := false
      else begin
        num_blocks := !next;
        Array.blit new_block 0 block 0 n
      end
    done;
    (block, !rounds)

  let strong_signature (lts : Lts.t) block s =
    let rec go i acc =
      if i < lts.Lts.row.(s) then acc
      else go (i - 1) (pack_pair lts.Lts.lab.(i) block.(lts.Lts.tgt.(i)) :: acc)
    in
    { ints = Array.of_list (List.sort_uniq Int.compare (go (lts.Lts.row.(s + 1) - 1) []));
      floats = [||] }

  let class_code kind prio =
    match kind with
    | 2 -> 2 + if prio >= 0 then 2 * prio else (2 * -prio) - 1
    | _ -> if kind = 3 then 1 else 0

  module Triple_tbl = Hashtbl.Make (struct
    type t = int * int * int

    let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2

    let hash (a, b, c) = (((a * 31) + b) * 31) + c
  end)

  let markovian_signature (lts : Lts.t) block s =
    let table = Triple_tbl.create 8 in
    for i = lts.Lts.row.(s) to lts.Lts.row.(s + 1) - 1 do
      let value = if lts.Lts.rate_kind.(i) = 0 then 0.0 else lts.Lts.rate_val.(i) in
      let key =
        ( lts.Lts.lab.(i),
          block.(lts.Lts.tgt.(i)),
          class_code lts.Lts.rate_kind.(i) lts.Lts.rate_prio.(i) )
      in
      let current = Option.value ~default:0.0 (Triple_tbl.find_opt table key) in
      Triple_tbl.replace table key (current +. value)
    done;
    let entries =
      List.sort
        (fun (k1, _) (k2, _) -> compare k1 k2)
        (Triple_tbl.fold (fun k v acc -> (k, v) :: acc) table [])
    in
    {
      ints = Array.of_list (List.concat_map (fun ((a, b, c), _) -> [ a; b; c ]) entries);
      floats = Array.of_list (List.map snd entries);
    }

  let strong_partition lts = refine lts ~signature:(strong_signature lts)

  let markovian_partition lts = refine lts ~signature:(markovian_signature lts)
end

(* ------------------------------------------------------------------ *)
(* Library vs oracle                                                   *)

type kind = {
  name : string;
  library : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array;
  oracle : Lts.t -> int array * int;
}

let kinds =
  [
    { name = "strong"; library = Bisim.strong_partition;
      oracle = Oracle.strong_partition };
    { name = "markovian"; library = Bisim.markovian_partition;
      oracle = Oracle.markovian_partition };
  ]

(* The library partition and its round count, read off the
   [bisim.refine.rounds] counter (one refinement fixpoint per call). *)
let library_run kind ~jobs lts =
  let r0 = Metrics.count Instruments.bisim_rounds in
  let p = kind.library ~jobs ~par_cutoff:0 lts in
  (p, Metrics.count Instruments.bisim_rounds - r0)

let rate_bits (lts : Lts.t) =
  Array.map Int64.bits_of_float lts.Lts.rate_val

(* Every edge of the two lumped quotients: labels, targets, rate kinds
   and priorities equal, rates equal as bit patterns. *)
let same_lumped (a : Lts.t) (b : Lts.t) =
  a.Lts.num_states = b.Lts.num_states
  && a.Lts.init = b.Lts.init && a.Lts.row = b.Lts.row && a.Lts.lab = b.Lts.lab
  && a.Lts.tgt = b.Lts.tgt && a.Lts.rate_kind = b.Lts.rate_kind
  && a.Lts.rate_prio = b.Lts.rate_prio
  && rate_bits a = rate_bits b

(* [None] when every kind agrees with the oracle at 1, 2 and 4 jobs,
   else a description of the first disagreement. *)
let disagreement lts =
  List.find_map
    (fun kind ->
      let op, orounds = kind.oracle lts in
      List.find_map
        (fun jobs ->
          let p, rounds = library_run kind ~jobs lts in
          if p <> op then Some (Printf.sprintf "%s j%d: partition" kind.name jobs)
          else if rounds <> orounds then
            Some
              (Printf.sprintf "%s j%d: %d rounds, oracle %d" kind.name jobs
                 rounds orounds)
          else if
            kind.name = "markovian"
            && not
                 (same_lumped
                    (Lts.quotient_by_representative lts p)
                    (Lts.quotient_by_representative lts op))
          then Some (Printf.sprintf "%s j%d: lumped quotient" kind.name jobs)
          else None)
        [ 1; 2; 4 ])
    kinds

let check_against_oracle name lts =
  match disagreement lts with
  | None -> ()
  | Some what -> Alcotest.failf "%s: %s" name what

(* ------------------------------------------------------------------ *)
(* Generated rings                                                     *)

(* Closed rings carry exponential and immediate rates (the generator's
   [gen_rate]); opening the ring — dropping the last attachment — leaves
   station 0's [recv] free, so its passive rate reaches the LTS too. *)
let gen_ring =
  let open QCheck.Gen in
  let* archi = Test_fuzz.gen_archi in
  let* opened = bool in
  if opened then
    let rec drop_last = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: drop_last rest
    in
    return { archi with Dpma_adl.Ast.attachments = drop_last archi.Dpma_adl.Ast.attachments }
  else return archi

let arb_ring =
  QCheck.make
    ~print:(fun a -> Format.asprintf "%a" Dpma_adl.Ast.pp a)
    gen_ring

let prop_refinement_matches_oracle =
  QCheck.Test.make ~count:100
    ~name:"fuzz: flat strong/Markovian refinement = oracle at j1/j2/j4"
    arb_ring (fun archi ->
      let lts =
        Lts.of_spec ~max_states:100_000 (Elaborate.elaborate archi).Elaborate.spec
      in
      if lts.Lts.num_states > 5_000 then QCheck.assume_fail ()
      else
        match disagreement lts with
        | None -> true
        | Some what -> QCheck.Test.fail_report what)

(* The generator does reach every rate kind the signatures encode. *)
let test_rings_cover_rate_kinds () =
  let seen = Array.make 4 false in
  let rand = Random.State.make [| 11 |] in
  for _ = 1 to 40 do
    let archi = QCheck.Gen.generate1 ~rand gen_ring in
    let lts =
      Lts.of_spec ~max_states:100_000 (Elaborate.elaborate archi).Elaborate.spec
    in
    Array.iter (fun k -> seen.(k) <- true) lts.Lts.rate_kind
  done;
  Alcotest.(check bool) "exponential edges" true seen.(1);
  Alcotest.(check bool) "immediate edges" true seen.(2);
  Alcotest.(check bool) "passive edges" true seen.(3)

(* ------------------------------------------------------------------ *)
(* Hand-built edge cases                                               *)

let edge ?rate label target = { Lts.label = Lts.obs label; rate; target }

let make trans =
  Lts.make ~init:0 ~state_name:string_of_int trans

(* Deadlock states have the empty signature: they must share a class
   per old block, in every round, without tripping the table. *)
let test_deadlock_states () =
  let lts =
    make
      [|
        [ edge "a" 1; edge "a" 2 ];
        [];
        [ edge "b" 3 ];
        [];
        [ edge "a" 5 ~rate:(Rate.Exp 2.0) ];
        [];
        [];
      |]
  in
  check_against_oracle "deadlocks" lts;
  let p = Bisim.strong_partition lts in
  Alcotest.(check bool) "deadlocks share a class" true
    (p.(1) = p.(3) && p.(3) = p.(5) && p.(5) = p.(6))

(* Fan-outs of 40 edges, past the insertion-sort cutoff of 16: 23
   labels into 5 targets for the strong sort, and repeated (label,
   class) keys with mixed rate kinds for the Markovian sort, whose
   summing order must match the oracle's edge order exactly. The same
   fan-out in reversed and rotated edge order must sort to the same
   strong signature. *)
let test_long_signatures () =
  let rate i =
    match i mod 4 with
    | 0 -> Rate.Exp (0.1 +. (float_of_int i /. 7.0))
    | 1 -> Rate.Imm { prio = i mod 3; weight = 1.0 /. float_of_int (i + 1) }
    | 2 -> Rate.Passive { weight = float_of_int i /. 3.0 }
    | _ -> Rate.Exp (1.0 /. 3.0)
  in
  let fan k =
    List.init 40 (fun i ->
        edge
          (Printf.sprintf "l%d" ((i * 7 + k) mod 23))
          ~rate:(rate (i + k))
          (1 + ((i + k) mod 5)))
  in
  let lts =
    make
      [|
        fan 0;
        [ edge "x" 2 ];
        [ edge "y" 3 ];
        [ edge "x" 4 ];
        [];
        [ edge "y" 0 ];
        fan 3;
        fan 0;
        List.rev (fan 0);
        (match fan 0 with e :: rest -> rest @ [ e ] | [] -> []);
      |]
  in
  check_against_oracle "long signatures" lts;
  let p = Bisim.strong_partition lts in
  Alcotest.(check bool) "edge order does not matter" true
    (p.(0) = p.(7) && p.(7) = p.(8) && p.(8) = p.(9))

(* Floating-point addition is not associative: 1.0 followed by tiny
   rates rounds back to 1.0, while the tiny rates summed first do not.
   States 0 (3 edges, the insertion sort) and 2 (20 edges, the
   heapsort) sum to exactly 1.0 in edge order, so they lump with state
   1's single 1.0 edge; any other summing order would split them. *)
let test_markovian_sum_order () =
  let a rate = edge "a" ~rate:(Rate.Exp rate) 3 in
  let tiny n = List.init n (fun _ -> a 1e-16) in
  let lts =
    make [| a 1.0 :: tiny 2; [ a 1.0 ]; a 1.0 :: tiny 19; [] |]
  in
  check_against_oracle "sum order" lts;
  let p = Bisim.markovian_partition lts in
  Alcotest.(check bool) "edge-order sums lump" true (p.(0) = p.(1) && p.(1) = p.(2))

(* Round 1 of this LTS opens 4096 classes: state [i] has one edge per set
   bit of [i], each labelled by the bit, into a common deadlock state.
   The class table starts at 64 slots and is not presized, so that one
   round regrows it several times. *)
let test_table_regrowth () =
  let bits = 12 in
  let n = 1 lsl bits in
  let sink = n in
  let trans =
    Array.init (n + 1) (fun i ->
        if i = sink then []
        else
          List.filter_map
            (fun b ->
              if i land (1 lsl b) <> 0 then
                Some (edge (Printf.sprintf "bit%d" b) ~rate:(Rate.Exp 1.0) sink)
              else None)
            (List.init bits Fun.id))
  in
  let lts = make trans in
  check_against_oracle "regrowth" lts;
  let p = Bisim.strong_partition lts in
  Alcotest.(check int) "one class per label set" n
    (1 + Array.fold_left max 0 p)

let suite =
  [
    Alcotest.test_case "rings reach every rate kind" `Quick
      test_rings_cover_rate_kinds;
    QCheck_alcotest.to_alcotest ~long:false prop_refinement_matches_oracle;
    Alcotest.test_case "deadlock states (empty signatures)" `Quick
      test_deadlock_states;
    Alcotest.test_case "signatures past the sort cutoff" `Quick
      test_long_signatures;
    Alcotest.test_case "Markovian rates sum in edge order" `Quick
      test_markovian_sum_order;
    Alcotest.test_case "class table regrows within a round" `Quick
      test_table_regrowth;
  ]
