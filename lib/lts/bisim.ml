module Rate = Dpma_pa.Rate
module Pool = Dpma_util.Pool

(* Signatures are canonical encodings of a state's outgoing behaviour
   w.r.t. the current partition. They are packed into flat arrays — an
   [ints] part (encoded (label, block) data) and a [floats] part
   (cumulative rates, empty for non-Markovian signatures) — so the
   refinement loop hashes and compares machine integers and floats only,
   never polymorphic values. A (label, block) pair packs into one int:
   block ids are bounded by the state count (< 2^31 by Lts.of_spec's
   max_states ceiling) and label ids by the interned-label count. *)

let pack_pair label block = (label lsl 31) lor block

(* ------------------------------------------------------------------ *)
(* The class table                                                      *)

(* A refinement round keys every state by (old block, signature) and
   numbers the distinct keys densely in first-seen state order. The
   table doing it is flat. A signature pass writes a state's signature
   into the table's scratch buffer ([ints]/[len], plus [floats]/[flen]
   for Markovian rates); the table hashes and compares the buffer in
   place and copies it into its arena only when it opens a new class.

   A class is one contiguous arena record — its id, old block, ints
   length, floats length and floats offset, then its ints — so a lookup
   that hits touches one slot and one record. Slots are open-addressed
   (linear probing, load at most 1/2) pairs of full hash and record
   offset; the hash is checked before the record is read. [records]
   maps class ids back to record offsets, for the parallel merge. A
   refinement allocates its tables once and clears them between rounds,
   so every array only grows. *)
module Class_table = struct
  type t = {
    mutable ints : int array;
    mutable len : int;
    mutable floats : float array;
    mutable flen : int;
    mutable keys : int array;  (* Markovian per-edge (pair, class) keys *)
    mutable perm : int array;  (* Markovian per-edge sort permutation *)
    mutable slots : int array;  (* (hash, record offset or -1) pairs *)
    mutable count : int;
    mutable records : int array;
    mutable arena : int array;
    mutable arena_len : int;
    mutable float_arena : float array;
    mutable float_len : int;
  }

  (* Initial slot count, a power of two. *)
  let initial_slots = 64

  (* Record layout: class id, old block, ints length, floats length,
     floats offset, then the ints. *)
  let header = 5

  let create () =
    {
      ints = Array.make 32 0;
      len = 0;
      floats = Array.make 8 0.0;
      flen = 0;
      keys = [||];
      perm = [||];
      slots = Array.make (2 * initial_slots) (-1);
      count = 0;
      records = Array.make (initial_slots / 2) 0;
      arena = Array.make (8 * initial_slots) 0;
      arena_len = 0;
      float_arena = [||];
      float_len = 0;
    }

  let grow_ints a need =
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let grow_floats a need =
    let b = Array.make (max need (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* The scratch buffer, with room for at least [need] entries; the
     pass then sets the signature's length with {!set_lengths}. *)
  let ints_buffer t need =
    if need > Array.length t.ints then t.ints <- grow_ints t.ints need;
    t.ints

  let floats_buffer t need =
    if need > Array.length t.floats then t.floats <- grow_floats t.floats need;
    t.floats

  let set_lengths t ~ints ~floats =
    t.len <- ints;
    t.flen <- floats

  let scratch_ints t = Array.sub t.ints 0 t.len

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.count <- 0;
    t.arena_len <- 0;
    t.float_len <- 0

  let mix h x = (h lxor x) * 0x2545_F491_4F6C_DD1D

  (* The hash of the key (old block [ob], ints [si.(io .. io + il - 1)],
     floats [sf.(fo .. fo + fl - 1)]). *)
  let hash ob (si : int array) io il (sf : float array) fo fl =
    let h = ref (mix 0x27D4_EB2F_1656_67C5 ob) in
    for i = io to io + il - 1 do
      h := mix !h si.(i)
    done;
    for i = fo to fo + fl - 1 do
      h := mix !h (Int64.to_int (Int64.bits_of_float sf.(i)))
    done;
    (* Probing masks the low bits; fold the high ones down first. *)
    !h lxor (!h lsr 29)

  (* Is the record at [off] the key ([ob], [si], [sf] as in {!hash})? *)
  let matches t off ob (si : int array) io il (sf : float array) fo fl =
    let a = t.arena in
    a.(off + 1) = ob
    && a.(off + 2) = il
    && a.(off + 3) = fl
    && (let base = off + header in
        let i = ref 0 in
        while !i < il && a.(base + !i) = si.(io + !i) do
          incr i
        done;
        !i = il)
    &&
    let base = a.(off + 4) in
    let i = ref 0 in
    while !i < fl && t.float_arena.(base + !i) = sf.(fo + !i) do
      incr i
    done;
    !i = fl

  (* Open a class for the key; returns its record offset. *)
  let add t ob si io il sf fo fl =
    let c = t.count in
    if c = Array.length t.records then t.records <- grow_ints t.records (c + 1);
    let off = t.arena_len in
    let stop = off + header + il in
    if stop > Array.length t.arena then t.arena <- grow_ints t.arena stop;
    let a = t.arena in
    a.(off) <- c;
    a.(off + 1) <- ob;
    a.(off + 2) <- il;
    a.(off + 3) <- fl;
    a.(off + 4) <- t.float_len;
    (* Element loops, not [Array.blit]: signatures are a handful of
       entries, and this runs once per class per round. *)
    for k = 0 to il - 1 do
      a.(off + header + k) <- si.(io + k)
    done;
    t.arena_len <- stop;
    if fl > 0 then begin
      if t.float_len + fl > Array.length t.float_arena then
        t.float_arena <- grow_floats t.float_arena (t.float_len + fl);
      for k = 0 to fl - 1 do
        t.float_arena.(t.float_len + k) <- sf.(fo + k)
      done;
      t.float_len <- t.float_len + fl
    end;
    t.records.(c) <- off;
    t.count <- c + 1;
    off

  let rehash t =
    let old = t.slots in
    let slots = Array.make (2 * Array.length old) (-1) in
    let mask = (Array.length old) - 1 in
    for j = 0 to (Array.length old / 2) - 1 do
      let off = old.((2 * j) + 1) in
      if off >= 0 then begin
        let h = old.(2 * j) in
        let i = ref (h land mask) in
        while slots.((2 * !i) + 1) >= 0 do
          i := (!i + 1) land mask
        done;
        slots.(2 * !i) <- h;
        slots.((2 * !i) + 1) <- off
      end
    done;
    t.slots <- slots

  let find_or_add t h ob si io il sf fo fl =
    let mask = (Array.length t.slots / 2) - 1 in
    let i = ref (h land mask) in
    let found = ref (-1) in
    while !found < 0 do
      let j = 2 * !i in
      let off = t.slots.(j + 1) in
      if off < 0 then begin
        let off = add t ob si io il sf fo fl in
        t.slots.(j) <- h;
        t.slots.(j + 1) <- off;
        found := t.arena.(off);
        if 4 * t.count > Array.length t.slots then rehash t
      end
      else if t.slots.(j) = h && matches t off ob si io il sf fo fl then
        found := t.arena.(off)
      else i := (!i + 1) land mask
    done;
    !found

  (* The class of the scratch signature under old block [old_block],
     opened (numbered [count]) if new. *)
  let classify t ~old_block =
    let h = hash old_block t.ints 0 t.len t.floats 0 t.flen in
    find_or_add t h old_block t.ints 0 t.len t.floats 0 t.flen

  (* A class that no key can reach: numbered [count], with no record. *)
  let fresh t =
    let c = t.count in
    if c = Array.length t.records then t.records <- grow_ints t.records (c + 1);
    t.records.(c) <- -1;
    t.count <- c + 1;
    c

  (* The class of [src]'s class [c] in [t], opened if new. *)
  let merge_class t src c =
    let off = src.records.(c) in
    let a = src.arena in
    let ob = a.(off + 1) and il = a.(off + 2) and fl = a.(off + 3) in
    let io = off + header and fo = a.(off + 4) in
    let h = hash ob a io il src.float_arena fo fl in
    find_or_add t h ob a io il src.float_arena fo fl
end

module Int_key = struct
  type t = int

  let equal : int -> int -> bool = Int.equal

  (* Multiplicative (Fibonacci) mix: keys are packed (label, block) pairs
     and state ids, dense enough that the generic [Hashtbl.hash] call is
     pure overhead in the refinement hot loops. *)
  let hash x = (x * 0x9E37_79B9) land max_int
end

module Int_tbl = Hashtbl.Make (Int_key)

(* Signature-based partition refinement. A signature pass writes a
   state's canonical outgoing behaviour w.r.t. the current blocks into a
   class table's scratch buffer; refinement stops when the block count
   is stable.

   Each round re-keys every state by (current block, signature) and
   renumbers the classes densely in first-seen state order. With more
   than one job the signature pass — read-only over the frozen CSR and
   the pre-round partition — is dealt to the pool as contiguous state
   ranges. Each worker classifies its states into a private class table
   it keeps across rounds, writing the worker-local class of every state
   into the round's output array. The coordinator then walks the states
   in order and maps each worker-local class to a global one, merging
   the class's arena record into the global table the first time it
   meets it. A key's global class is thus opened at the first state, in
   state order, that carries it — exactly the sequential first-seen-by-
   state-index numbering — so partitions are bit-identical for any job
   count, any chunk size and any dealing of chunks to workers.

   A state alone in its old block needs no signature at all: its key
   contains the old block, which no other state shares, so it opens a
   fresh class at its place in state order. Both paths number such
   states without computing, hashing or storing their signatures. *)

(* Below this state count a round's signature pass is too cheap to
   amortize the pool's per-round spawn/join cost; on a machine that
   cannot run two domains at once no state count is. Scheduling only —
   the partition is identical either way. *)
let refine_par_cutoff ~jobs:_ =
  if Pool.hardware_parallelism () <= 1 then max_int else 1024

(* [fill table block s] writes the signature of [s] under partition
   [block] into [table]'s scratch buffer. *)
type fill = Class_table.t -> int array -> int -> unit

(* A signature pass abstracts how the refinement loop obtains a state's
   signature, so stateless signatures (strong, Markovian) and the swept
   weak and branching signatures share one driver. [sp_fill] serves the
   sequential path, the pool workers and the coordinator's watched-pair
   recomputation alike: it is read-only between rounds. [sp_advance],
   when present, is called between rounds with the post-round partition,
   so a swept pass can re-sweep before the next round reads it.
   [sp_par_cutoff] is the pass's [par_cutoff] when the caller gives
   none. *)
type sig_pass = {
  sp_fill : fill;
  sp_advance : (int array -> unit) option;
  sp_par_cutoff : jobs:int -> int;
}

let plain_pass fill =
  { sp_fill = fill; sp_advance = None; sp_par_cutoff = refine_par_cutoff }

(* A pool worker's state, kept across the rounds of one refinement:
   its class table and the map from its local classes to the round's
   global ones (-1 until the merge meets the class). *)
type refine_worker = {
  rw_slot : int;
  rw_table : Class_table.t;
  mutable rw_global : int array;
}

(* States alone in their old block are left to the coordinator, marked
   [-1]: see [refine_loop]. *)
let classify_chunk ~fill ~block ~block_size ~new_block w (lo, len) =
  let t = w.rw_table in
  for s = lo to lo + len - 1 do
    let b = block.(s) in
    if block_size.(b) = 1 then new_block.(s) <- -1
    else begin
      fill t block s;
      new_block.(s) <- Class_table.classify t ~old_block:b
    end
  done;
  w.rw_slot

(* The shared driver behind [refine] and [refine_watched]: runs rounds to
   the fixpoint, or — when a watched pair is given — until the watched
   states land in different blocks, retaining the pair of signatures that
   split them. Returns [(partition, rounds, split)]. *)
let refine_loop ?watch (lts : Lts.t) ~pass ~jobs ~par_cutoff =
  let module I = Dpma_obs.Instruments in
  let module M = Dpma_obs.Metrics in
  M.incr I.bisim_refines;
  let n = lts.num_states in
  let par = jobs > 1 && n >= par_cutoff in
  if (not par) && jobs > 1 && n > 0 then M.incr I.bisim_par_seq_fallbacks;
  let chunks =
    if not par then [||]
    else
      let c = Pool.recommended_chunk ~n ~jobs in
      Array.init ((n + c - 1) / c) (fun i ->
          let lo = i * c in
          (lo, min c (n - lo)))
  in
  let table = Class_table.create () in
  let workers = Array.make (if par then jobs else 0) None in
  let next_slot = Atomic.make 0 in
  let worker () =
    let slot = Atomic.fetch_and_add next_slot 1 in
    let w =
      match workers.(slot) with
      | Some w -> w
      | None ->
          let w =
            { rw_slot = slot; rw_table = Class_table.create ();
              rw_global = [||] }
          in
          workers.(slot) <- Some w;
          w
    in
    Class_table.clear w.rw_table;
    w
  in
  let block = Array.make n 0 in
  let new_block = Array.make n 0 in
  let block_size = Array.make (max 1 n) 0 in
  let num_blocks = ref 1 in
  let rounds = ref 0 in
  let split = ref None in
  let partial () =
    [ ("states", float_of_int n);
      ("rounds", float_of_int !rounds);
      ("blocks", float_of_int !num_blocks) ]
  in
  let continue_ = ref (n > 0) in
  while !continue_ do
    Dpma_util.Guard.poll ~partial ~phase:"bisim.refine" ();
    M.incr I.bisim_rounds;
    incr rounds;
    Class_table.clear table;
    (* Once most blocks are singletons, most states skip the signature
       pass (see the header comment). *)
    Array.fill block_size 0 !num_blocks 0;
    Array.iter (fun b -> block_size.(b) <- block_size.(b) + 1) block;
    if not par then
      for s = 0 to n - 1 do
        let b = block.(s) in
        new_block.(s) <-
          (if block_size.(b) = 1 then Class_table.fresh table
           else begin
             pass.sp_fill table block s;
             Class_table.classify table ~old_block:b
           end)
      done
    else begin
      M.incr I.bisim_par_rounds;
      Atomic.set next_slot 0;
      let slots =
        Pool.map_chunks_ordered ~jobs ~init:worker
          ~f:(classify_chunk ~fill:pass.sp_fill ~block ~block_size ~new_block)
          ~finish:(fun w ->
            let k = w.rw_table.count in
            if Array.length w.rw_global < k then
              w.rw_global <- Array.make (max k (2 * Array.length w.rw_global)) 0;
            Array.fill w.rw_global 0 k (-1);
            M.observe I.bisim_par_blocks_per_worker (float_of_int k))
          chunks
      in
      let tm = Dpma_obs.Clock.now_s () in
      Array.iteri
        (fun ci slot ->
          let w = Option.get workers.(slot) in
          let lo, len = chunks.(ci) in
          for s = lo to lo + len - 1 do
            let l = new_block.(s) in
            new_block.(s) <-
              (if l < 0 then Class_table.fresh table
               else begin
                 if w.rw_global.(l) < 0 then
                   w.rw_global.(l) <- Class_table.merge_class table w.rw_table l;
                 w.rw_global.(l)
               end)
          done)
        slots;
      M.observe I.bisim_par_merge_seconds (Dpma_obs.Clock.now_s () -. tm)
    end;
    let next = table.count in
    M.observe I.bisim_blocks_per_round (float_of_int next);
    let stop_watched =
      match watch with
      | Some (wa, wb) when new_block.(wa) <> new_block.(wb) ->
          (* The signatures are recomputed against the pre-round
             partition, exactly as the round that told the watched states
             apart saw them. *)
          pass.sp_fill table block wa;
          let sa = Class_table.scratch_ints table in
          pass.sp_fill table block wb;
          let sb = Class_table.scratch_ints table in
          split := Some (sa, sb);
          true
      | _ -> false
    in
    if stop_watched then begin
      num_blocks := next;
      Array.blit new_block 0 block 0 n;
      continue_ := false
    end
    else if next = !num_blocks then continue_ := false
    else begin
      (* Another round is coming: let a swept pass re-sweep. *)
      (match pass.sp_advance with Some adv -> adv new_block | None -> ());
      num_blocks := next;
      Array.blit new_block 0 block 0 n
    end
  done;
  M.set I.bisim_blocks (float_of_int !num_blocks);
  (block, !rounds, !split)

let resolve_pool ?jobs ?par_cutoff pass =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let par_cutoff =
    match par_cutoff with
    | Some c -> max 0 c
    | None -> pass.sp_par_cutoff ~jobs
  in
  (jobs, par_cutoff)

let refine_pass ?jobs ?par_cutoff (lts : Lts.t) ~pass =
  let jobs, par_cutoff = resolve_pool ?jobs ?par_cutoff pass in
  Dpma_obs.Trace.with_span "bisim.refine"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
      let block, _, _ = refine_loop lts ~pass ~jobs ~par_cutoff in
      block)

let refine ?jobs ?par_cutoff lts ~fill =
  refine_pass ?jobs ?par_cutoff lts ~pass:(plain_pass fill)

(* Drop adjacent duplicates of the sorted [a.(0 .. n - 1)] in place;
   returns the distinct count. *)
let dedup_sorted (a : int array) n =
  let k = ref (min n 1) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k

let strong_fill (lts : Lts.t) table block s =
  let lo = lts.row.(s) in
  let d = lts.row.(s + 1) - lo in
  let a = Class_table.ints_buffer table d in
  for k = 0 to d - 1 do
    a.(k) <- pack_pair lts.lab.(lo + k) block.(lts.tgt.(lo + k))
  done;
  Tau.sort_prefix a d;
  Class_table.set_lengths table ~ints:(dedup_sorted a d) ~floats:0

let strong_partition ?jobs ?par_cutoff lts =
  refine ?jobs ?par_cutoff lts ~fill:(strong_fill lts)

(* [outer] after [inner], written over [inner]: both callers own a fresh
   [inner], so composing allocates nothing. *)
let compose outer inner =
  Array.iteri (fun s b -> inner.(s) <- outer.(b)) inner;
  inner

(* Pre-reduction for the weak pass: strongly bisimilar states are weakly
   bisimilar, and so are states on a common tau-cycle (each can silently
   reach the other). Both quotients are cheap and shrink the LTS the
   weak pass condenses. Returns the reduced LTS and the partition
   mapping each input state to its reduced state. *)
let weak_reduce ?jobs ?par_cutoff lts =
  let p1 = strong_partition ?jobs ?par_cutoff lts in
  let l1 = Lts.quotient lts p1 in
  let p2 = Tau.components l1 in
  (Lts.quotient l1 p2, compose p2 p1)

(* Weak and branching signatures: a [Tau.Sweep] recomputes every
   component's signature once per round over the tau-SCC condensation
   (see lib/lts/tau.ml and docs/WEAK_EQUIVALENCE.md). Weak signatures
   are exactly the strong signatures of the saturated LTS, so weak
   refinement is round-for-round bit-identical to strong refinement of
   the materialized saturation while never building the weak relation.
   The sweep for the trivial partition runs here, each later one in
   [sp_advance]; between sweeps the signatures are read-only, so pool
   workers share the sequential fill function and [block] is not
   consulted. Returns the pass and the sweep (for the final instrument
   flush). *)
let swept_pass ~par_cutoff sweep_fn (lts : Lts.t) =
  let sweep = Tau.Sweep.create lts in
  sweep_fn sweep (Array.make lts.num_states 0);
  ( {
      sp_fill =
        (fun table _block s ->
          let len = Tau.Sweep.signature_length sweep s in
          Tau.Sweep.blit_signature sweep s (Class_table.ints_buffer table len);
          Class_table.set_lengths table ~ints:len ~floats:0);
      sp_advance = Some (sweep_fn sweep);
      sp_par_cutoff = par_cutoff;
    },
    sweep )

let weak_pass = swept_pass ~par_cutoff:refine_par_cutoff Tau.Sweep.weak

let swept_partition pass_of ?jobs ?par_cutoff lts =
  let pass, sweep = pass_of lts in
  let p = refine_pass ?jobs ?par_cutoff lts ~pass in
  Tau.Sweep.record sweep;
  p

let weak_partition ?jobs ?par_cutoff lts =
  let reduced, p = weak_reduce ?jobs ?par_cutoff lts in
  compose (swept_partition weak_pass ?jobs ?par_cutoff reduced) p

(* For lumping, transitions to the same block accumulate: exponential rates
   add up; immediate weights add up per priority; passive weights add up.
   The rate class is encoded as a small non-negative int: 0 exponential
   (and unrated), 1 passive, 2 + prio-code for immediate. *)
let class_code kind prio =
  match kind with
  | 2 -> 2 + if prio >= 0 then 2 * prio else (2 * -prio) - 1
  | _ -> if kind = 3 then 1 else 0

(* Markovian keys order by packed (label, block) pair, then rate class,
   then edge position: the tie-break keeps equal keys in edge order, so
   their rates add up in exactly the order the edges list them. *)
let markovian_lt (keys : int array) a b =
  let pa = keys.(2 * a) and pb = keys.(2 * b) in
  pa < pb
  || pa = pb
     &&
     let ca = keys.((2 * a) + 1) and cb = keys.((2 * b) + 1) in
     ca < cb || (ca = cb && a < b)

(* Per (label, target block, rate class), the rates of the state's edges
   summed in edge order from 0.0; encoded as [pair; class] ints plus one
   float per key, in key order. *)
let markovian_fill (lts : Lts.t) (table : Class_table.t) block s =
  let lo = lts.row.(s) in
  let d = lts.row.(s + 1) - lo in
  if Array.length table.keys < 2 * d then
    table.keys <- Array.make (max (2 * d) (2 * Array.length table.keys)) 0;
  if Array.length table.perm < d then
    table.perm <- Array.make (max d (2 * Array.length table.perm)) 0;
  let keys = table.keys and perm = table.perm in
  for k = 0 to d - 1 do
    let i = lo + k in
    keys.(2 * k) <- pack_pair lts.lab.(i) block.(lts.tgt.(i));
    keys.((2 * k) + 1) <- class_code lts.rate_kind.(i) lts.rate_prio.(i);
    perm.(k) <- k
  done;
  if d > 16 then Tau.heapsort_by (markovian_lt keys) perm d
  else
    for r = 1 to d - 1 do
      let x = perm.(r) in
      let j = ref (r - 1) in
      while !j >= 0 && markovian_lt keys x perm.(!j) do
        perm.(!j + 1) <- perm.(!j);
        decr j
      done;
      perm.(!j + 1) <- x
    done;
  let ints = Class_table.ints_buffer table (2 * d) in
  let floats = Class_table.floats_buffer table d in
  let m = ref 0 in
  for r = 0 to d - 1 do
    let k = perm.(r) in
    let i = lo + k in
    let value = if lts.rate_kind.(i) = 0 then 0.0 else lts.rate_val.(i) in
    let pair = keys.(2 * k) and cls = keys.((2 * k) + 1) in
    let last = !m - 1 in
    if !m > 0 && ints.(2 * last) = pair && ints.((2 * last) + 1) = cls then
      floats.(last) <- floats.(last) +. value
    else begin
      ints.(2 * !m) <- pair;
      ints.((2 * !m) + 1) <- cls;
      floats.(!m) <- 0.0 +. value;
      incr m
    end
  done;
  Class_table.set_lengths table ~ints:(2 * !m) ~floats:!m

let markovian_partition ?jobs ?par_cutoff lts =
  refine ?jobs ?par_cutoff lts ~fill:(markovian_fill lts)

(* Branching bisimulation via Blom–Orzan signature refinement: a state's
   signature collects the (label, target block) pairs reachable after
   internal stuttering *within its own current block*; inert tau steps
   (same-block) are excluded. The fixpoint of this refinement is the
   coarsest branching bisimulation. Members of a tau-SCC share a block
   in every round, so the sweep computes the signature once per
   component, like the weak one.

   A parallel branching round would only deal out the class-table
   lookups — which the coordinator's merge walk repeats in state order —
   at the cost of the pool's per-round spawn, so by default no state
   count is worth it (an explicit [par_cutoff] still applies; the tests
   pass 0 to exercise the parallel merge on branching signatures). *)
let branching_pass =
  swept_pass ~par_cutoff:(fun ~jobs:_ -> max_int) Tau.Sweep.branching

let branching_partition ?jobs ?par_cutoff lts =
  swept_partition branching_pass ?jobs ?par_cutoff lts

let branching_equivalent ?jobs ?par_cutoff a b =
  let union, ia, ib = Lts.disjoint_union a b in
  let block = branching_partition ?jobs ?par_cutoff union in
  block.(ia) = block.(ib)

let same_class block s t = block.(s) = block.(t)

let strong_equivalent ?jobs ?par_cutoff a b =
  let union, ia, ib = Lts.disjoint_union a b in
  let block = strong_partition ?jobs ?par_cutoff union in
  same_class block ia ib

let weak_equivalent ?jobs ?par_cutoff a b =
  let union, ia, ib = Lts.disjoint_union a b in
  let block = weak_partition ?jobs ?par_cutoff union in
  same_class block ia ib

let minimize_strong ?jobs ?par_cutoff lts =
  Lts.quotient lts (strong_partition ?jobs ?par_cutoff lts)

(* First-seen dense renumbering in state order — the numbering [refine]
   itself produces, so the [minimize_weak] quotient carries the
   same state ids as the oracle path's. *)
let dense_renumber p =
  let map = Int_tbl.create 64 in
  let next = ref 0 in
  Array.map
    (fun b ->
      match Int_tbl.find_opt map b with
      | Some id -> id
      | None ->
          let id = !next in
          Int_tbl.add map b id;
          incr next;
          id)
    p

let minimize_weak ?jobs ?par_cutoff lts =
  (* The partition comes from the weak pass; the quotient — one state
     per weak class — is then saturated so the result carries the
     materialized weak (double-arrow) transitions, as the output always
     did. For the coarsest weak partition, quotient and saturation
     commute (as edge sets): collapsing a class only merges states that
     silently reach each other's tau-closures, so saturating at quotient
     size loses nothing — and the quadratic step runs on the minimized
     LTS instead of the input. *)
  let p = dense_renumber (weak_partition ?jobs ?par_cutoff lts) in
  Tau.saturate (Lts.quotient lts p)

module Int_list_key = struct
  type t = int list

  let equal = List.equal Int.equal

  let hash l = List.fold_left (fun acc x -> (acc * 31) + x) 17 l land max_int
end

module Int_list_tbl = Hashtbl.Make (Int_list_key)

let determinize ?(max_states = 500_000) (lts : Lts.t) =
  let closure = Tau.tau_closure lts in
  let close set =
    List.concat_map (fun s -> closure.(s)) set |> List.sort_uniq Int.compare
  in
  let table = Int_list_tbl.create 64 in
  (* Ids are assigned sequentially, so a growable array of sets doubles as
     both the state store and the BFS queue (a cursor over it) — no
     polymorphic [Queue] in the hot loop. *)
  let sets = ref (Array.make 64 []) in
  let count = ref 0 in
  let id_of set =
    match Int_list_tbl.find_opt table set with
    | Some id -> id
    | None ->
        if !count >= max_states then raise (Lts.Too_many_states max_states);
        let id = !count in
        incr count;
        Int_list_tbl.add table set id;
        if id = Array.length !sets then begin
          let bigger = Array.make (2 * id) [] in
          Array.blit !sets 0 bigger 0 id;
          sets := bigger
        end;
        !sets.(id) <- set;
        id
  in
  let init = id_of (close [ lts.init ]) in
  let edges = ref [] in
  let head = ref 0 in
  while !head < !count do
    let id = !head in
    let set = !sets.(id) in
    incr head;
    (* Group the observable successors of the (already tau-closed) set. *)
    let by_label : int list Int_tbl.t = Int_tbl.create 8 in
    List.iter
      (fun s ->
        for i = lts.row.(s) to lts.row.(s + 1) - 1 do
          let l = lts.lab.(i) in
          if l <> Lts.tau then begin
            let cur = Option.value ~default:[] (Int_tbl.find_opt by_label l) in
            Int_tbl.replace by_label l (lts.tgt.(i) :: cur)
          end
        done)
      set;
    let outgoing =
      Int_tbl.fold
        (fun l targets acc ->
          { Lts.label = l; rate = None; target = id_of (close targets) } :: acc)
        by_label []
    in
    edges := (id, outgoing) :: !edges
  done;
  let n = !count in
  let trans = Array.make n [] in
  List.iter (fun (id, outgoing) -> trans.(id) <- outgoing) !edges;
  let sets = !sets in
  Lts.make ~init
    ~state_name:(fun i ->
      "{" ^ String.concat "," (List.map string_of_int sets.(i)) ^ "}")
    trans

let trace_equivalent ?jobs ?par_cutoff a b =
  strong_equivalent ?jobs ?par_cutoff (determinize a) (determinize b)

(* ------------------------------------------------------------------ *)
(* On-the-fly product refinement for the noninterference check.        *)
(* ------------------------------------------------------------------ *)

(* Drop the states a side cannot reach from its initial state: the
   equivalence class of the initial state only depends on the reachable
   part, and [Lts.restrict] (used to build the "DPM removed" side)
   leaves edge-orphaned states in place, so this prunes real work before
   any quotient or saturation runs. Returns the (possibly physically
   unchanged) LTS and the number of states dropped. *)
let restrict_reachable (lts : Lts.t) =
  let n = lts.num_states in
  let reach = Lts.reachable_from lts lts.init in
  let count = ref 0 in
  Array.iter (fun r -> if r then incr count) reach;
  if !count = n then (lts, 0)
  else begin
    let new_of_old = Array.make n (-1) in
    let old_of_new = Array.make !count 0 in
    let next = ref 0 in
    for s = 0 to n - 1 do
      if reach.(s) then begin
        new_of_old.(s) <- !next;
        old_of_new.(!next) <- s;
        incr next
      end
    done;
    let trans = Array.make !count [] in
    for i = 0 to !count - 1 do
      trans.(i) <-
        List.map
          (fun (tr : Lts.transition) ->
            { tr with Lts.target = new_of_old.(tr.target) })
          (Lts.transitions_of lts old_of_new.(i))
    done;
    let pruned =
      Lts.make ~init:new_of_old.(lts.init)
        ~state_name:(fun i -> lts.state_name old_of_new.(i))
        trans
    in
    (pruned, n - !count)
  end

(* Signature refinement watched on one state pair: identical block
   assignment discipline to [refine] (first-seen order within a round,
   parallel signature pass included), but the loop exits as soon as the
   watched states land in different blocks — retaining the pair of
   signatures that split them — or as soon as the partition is stable,
   whichever comes first. Returns [(partition, rounds, split)]. *)
let refine_watched_pass ?jobs ?par_cutoff (lts : Lts.t) ~pass ~watch =
  let jobs, par_cutoff = resolve_pool ?jobs ?par_cutoff pass in
  Dpma_obs.Trace.with_span "bisim.refine"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
      refine_loop ~watch lts ~pass ~jobs ~par_cutoff)

let refine_watched ?jobs ?par_cutoff lts ~fill ~watch =
  refine_watched_pass ?jobs ?par_cutoff lts ~pass:(plain_pass fill) ~watch

type product_trail = {
  left : Lts.t;
  right : Lts.t;
  split_round : int;
  left_signature : int array;
  right_signature : int array;
}

type product_result =
  | Product_secure of { partition : int array; rounds : int }
  | Product_insecure of product_trail

let record_product_exit ~rounds ~pruned secure =
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.add I.ni_product_rounds rounds;
  Dpma_obs.Metrics.add I.ni_product_pruned pruned;
  Dpma_obs.Metrics.incr
    (if secure then I.ni_product_secure_exits else I.ni_product_insecure_exits)

let weak_product_check ?jobs ?par_cutoff (a : Lts.t) (b : Lts.t) =
  Dpma_obs.Trace.with_span "bisim.product"
    ~attrs:
      [ ("states", Dpma_obs.Trace.Int (a.num_states + b.num_states)) ]
    (fun () ->
      let ra, pruned_a = restrict_reachable a in
      let rb, pruned_b = restrict_reachable b in
      (* [weak_partition]'s pre-reduction, performed per side so the
         unreduced union never exists. *)
      let qa, _ = weak_reduce ?jobs ?par_cutoff ra
      and qb, _ = weak_reduce ?jobs ?par_cutoff rb in
      (* Disjoint union commutes with saturation, so refining the
         unsaturated union through the weak pass sees the same
         signatures — hence the same rounds, watched exit and trail — as
         strong refinement of a saturated union would. *)
      let partition, rounds, split =
        let union, ia, ib = Lts.disjoint_union qa qb in
        let pass, sweep = weak_pass union in
        let r =
          refine_watched_pass ?jobs ?par_cutoff union ~pass ~watch:(ia, ib)
        in
        Tau.Sweep.record sweep;
        r
      in
      record_product_exit ~rounds ~pruned:(pruned_a + pruned_b)
        (Option.is_none split);
      match split with
      | None -> Product_secure { partition; rounds }
      | Some (left_signature, right_signature) ->
          Product_insecure
            { left = a; right = b; split_round = rounds; left_signature;
              right_signature })

let branching_product_secure ?jobs ?par_cutoff (a : Lts.t) (b : Lts.t) =
  Dpma_obs.Trace.with_span "bisim.product"
    ~attrs:
      [ ("states", Dpma_obs.Trace.Int (a.num_states + b.num_states)) ]
    (fun () ->
      let ra, pruned_a = restrict_reachable a in
      let rb, pruned_b = restrict_reachable b in
      let union, ia, ib = Lts.disjoint_union ra rb in
      let pass, sweep = branching_pass union in
      let _, rounds, split =
        refine_watched_pass ?jobs ?par_cutoff union ~pass ~watch:(ia, ib)
      in
      Tau.Sweep.record sweep;
      record_product_exit ~rounds ~pruned:(pruned_a + pruned_b)
        (Option.is_none split);
      Option.is_none split)

let trace_product_secure ?max_states ?jobs ?par_cutoff (a : Lts.t)
    (b : Lts.t) =
  Dpma_obs.Trace.with_span "bisim.product"
    ~attrs:
      [ ("states", Dpma_obs.Trace.Int (a.num_states + b.num_states)) ]
    (fun () ->
      let ra, pruned_a = restrict_reachable a in
      let rb, pruned_b = restrict_reachable b in
      let da = determinize ?max_states ra and db = determinize ?max_states rb in
      let union, ia, ib = Lts.disjoint_union da db in
      let _, rounds, split =
        refine_watched ?jobs ?par_cutoff union
          ~fill:(strong_fill union) ~watch:(ia, ib)
      in
      record_product_exit ~rounds ~pruned:(pruned_a + pruned_b)
        (Option.is_none split);
      Option.is_none split)
