module Term = Dpma_pa.Term
module Semantics = Dpma_pa.Semantics
module Label = Dpma_pa.Label
module Pool = Dpma_util.Pool
module I = Dpma_obs.Instruments
module M = Dpma_obs.Metrics

type label = Label.t

let tau : label = Label.tau

let obs = Label.intern

let label_name = Label.name

let is_tau l = l = 0

let label_equal : label -> label -> bool = Int.equal

(* Display order, not id order: tau first, then names alphabetically. *)
let label_compare a b =
  if a = b then 0
  else if a = tau then -1
  else if b = tau then 1
  else String.compare (Label.name a) (Label.name b)

let pp_label ppf l = Format.pp_print_string ppf (Label.name l)

type transition = { label : label; rate : Dpma_pa.Rate.t option; target : int }

type t = {
  init : int;
  num_states : int;
  state_name : int -> string;
  row : int array;
  lab : int array;
  tgt : int array;
  rate_kind : int array;
  rate_val : float array;
  rate_prio : int array;
}

exception Too_many_states of int

(* Packed rate encoding, shared by [pack] and the builder's edge store. *)
let store_rate ~kind ~prio ~value i (rate : Dpma_pa.Rate.t) =
  match rate with
  | Exp lambda ->
      kind.(i) <- 1;
      value.(i) <- lambda
  | Imm { prio = p; weight } ->
      kind.(i) <- 2;
      value.(i) <- weight;
      prio.(i) <- p
  | Passive { weight } ->
      kind.(i) <- 3;
      value.(i) <- weight

let pack ~init ~state_name (trans : transition list array) =
  let n = Array.length trans in
  let m = Array.fold_left (fun acc l -> acc + List.length l) 0 trans in
  let row = Array.make (n + 1) 0 in
  let lab = Array.make m 0 in
  let tgt = Array.make m 0 in
  let rate_kind = Array.make m 0 in
  let rate_val = Array.make m 0.0 in
  let rate_prio = Array.make m 0 in
  let e = ref 0 in
  for s = 0 to n - 1 do
    row.(s) <- !e;
    List.iter
      (fun tr ->
        let i = !e in
        lab.(i) <- tr.label;
        tgt.(i) <- tr.target;
        Option.iter
          (store_rate ~kind:rate_kind ~prio:rate_prio ~value:rate_val i)
          tr.rate;
        incr e)
      trans.(s)
  done;
  row.(n) <- !e;
  { init; num_states = n; state_name; row; lab; tgt; rate_kind; rate_val;
    rate_prio }

let make ~init ~state_name trans =
  let t0 = Dpma_obs.Clock.now_s () in
  let lts = pack ~init ~state_name trans in
  M.observe I.lts_csr_pack_seconds (Dpma_obs.Clock.now_s () -. t0);
  lts

let rate_of lts i =
  match lts.rate_kind.(i) with
  | 0 -> None
  | 1 -> Some (Dpma_pa.Rate.Exp lts.rate_val.(i))
  | 2 ->
      Some (Dpma_pa.Rate.Imm { prio = lts.rate_prio.(i); weight = lts.rate_val.(i) })
  | _ -> Some (Dpma_pa.Rate.Passive { weight = lts.rate_val.(i) })

let transitions_of lts s =
  let rec go i acc =
    if i < lts.row.(s) then acc
    else
      go (i - 1)
        ({ label = lts.lab.(i); rate = rate_of lts i; target = lts.tgt.(i) }
        :: acc)
  in
  go (lts.row.(s + 1) - 1) []

let out_degree lts s = lts.row.(s + 1) - lts.row.(s)

(* --- Chunked segment storage ---------------------------------------- *)

(* The builder accumulates edges, row offsets, and state terms in
   fixed-size segments instead of contiguous grow-by-doubling arrays: no
   O(n) copy spikes while exploring, and peak memory is (data + one
   segment) instead of (data + a 2x copy) right at the growth points.
   Edge and row segments live in a {!Segstore}, which can spill full
   segments to a memory-mapped temp file under a resident-byte budget;
   term segments stay resident here — the frontier and the lazy
   [state_name] closure read them at random. *)

let seg_bits = 16

let seg_size = 1 lsl seg_bits

let seg_mask = seg_size - 1

let word_seg_bytes = 8 * seg_size

type term_store = {
  mutable t_segs : Term.t array array;
  mutable t_nsegs : int;
  mutable t_total : int;
}

let term_store () =
  { t_segs = Array.make 4 [||]; t_nsegs = 0; t_total = 0 }

let push_term st term =
  let i = st.t_total in
  let si = i lsr seg_bits in
  if si = st.t_nsegs then begin
    if si = Array.length st.t_segs then begin
      let bigger = Array.make (2 * si) [||] in
      Array.blit st.t_segs 0 bigger 0 si;
      st.t_segs <- bigger
    end;
    st.t_segs.(si) <- Array.make seg_size Term.stop;
    st.t_nsegs <- si + 1
  end;
  st.t_segs.(si).(i land seg_mask) <- term;
  st.t_total <- i + 1

let get_term st i = st.t_segs.(i lsr seg_bits).(i land seg_mask)

(* --- Level-synchronous builder -------------------------------------- *)

type build_stats = {
  jobs : int;
  rounds : int;
  peak_frontier : int;
  merge_seconds : float;
  segments : int;
  segment_bytes_peak : int;
  spilled_segments : int;
  spilled_bytes : int;
  spill_write_seconds : float;
  build_seconds : float;
}

type bfs = {
  roots : int array;
  csr : t;
  term : int -> Term.t;
  guard : int array;
  stats : build_stats;
}

(* Below this frontier size a parallel round costs more in domain traffic
   (spawn + join is a couple of milliseconds per round) than it saves;
   derive in the coordinating domain instead. The cutoff scales with the
   job count because the spawn cost does, while the per-worker slice of a
   fixed frontier shrinks; on a machine that cannot run two domains at
   once no frontier is worth dealing out. Scheduling only — results are
   identical either way. *)
let par_round_threshold ~jobs =
  if Pool.hardware_parallelism () <= 1 then max_int else 256 * jobs

let bfs ~phase ?(partial = []) ~t0 ~max_states ?jobs ?par_threshold
    ?spill_dir ?max_resident_bytes ?seg_bits:store_seg_bits ~guarded ~roots
    ~shard ~derive_in ~finish ~emit () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let par_threshold =
    match par_threshold with
    | Some t -> max 0 t
    | None -> par_round_threshold ~jobs
  in
  (* Hash-consed terms carry dense uids, so the state table is an array
     indexed by uid (-1: not a state yet), grown by doubling: at most one
     word per term, next to the seven or more each term already pins. *)
  let ids = ref (Array.make (max 1024 (Term.hashcons_count ())) (-1)) in
  let terms = term_store () in
  let pol =
    Segstore.policy ?spill_dir ?max_resident_bytes ?seg_bits:store_seg_bits ()
  in
  (* The spill temp file must be gone on every exit — normal completion,
     Too_many_states, and a tripped resource guard alike. *)
  Fun.protect ~finally:(fun () -> Segstore.finish pol) @@ fun () ->
  let int_cols = if guarded then 5 else 4 in
  let edges = Segstore.create pol ~int_cols ~float_col:true in
  let rows = Segstore.create pol ~int_cols:1 ~float_col:false in
  let count = ref 0 in
  let id_of (term : Term.t) =
    let uid = term.Term.uid in
    if uid >= Array.length !ids then begin
      let bigger = Array.make (max (uid + 1) (2 * Array.length !ids)) (-1) in
      Array.blit !ids 0 bigger 0 (Array.length !ids);
      ids := bigger
    end;
    let id = !ids.(uid) in
    if id >= 0 then id
    else begin
      if !count >= max_states then raise (Too_many_states max_states);
      let id = !count in
      incr count;
      !ids.(uid) <- id;
      push_term terms term;
      id
    end
  in
  let push_edge lab k rate g =
    let tgt = id_of k in
    let seg, o = Segstore.push_slot edges in
    let ints = seg.Segstore.ints in
    ints.(0).(o) <- lab;
    ints.(1).(o) <- tgt;
    if guarded then ints.(4).(o) <- g;
    store_rate ~kind:ints.(2) ~prio:ints.(3) ~value:seg.Segstore.floats o rate
  in
  let push_row v =
    let seg, o = Segstore.push_slot rows in
    seg.Segstore.ints.(0).(o) <- v
  in
  (* Seed every root; hash-consing deduplicates equal roots in order. *)
  let roots = Array.map id_of roots in
  let rounds = ref 0 and peak_frontier = ref 0 and merge_s = ref 0.0 in
  (* States are numbered in merge order, so the frontier of a round is
     always a contiguous id range: the states appended by the previous
     round. Workers derive successors of frontier slices into private
     buffers (with private SOS memo shards); the coordinator then merges
     the slices in frontier order, which pins state numbering and edge
     order (and guard interning order) to the sequential ones for any job
     count. *)
  let partial () =
    partial
    @ [ ("states", float_of_int !count);
        ("transitions", float_of_int (Segstore.total edges));
        ("rounds", float_of_int !rounds) ]
  in
  let lo = ref 0 in
  while !lo < !count do
    Dpma_util.Guard.poll ~partial ~phase ();
    let hi = !count in
    incr rounds;
    let fsize = hi - !lo in
    if fsize > !peak_frontier then peak_frontier := fsize;
    M.observe I.lts_par_frontier (float_of_int fsize);
    let base = !lo in
    let frontier = Array.init fsize (fun i -> get_term terms (base + i)) in
    let derived =
      if jobs = 1 || fsize < par_threshold then begin
        let sh = shard () in
        let out = Array.map (derive_in sh) frontier in
        finish sh;
        out
      end
      else
        Pool.map_chunks_ordered ~jobs
          ~chunk:(Pool.recommended_chunk ~n:fsize ~jobs)
          ~init:shard ~f:derive_in ~finish frontier
    in
    let tm = Dpma_obs.Clock.now_s () in
    for i = 0 to fsize - 1 do
      push_row (Segstore.total edges);
      emit derived.(i) push_edge
    done;
    merge_s := !merge_s +. (Dpma_obs.Clock.now_s () -. tm);
    lo := hi
  done;
  let n = !count in
  let nedges = Segstore.total edges in
  (* Compact the segments into the flat CSR arrays, once; spilled
     segments are read back from the temp file here, bit-identical. *)
  let t_pack = Dpma_obs.Clock.now_s () in
  let row = Array.make (n + 1) 0 in
  Segstore.compact_into rows ~ints:[| row |] ~floats:[||] ~n;
  row.(n) <- nedges;
  let lab = Array.make nedges 0 in
  let tgt = Array.make nedges 0 in
  let rate_kind = Array.make nedges 0 in
  let rate_val = Array.make nedges 0.0 in
  let rate_prio = Array.make nedges 0 in
  let guard = if guarded then Array.make nedges 0 else [||] in
  Segstore.compact_into edges
    ~ints:
      (if guarded then [| lab; tgt; rate_kind; rate_prio; guard |]
       else [| lab; tgt; rate_kind; rate_prio |])
    ~floats:[| rate_val |] ~n:nedges;
  M.observe I.lts_csr_pack_seconds (Dpma_obs.Clock.now_s () -. t_pack);
  M.add I.lts_par_rounds !rounds;
  M.observe I.lts_par_merge_seconds !merge_s;
  let segments = Segstore.nsegs edges + Segstore.nsegs rows + terms.t_nsegs in
  let sp = Segstore.stats pol in
  (* Resident high-water of the edge/row segments (spilled segments leave
     it), plus the term segments, which are only freed at the end. *)
  let segment_bytes_peak =
    sp.Segstore.resident_bytes_peak + (terms.t_nsegs * word_seg_bytes)
  in
  M.add I.lts_par_segments segments;
  M.set I.lts_par_segment_bytes (float_of_int segment_bytes_peak);
  Segstore.record_metrics pol;
  (* Cut the last term segment to its used length (there is one: every
     build has a root). The store outlives the build (state names, family
     projections), and a small build must not pin a whole segment. *)
  let last = terms.t_nsegs - 1 in
  terms.t_segs.(last) <-
    Array.sub terms.t_segs.(last) 0 (n - (last lsl seg_bits));
  let term = get_term terms in
  (* State names are rendered lazily: they are only needed in diagnostics. *)
  let csr =
    { init = roots.(0); num_states = n;
      state_name = (fun i -> Term.to_string (term i));
      row; lab; tgt; rate_kind; rate_val; rate_prio }
  in
  { roots; csr; term; guard;
    stats =
      { jobs; rounds = !rounds; peak_frontier = !peak_frontier;
        merge_seconds = !merge_s; segments; segment_bytes_peak;
        spilled_segments = sp.Segstore.spilled_segments;
        spilled_bytes = sp.Segstore.spilled_bytes;
        spill_write_seconds = sp.Segstore.spill_write_seconds;
        build_seconds = Dpma_obs.Clock.now_s () -. t0 } }

let build ?(max_states = 500_000) ?jobs ?par_threshold ?spill_dir
    ?max_resident_bytes ?seg_bits (spec : Term.spec) =
  Dpma_obs.Trace.with_span "lts.build" (fun () ->
  let t0 = Dpma_obs.Clock.now_s () in
  let engine = Semantics.make spec.defs in
  let finish sh =
    let s = Semantics.shard_stats sh in
    M.observe I.lts_par_derives_per_worker
      (float_of_int (s.Semantics.hits + s.Semantics.misses));
    Semantics.merge_shard sh
  in
  let b =
    bfs ~phase:"lts.build" ~t0 ~max_states ?jobs ?par_threshold ?spill_dir
      ?max_resident_bytes ?seg_bits ~guarded:false ~roots:[| spec.init |]
      ~shard:(fun () -> Semantics.shard engine)
      ~derive_in:Semantics.derive_in ~finish
      ~emit:(fun steps push ->
        List.iter (fun (label, rate, k) -> push label k rate 0) steps)
      ()
  in
  let lts = b.csr in
  M.incr I.lts_builds;
  M.add I.lts_states lts.num_states;
  M.add I.lts_transitions (Array.length lts.lab);
  let stats = Semantics.stats engine in
  M.add I.sos_memo_hits stats.Semantics.hits;
  M.add I.sos_memo_misses stats.Semantics.misses;
  M.set I.pa_terms (float_of_int (Term.hashcons_count ()));
  M.set I.pa_labels (float_of_int (Label.count ()));
  M.observe I.lts_build_seconds b.stats.build_seconds;
  (lts, b.stats))

let of_spec ?max_states ?jobs ?par_threshold ?spill_dir ?max_resident_bytes
    ?seg_bits spec =
  fst
    (build ?max_states ?jobs ?par_threshold ?spill_dir ?max_resident_bytes
       ?seg_bits spec)

let num_transitions lts = lts.row.(lts.num_states)

let labels lts =
  let module Iset = Set.Make (Int) in
  let set = ref Iset.empty in
  Array.iter (fun l -> set := Iset.add l !set) lts.lab;
  Iset.elements !set |> List.sort label_compare

let enabled lts s =
  let rec go i acc =
    if i >= lts.row.(s + 1) then acc else go (i + 1) (lts.lab.(i) :: acc)
  in
  go lts.row.(s) [] |> List.sort_uniq label_compare

let enables_label lts s l =
  let rec go i =
    i < lts.row.(s + 1) && (lts.lab.(i) = l || go (i + 1))
  in
  go lts.row.(s)

let enables_action lts s a =
  match Label.find a with
  | None -> false
  | Some l -> l <> tau && enables_label lts s l

let successors lts s l =
  let rec go i acc =
    if i < lts.row.(s) then acc
    else go (i - 1) (if lts.lab.(i) = l then lts.tgt.(i) :: acc else acc)
  in
  go (lts.row.(s + 1) - 1) [] |> List.sort_uniq Int.compare

let deadlock_states lts =
  let out = ref [] in
  for s = lts.num_states - 1 downto 0 do
    if lts.row.(s + 1) = lts.row.(s) then out := s :: !out
  done;
  !out

let reachable_from lts start =
  (* Monomorphic BFS: every state enters the queue at most once, so a flat
     int array of capacity [num_states] with head/tail cursors replaces the
     polymorphic [Queue]. *)
  let seen = Array.make lts.num_states false in
  let queue = Array.make lts.num_states 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(start) <- true;
  queue.(!tail) <- start;
  incr tail;
  while !head < !tail do
    let s = queue.(!head) in
    incr head;
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      let t = lts.tgt.(i) in
      if not seen.(t) then begin
        seen.(t) <- true;
        queue.(!tail) <- t;
        incr tail
      end
    done
  done;
  seen

let disjoint_union a b =
  let n = a.num_states + b.num_states in
  let ma = num_transitions a and mb = num_transitions b in
  let m = ma + mb in
  let row = Array.make (n + 1) 0 in
  Array.blit a.row 0 row 0 (a.num_states + 1);
  for s = 0 to b.num_states do
    row.(a.num_states + s) <- ma + b.row.(s)
  done;
  let append av bv =
    let out = Array.append av bv in
    out
  in
  let lab = append a.lab b.lab in
  let tgt = Array.make m 0 in
  Array.blit a.tgt 0 tgt 0 ma;
  for i = 0 to mb - 1 do
    tgt.(ma + i) <- b.tgt.(i) + a.num_states
  done;
  let rate_kind = append a.rate_kind b.rate_kind in
  let rate_val = append a.rate_val b.rate_val in
  let rate_prio = append a.rate_prio b.rate_prio in
  let state_name i =
    if i < a.num_states then a.state_name i
    else b.state_name (i - a.num_states)
  in
  let union =
    { init = a.init; num_states = n; state_name; row; lab; tgt; rate_kind;
      rate_val; rate_prio }
  in
  (union, a.init, b.init + a.num_states)

(* Monomorphic dedup table over (block, label, target block) triples. *)
module Triple = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2

  let hash (a, b, c) = (((a * 31) + b) * 31) + c
end

module Triple_tbl = Hashtbl.Make (Triple)

let quotient_impl lts block =
  let num_blocks = 1 + Array.fold_left max (-1) block in
  let seen = Triple_tbl.create 64 in
  let trans = Array.make num_blocks [] in
  let representative = Array.make num_blocks (-1) in
  for s = lts.num_states - 1 downto 0 do
    representative.(block.(s)) <- s
  done;
  for s = 0 to lts.num_states - 1 do
    let b = block.(s) in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      let key = (b, lts.lab.(i), block.(lts.tgt.(i))) in
      if not (Triple_tbl.mem seen key) then begin
        Triple_tbl.add seen key ();
        trans.(b) <-
          { label = lts.lab.(i); rate = rate_of lts i;
            target = block.(lts.tgt.(i)) }
          :: trans.(b)
      end
    done
  done;
  make ~init:block.(lts.init)
    ~state_name:(fun b -> lts.state_name representative.(b))
    trans

let quotient lts block =
  Dpma_obs.Trace.with_span "lts.quotient"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
      quotient_impl lts block)

let map_labels lts f =
  (* Rebuild the CSR arrays directly, keeping edge order. [f] runs once
     per distinct label, on the label's first edge; [memo] holds its
     answer by label id: the new label, [-1] for dropped, [-2] for not
     asked yet. *)
  let m = num_transitions lts in
  let memo = Array.make (1 + Array.fold_left max 0 lts.lab) (-2) in
  let keep = Array.make m false in
  let new_lab = Array.make m 0 in
  let kept = ref 0 in
  for i = 0 to m - 1 do
    let l = lts.lab.(i) in
    if memo.(l) = -2 then
      memo.(l) <- (match f l with Some l' -> l' | None -> -1);
    let l' = memo.(l) in
    if l' >= 0 then begin
      keep.(i) <- true;
      new_lab.(i) <- l';
      incr kept
    end
  done;
  let m' = !kept in
  let row = Array.make (lts.num_states + 1) 0 in
  let lab = Array.make m' 0 in
  let tgt = Array.make m' 0 in
  let rate_kind = Array.make m' 0 in
  let rate_val = Array.make m' 0.0 in
  let rate_prio = Array.make m' 0 in
  let e = ref 0 in
  for s = 0 to lts.num_states - 1 do
    row.(s) <- !e;
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if keep.(i) then begin
        lab.(!e) <- new_lab.(i);
        tgt.(!e) <- lts.tgt.(i);
        rate_kind.(!e) <- lts.rate_kind.(i);
        rate_val.(!e) <- lts.rate_val.(i);
        rate_prio.(!e) <- lts.rate_prio.(i);
        incr e
      end
    done
  done;
  row.(lts.num_states) <- !e;
  { lts with row; lab; tgt; rate_kind; rate_val; rate_prio }

let hide_all_but lts ~keep =
  map_labels lts (fun l ->
      if l = tau then Some tau
      else if keep (Label.name l) then Some l
      else Some tau)

let restrict lts ~remove =
  map_labels lts (fun l ->
      if l = tau then Some tau
      else if remove (Label.name l) then None
      else Some l)

let pp_stats ppf lts =
  Format.fprintf ppf "%d states, %d transitions, %d labels" lts.num_states
    (num_transitions lts)
    (List.length (labels lts))

let quotient_by_representative lts block =
  let num_blocks = 1 + Array.fold_left max (-1) block in
  let representative = Array.make num_blocks (-1) in
  for s = lts.num_states - 1 downto 0 do
    representative.(block.(s)) <- s
  done;
  let trans =
    Array.init num_blocks (fun b ->
        transitions_of lts representative.(b)
        |> List.map (fun tr -> { tr with target = block.(tr.target) }))
  in
  make ~init:block.(lts.init)
    ~state_name:(fun b -> lts.state_name representative.(b))
    trans

let pp_dot ?(max_states = 2000) ppf lts =
  if lts.num_states > max_states then
    invalid_arg
      (Printf.sprintf "Lts.pp_dot: %d states exceed the %d-state rendering limit"
         lts.num_states max_states);
  (* Backslashes must be escaped before quotes: escaping quotes first
     would double the backslashes it just introduced. *)
  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        (match c with '\\' | '"' -> Buffer.add_char buf '\\' | _ -> ());
        Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  Format.fprintf ppf "digraph lts {@.";
  Format.fprintf ppf "  rankdir=LR;@.  node [shape=circle, fontsize=10];@.";
  Format.fprintf ppf "  %d [shape=doublecircle];@." lts.init;
  for s = 0 to lts.num_states - 1 do
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      let rate =
        match rate_of lts i with
        | None -> ""
        | Some r -> Format.asprintf ", %a" Dpma_pa.Rate.pp r
      in
      Format.fprintf ppf "  %d -> %d [label=\"%s%s\"];@." s lts.tgt.(i)
        (escape (Label.name lts.lab.(i)))
        (escape rate)
    done
  done;
  Format.fprintf ppf "}@."
