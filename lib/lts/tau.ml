(* On-the-fly weak saturation: tau-SCC condensation of the packed CSR,
   a per-round closure sweep for weak signatures, and a per-state cache
   for branching signatures.

   [Bisim]'s weak pass asks, each refinement round, for the weak
   signature of every state — the packed (label, block) pairs reachable
   through [=tau*=> -a-> =tau*=>] moves — without materializing the
   saturated transition relation. All states of one tau-SCC are mutually
   tau-reachable and therefore share one weak signature, so the unit of
   computation is a component of the condensation DAG. Two layers:

     C(c) = blocks of the states tau-reachable from c
          = member blocks of c  U  C(d), for condensed tau edges c -> d
     W(c) = { pack(tau, b) | b in C(c) }
          U  { pack(a, b)  | member x of c, observable x -a-> u,
                             b in C(comp(u)) }
          U  W(d), for condensed tau edges c -> d

   W(c), sorted and deduped, is exactly the strong signature the states
   of [c] carry on the saturated LTS: the tau part enumerates the
   [=tau*=>] targets per block, and the observable part unions, over
   every tau-reachable emitter (own members plus, transitively through
   the W(d) terms, the members of every DAG-reachable component), the
   tau-closure blocks of its observable successors. Refinement over
   these signatures is therefore round-for-round bit-identical to strong
   refinement of the materialized saturation.

   Tarjan numbers every condensed tau dependency below its component, so
   one ascending pass over the components fills C, and a second fills W
   — W also reads the C of observable target components, which can sit
   anywhere in the DAG, hence two passes rather than one. [Weak] runs
   both passes once per refinement round into flat offset/data arenas
   that live as long as the weak pass and are reused across rounds
   (docs/WEAK_EQUIVALENCE.md works out the memory model). *)

module Scc = Dpma_util.Scc

(* Must match [Bisim]'s packing exactly: the arrays produced here feed
   the same signature tables the saturated oracle path fills. *)
let pack_pair label block = (label lsl 31) lor block

let block_mask = (1 lsl 31) - 1

module Int_key = struct
  type t = int

  let equal : int -> int -> bool = Int.equal

  let hash x = (x * 0x9E37_79B9) land max_int
end

module Int_tbl = Hashtbl.Make (Int_key)

type condensation = {
  num_comps : int;
  comp_of : int array;
  tau_row : int array;
  tau_tgt : int array;
  mem_row : int array;
  members : int array;
}

let condense (lts : Lts.t) =
  let n = lts.num_states in
  let tau_succ s =
    let rec go i acc =
      if i < lts.row.(s) then acc
      else
        go (i - 1) (if lts.lab.(i) = Lts.tau then lts.tgt.(i) :: acc else acc)
    in
    go (lts.row.(s + 1) - 1) []
  in
  let comps = Scc.tarjan ~succ:tau_succ n in
  let comp_of = Scc.component_index ~n comps in
  let num_comps = List.length comps in
  (* Member states of each component, grouped by counting sort. *)
  let mem_row = Array.make (num_comps + 1) 0 in
  for s = 0 to n - 1 do
    mem_row.(comp_of.(s) + 1) <- mem_row.(comp_of.(s) + 1) + 1
  done;
  for c = 1 to num_comps do
    mem_row.(c) <- mem_row.(c) + mem_row.(c - 1)
  done;
  let members = Array.make n 0 in
  let cursor = Array.copy mem_row in
  for s = 0 to n - 1 do
    let c = comp_of.(s) in
    members.(cursor.(c)) <- s;
    cursor.(c) <- cursor.(c) + 1
  done;
  (* Condensed tau edges, deduped, self-loops dropped. Tarjan returns
     components in reverse topological order, so every kept edge points
     to a strictly smaller id: a component's tau dependencies always
     carry smaller ids than the component itself. *)
  let succs = Array.make (max 1 num_comps) [] in
  for s = 0 to n - 1 do
    let c = comp_of.(s) in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if lts.lab.(i) = Lts.tau then begin
        let d = comp_of.(lts.tgt.(i)) in
        if d <> c then succs.(c) <- d :: succs.(c)
      end
    done
  done;
  let tau_row = Array.make (num_comps + 1) 0 in
  let uniq =
    Array.init num_comps (fun c ->
        Array.of_list (List.sort_uniq Int.compare succs.(c)))
  in
  for c = 0 to num_comps - 1 do
    tau_row.(c + 1) <- tau_row.(c) + Array.length uniq.(c)
  done;
  let tau_tgt = Array.make (max 1 tau_row.(num_comps)) 0 in
  for c = 0 to num_comps - 1 do
    Array.blit uniq.(c) 0 tau_tgt tau_row.(c) (Array.length uniq.(c))
  done;
  { num_comps; comp_of; tau_row; tau_tgt; mem_row; members }

(* ------------------------------------------------------------------ *)
(* Flat sorting                                                         *)

(* Sift [a.(root)] down the max-heap [a.(0 .. len - 1)] ordered by [lt]. *)
let rec sift_down lt (a : int array) root len =
  let child = (2 * root) + 1 in
  if child < len then begin
    let child =
      if child + 1 < len && lt a.(child) a.(child + 1) then child + 1
      else child
    in
    if lt a.(root) a.(child) then begin
      let x = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- x;
      sift_down lt a child len
    end
  end

let heapsort_by lt (a : int array) n =
  for i = (n / 2) - 1 downto 0 do
    sift_down lt a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down lt a 0 last
  done

let sort_prefix (a : int array) n =
  if n > 16 then heapsort_by (fun (x : int) y -> x < y) a n
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let grow a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* ------------------------------------------------------------------ *)
(* Weak signatures: one C / W sweep per refinement round               *)

module Weak = struct
  (* C and W in CSR form: component [c]'s closure is
     [c_data.(c_row.(c) .. c_row.(c + 1) - 1)], sorted and deduped, and
     likewise for W. The data arenas, the union scratch [buf] and the
     dedup set only grow, so a weak pass allocates them once and every
     later round overwrites them in place.

     A union is deduplicated as it is pushed: [buf] receives only the
     entries the set has not seen for the current union, so the sort at
     flush time runs on the distinct entries, not on the multiset of
     every tau successor's closure. The set is open-addressed with
     linear probing; slot [i] holds [set_key.(i)] iff
     [set_stamp.(i) = gen], so bumping [gen] empties it in O(1). It lives
     in the record, not at module level, so refinements on different
     domains never share it. *)
  type t = {
    lts : Lts.t;
    cond : condensation;
    c_row : int array;
    mutable c_data : int array;
    w_row : int array;
    mutable w_data : int array;
    mutable buf : int array;
    mutable len : int;
    mutable set_key : int array;
    mutable set_stamp : int array;
    mutable gen : int;
  }

  (* Initial dedup-set capacity (a power of two): unions of up to half
     as many distinct entries never regrow it. *)
  let set_capacity = 64

  let create (lts : Lts.t) =
    let cond =
      Dpma_obs.Trace.with_span "bisim.tau.condense"
        ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
          condense lts)
    in
    let k = cond.num_comps in
    (* Sized for the tau-thin shape (singleton components: one block in
       C, one tau pair plus the out-degree in W); denser models grow the
       arenas during the first sweep. *)
    {
      lts;
      cond;
      c_row = Array.make (k + 1) 0;
      c_data = Array.make (max 1 k) 0;
      w_row = Array.make (k + 1) 0;
      w_data = Array.make (max 1 (k + Lts.num_transitions lts)) 0;
      buf = Array.make set_capacity 0;
      len = 0;
      set_key = Array.make set_capacity 0;
      set_stamp = Array.make set_capacity 0;
      gen = 1;
    }

  (* Packed pairs differ from each other in their high (label) bits as
     often as in their low (block) bits: fold the high half of the
     product down before masking. *)
  let slot x mask =
    let h = x * 0x2545_F491_4F6C_DD1D in
    (h lxor (h lsr 29)) land mask

  (* Insert [x] into the current union's set; [true] iff it was new. *)
  let insert t x =
    let mask = Array.length t.set_key - 1 in
    let i = ref (slot x mask) in
    let result = ref 0 in
    while !result = 0 do
      if t.set_stamp.(!i) <> t.gen then begin
        t.set_stamp.(!i) <- t.gen;
        t.set_key.(!i) <- x;
        result := 1
      end
      else if t.set_key.(!i) = x then result := 2
      else i := (!i + 1) land mask
    done;
    !result = 1

  (* Double the set and re-insert the union so far: [buf] holds exactly
     its distinct entries. *)
  let grow_set t =
    let cap = 2 * Array.length t.set_key in
    t.set_key <- Array.make cap 0;
    t.set_stamp <- Array.make cap 0;
    for i = 0 to t.len - 1 do
      ignore (insert t t.buf.(i))
    done

  let push t x =
    if insert t x then begin
      if t.len = Array.length t.buf then t.buf <- grow t.buf (t.len + 1);
      t.buf.(t.len) <- x;
      t.len <- t.len + 1;
      if 2 * t.len > Array.length t.set_key then grow_set t
    end

  (* Sort the union's distinct entries, append them to [data] at [pos],
     empty the set, and return the (possibly regrown) arena. *)
  let flush t data pos =
    let n = t.len in
    sort_prefix t.buf n;
    let data = grow data (pos + n) in
    for k = 0 to n - 1 do
      data.(pos + k) <- t.buf.(k)
    done;
    t.len <- 0;
    t.gen <- t.gen + 1;
    (data, pos + n)

  let sweep t block =
    let cond = t.cond and lts = t.lts in
    let k = cond.num_comps in
    (* Pass 1: C. Every condensed tau target [d] of [c] is below [c], so
       its closure is complete — and [c_row.(d + 1)] already set — when
       [c] is reached. *)
    let pos = ref 0 in
    for c = 0 to k - 1 do
      t.c_row.(c) <- !pos;
      for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
        push t block.(cond.members.(i))
      done;
      for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
        let d = cond.tau_tgt.(i) in
        for j = t.c_row.(d) to t.c_row.(d + 1) - 1 do
          push t t.c_data.(j)
        done
      done;
      let data, p = flush t t.c_data !pos in
      t.c_data <- data;
      pos := p
    done;
    t.c_row.(k) <- !pos;
    (* Pass 2: W, reading C anywhere in the DAG and W below [c]. *)
    pos := 0;
    for c = 0 to k - 1 do
      t.w_row.(c) <- !pos;
      for j = t.c_row.(c) to t.c_row.(c + 1) - 1 do
        push t (pack_pair Lts.tau t.c_data.(j))
      done;
      for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
        let d = cond.tau_tgt.(i) in
        for j = t.w_row.(d) to t.w_row.(d + 1) - 1 do
          push t t.w_data.(j)
        done
      done;
      for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
        let x = cond.members.(i) in
        for e = lts.row.(x) to lts.row.(x + 1) - 1 do
          let l = lts.lab.(e) in
          if l <> Lts.tau then begin
            let u = cond.comp_of.(lts.tgt.(e)) in
            for j = t.c_row.(u) to t.c_row.(u + 1) - 1 do
              push t (pack_pair l t.c_data.(j))
            done
          end
        done
      done;
      let data, p = flush t t.w_data !pos in
      t.w_data <- data;
      pos := p
    done;
    t.w_row.(k) <- !pos

  let signature_length t s =
    let c = t.cond.comp_of.(s) in
    t.w_row.(c + 1) - t.w_row.(c)

  let blit_signature t s dst =
    let c = t.cond.comp_of.(s) in
    let lo = t.w_row.(c) in
    for k = 0 to t.w_row.(c + 1) - lo - 1 do
      dst.(k) <- t.w_data.(lo + k)
    done

  let record t =
    let module I = Dpma_obs.Instruments in
    let module M = Dpma_obs.Metrics in
    (* The arrays only grow, so their size is the high-water mark. *)
    let words =
      Array.length t.c_row + Array.length t.c_data + Array.length t.w_row
      + Array.length t.w_data + Array.length t.buf
      + Array.length t.set_key + Array.length t.set_stamp
    in
    M.set I.bisim_tau_components (float_of_int t.cond.num_comps);
    M.set I.bisim_tau_closure_bytes (float_of_int (8 * words))
end

(* ------------------------------------------------------------------ *)
(* Materialized saturation                                              *)

(* The weak sweep and the branching cache answer signature queries
   without ever building the double-arrow relation; the functions below
   build it, for the few places that need actual weak transitions:
   [Bisim.minimize_weak]'s output (saturated at quotient size) and the
   diagnostics replay of a distinguishing formula over a small model. *)

let tau_closure (lts : Lts.t) =
  (* For each state, the set of states reachable through tau transitions,
     including itself, as a sorted int list. *)
  let n = lts.num_states in
  let closure = Array.make n [] in
  let scratch = Array.make n false in
  for s = 0 to n - 1 do
    let seen = scratch in
    let stack = ref [ s ] in
    let acc = ref [] in
    seen.(s) <- true;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
          stack := rest;
          acc := x :: !acc;
          for i = lts.row.(x) to lts.row.(x + 1) - 1 do
            let t = lts.tgt.(i) in
            if lts.lab.(i) = Lts.tau && not seen.(t) then begin
              seen.(t) <- true;
              stack := t :: !stack
            end
          done
    done;
    List.iter (fun x -> scratch.(x) <- false) !acc;
    closure.(s) <- List.sort Int.compare !acc
  done;
  closure

let saturate_impl (lts : Lts.t) =
  let n = lts.num_states in
  let closure = tau_closure lts in
  let trans = Array.make n [] in
  let seen = Int_tbl.create 256 in
  for s = 0 to n - 1 do
    Int_tbl.reset seen;
    let add label target =
      let key = pack_pair label target in
      if not (Int_tbl.mem seen key) then begin
        Int_tbl.add seen key ();
        trans.(s) <- { Lts.label; rate = None; target } :: trans.(s)
      end
    in
    (* s =tau*=> s' gives weak internal moves to everything in closure. *)
    List.iter (fun s' -> add Lts.tau s') closure.(s);
    (* s =tau*=> s1 -a-> s2 =tau*=> t gives weak observable moves. *)
    List.iter
      (fun s1 ->
        for i = lts.row.(s1) to lts.row.(s1 + 1) - 1 do
          let l = lts.lab.(i) in
          if l <> Lts.tau then
            List.iter (fun t -> add l t) closure.(lts.tgt.(i))
        done)
      closure.(s)
  done;
  Lts.make ~init:lts.init ~state_name:lts.state_name trans

let saturate ?(traced = true) lts =
  if traced then
    Dpma_obs.Trace.with_span "bisim.saturate"
      ~attrs:[ ("states", Dpma_obs.Trace.Int lts.Lts.num_states) ] (fun () ->
        saturate_impl lts)
  else saturate_impl lts

(* ------------------------------------------------------------------ *)
(* Interning and cross-round renaming for the branching cache           *)

module Arr_key = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
    !ok

  let hash (a : int array) =
    let h = ref (Array.length a + 1) in
    Array.iter (fun x -> h := (!h * 31) + x) a;
    !h land max_int
end

module Arr_tbl = Hashtbl.Make (Arr_key)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable remaps : int;
  mutable invalidations : int;
  mutable bytes : int;
  mutable bytes_peak : int;
}

let fresh_stats () =
  { hits = 0; misses = 0; remaps = 0; invalidations = 0; bytes = 0;
    bytes_peak = 0 }

(* One word of header plus one word per element. *)
let array_bytes a = 8 * (Array.length a + 1)

let intern pool st arr =
  match Arr_tbl.find_opt pool arr with
  | Some canonical -> canonical
  | None ->
      Arr_tbl.add pool arr arr;
      st.bytes <- st.bytes + array_bytes arr;
      if st.bytes > st.bytes_peak then st.bytes_peak <- st.bytes;
      arr

let renaming ~old_block ~new_block =
  let num_old = 1 + Array.fold_left max (-1) old_block in
  let rename = Array.make (max 1 num_old) (-2) in
  Array.iteri
    (fun s ob ->
      let nb = new_block.(s) in
      if rename.(ob) = -2 then rename.(ob) <- nb
      else if rename.(ob) <> nb then rename.(ob) <- -1)
    old_block;
  rename

let remap_pairs rename arr =
  let k = Array.length arr in
  let out = Array.make k 0 in
  try
    for i = 0 to k - 1 do
      let p = arr.(i) in
      let nb = rename.(p land block_mask) in
      if nb < 0 then raise Exit;
      out.(i) <- (p land lnot block_mask) lor nb
    done;
    (* The rename is not monotone, so re-sort; no re-dedup is needed
       because the rename is injective on unsplit blocks (a refinement
       key includes the old block, so a new block never spans two old
       ones). *)
    Array.sort Int.compare out;
    Some out
  with Exit -> None

(* ------------------------------------------------------------------ *)
(* Branching signatures: per-state cache                                *)

module Branching = struct
  type t = {
    lts : Lts.t;
    pool : int array Arr_tbl.t;
    sigs : int array option array;
    stats : stats;
  }

  let create (lts : Lts.t) =
    { lts; pool = Arr_tbl.create 256;
      sigs = Array.make (max 1 lts.num_states) None; stats = fresh_stats () }

  let bytes_peak t = t.stats.bytes_peak

  (* The Blom–Orzan branching signature from scratch: the same-block tau
     closure of [s], then every non-inert (label, block) pair, sorted
     and deduped. The branching closure is per-state (it depends on the
     state's own block), so unlike the weak cache the unit here is the
     state, not the tau-SCC. *)
  let compute (lts : Lts.t) block s =
    let b = block.(s) in
    let seen = Int_tbl.create 8 in
    Int_tbl.add seen s ();
    let stack = ref [ s ] in
    let closure = ref [ s ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
          stack := rest;
          for i = lts.row.(x) to lts.row.(x + 1) - 1 do
            let t = lts.tgt.(i) in
            if
              lts.lab.(i) = Lts.tau && block.(t) = b
              && not (Int_tbl.mem seen t)
            then begin
              Int_tbl.add seen t ();
              closure := t :: !closure;
              stack := t :: !stack
            end
          done
    done;
    let acc = ref [] in
    List.iter
      (fun s' ->
        for i = lts.row.(s') to lts.row.(s' + 1) - 1 do
          let t = lts.tgt.(i) in
          if not (lts.lab.(i) = Lts.tau && block.(t) = b) then
            acc := pack_pair lts.lab.(i) block.(t) :: !acc
        done)
      !closure;
    Array.of_list (List.sort_uniq Int.compare !acc)

  let signature_fn t block s =
    match t.sigs.(s) with
    | Some a ->
        t.stats.hits <- t.stats.hits + 1;
        a
    | None ->
        let a = intern t.pool t.stats (compute t.lts block s) in
        t.sigs.(s) <- Some a;
        t.stats.misses <- t.stats.misses + 1;
        a

  type shard = {
    bsh_parent : t;
    bsh_tbl : int array Int_tbl.t;
    bsh_stats : stats;
  }

  let shard t =
    { bsh_parent = t; bsh_tbl = Int_tbl.create 256;
      bsh_stats = fresh_stats () }

  let shard_signature_fn sh block s =
    match sh.bsh_parent.sigs.(s) with
    | Some a ->
        sh.bsh_stats.hits <- sh.bsh_stats.hits + 1;
        a
    | None -> (
        match Int_tbl.find_opt sh.bsh_tbl s with
        | Some a ->
            sh.bsh_stats.hits <- sh.bsh_stats.hits + 1;
            a
        | None ->
            let a = compute sh.bsh_parent.lts block s in
            Int_tbl.replace sh.bsh_tbl s a;
            sh.bsh_stats.misses <- sh.bsh_stats.misses + 1;
            a)

  let merge_shard t sh =
    Int_tbl.iter
      (fun s a ->
        match t.sigs.(s) with
        | Some _ -> ()
        | None -> t.sigs.(s) <- Some (intern t.pool t.stats a))
      sh.bsh_tbl;
    t.stats.hits <- t.stats.hits + sh.bsh_stats.hits;
    t.stats.misses <- t.stats.misses + sh.bsh_stats.misses

  (* A branching entry additionally depends on the state's own block:
     if that block split, formerly inert tau steps may have become
     observable and the same-block closure may have shrunk, so the
     entry is dropped even when every mentioned pair survives. *)
  let advance t ~old_block ~new_block =
    let rename = renaming ~old_block ~new_block in
    Arr_tbl.reset t.pool;
    t.stats.bytes <- 0;
    let memo = Arr_tbl.create 64 in
    Array.iteri
      (fun s entry ->
        match entry with
        | None -> ()
        | Some arr ->
            if rename.(old_block.(s)) < 0 then begin
              t.sigs.(s) <- None;
              t.stats.invalidations <- t.stats.invalidations + 1
            end
            else
              let remapped =
                match Arr_tbl.find_opt memo arr with
                | Some r -> r
                | None ->
                    let r = remap_pairs rename arr in
                    Arr_tbl.add memo arr r;
                    r
              in
              (match remapped with
              | Some r ->
                  t.sigs.(s) <- Some (intern t.pool t.stats r);
                  t.stats.remaps <- t.stats.remaps + 1
              | None ->
                  t.sigs.(s) <- None;
                  t.stats.invalidations <- t.stats.invalidations + 1))
      t.sigs

  let record t =
    let module I = Dpma_obs.Instruments in
    let module M = Dpma_obs.Metrics in
    M.add I.bisim_tau_cache_hits t.stats.hits;
    M.add I.bisim_tau_cache_misses t.stats.misses;
    M.add I.bisim_tau_cache_remaps t.stats.remaps;
    M.add I.bisim_tau_cache_invalidations t.stats.invalidations;
    M.set I.bisim_tau_closure_bytes (float_of_int t.stats.bytes_peak);
    t.stats.hits <- 0;
    t.stats.misses <- 0;
    t.stats.remaps <- 0;
    t.stats.invalidations <- 0
end
