(* On-the-fly weak and branching signatures: tau-SCC condensation of the
   packed CSR and one per-round sweep over it.

   [Bisim]'s weak and branching passes ask, each refinement round, for
   the signature of every state without materializing the saturated
   transition relation. For both, the unit of computation is a component
   of the tau-SCC condensation DAG.

   Weak. All states of one tau-SCC are mutually tau-reachable and
   therefore share one weak signature — the packed (label, block) pairs
   reachable through [=tau*=> -a-> =tau*=>] moves. Two layers:

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
   refinement of the materialized saturation. W also reads the C of
   observable target components, which can sit anywhere in the DAG,
   hence two passes rather than one.

   Branching. The Blom–Orzan signature of a state is the set of
   non-inert (label, block) pairs of the states it reaches by tau steps
   inside its own block. Every refinement iterate is coarser than
   branching bisimilarity, and states on a common tau-cycle are
   branching bisimilar (van Glabbeek & Weijland), so all members of a
   tau-SCC share a block in every round — and with it the same-block
   closure, hence the signature:

     B(c) = { pack(a, block t) | member x of c, x -a-> t,
                                 not (a = tau and block t = block c) }
          U  B(d), for condensed tau edges c -> d with block d = block c

   One pass suffices: B reads only B below [c].

   Tarjan numbers every condensed tau dependency below its component, so
   each pass is one ascending loop over the components. A [Sweep.t]
   runs them once per refinement round into flat offset/data arenas
   that live as long as the pass and are reused across rounds
   (docs/WEAK_EQUIVALENCE.md works out the memory model). *)

module Scc = Dpma_util.Scc

(* Must match [Bisim]'s packing exactly: the arrays produced here feed
   the same signature tables the saturated oracle path fills. *)
let pack_pair label block = (label lsl 31) lor block

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

let components (lts : Lts.t) =
  let tau_succ s =
    let rec go i acc =
      if i < lts.row.(s) then acc
      else
        go (i - 1) (if lts.lab.(i) = Lts.tau then lts.tgt.(i) :: acc else acc)
    in
    go (lts.row.(s + 1) - 1) []
  in
  let n = lts.num_states in
  Scc.component_index ~n (Scc.tarjan ~succ:tau_succ n)

let condense (lts : Lts.t) =
  let n = lts.num_states in
  let comp_of = components lts in
  let num_comps = 1 + Array.fold_left max (-1) comp_of in
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
(* The per-round sweep                                                  *)

module Sweep = struct
  (* C and the signatures (W or B) in CSR form: component [c]'s closure
     is [c_data.(c_row.(c) .. c_row.(c + 1) - 1)], sorted and deduped,
     and likewise its signature in [sig_row]/[sig_data]. The data
     arenas, the union scratch [buf] and the dedup set only grow, so a
     pass allocates them once and every later round overwrites them in
     place.

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
    sig_row : int array;
    mutable sig_data : int array;
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
       C, one tau pair plus the out-degree in a signature); denser
       models grow the arenas during the first sweep. *)
    {
      lts;
      cond;
      c_row = Array.make (k + 1) 0;
      c_data = Array.make (max 1 k) 0;
      sig_row = Array.make (k + 1) 0;
      sig_data = Array.make (max 1 (k + Lts.num_transitions lts)) 0;
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

  (* Close a signature union into the signature arena at [pos]; returns
     the next free position. *)
  let flush_signature t pos =
    let data, p = flush t t.sig_data pos in
    t.sig_data <- data;
    p

  let weak t block =
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
      t.sig_row.(c) <- !pos;
      for j = t.c_row.(c) to t.c_row.(c + 1) - 1 do
        push t (pack_pair Lts.tau t.c_data.(j))
      done;
      for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
        let d = cond.tau_tgt.(i) in
        for j = t.sig_row.(d) to t.sig_row.(d + 1) - 1 do
          push t t.sig_data.(j)
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
      pos := flush_signature t !pos
    done;
    t.sig_row.(k) <- !pos

  (* The block of component [c]: that of its first member. *)
  let comp_block t block c = block.(t.cond.members.(t.cond.mem_row.(c)))

  let branching t block =
    let cond = t.cond and lts = t.lts in
    let k = cond.num_comps in
    let pos = ref 0 in
    for c = 0 to k - 1 do
      t.sig_row.(c) <- !pos;
      let b = comp_block t block c in
      for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
        let x = cond.members.(i) in
        if block.(x) <> b then
          invalid_arg "Tau.Sweep.branching: a tau-SCC spans two blocks";
        for e = lts.row.(x) to lts.row.(x + 1) - 1 do
          let l = lts.lab.(e) and bt = block.(lts.tgt.(e)) in
          if not (l = Lts.tau && bt = b) then push t (pack_pair l bt)
        done
      done;
      (* Only same-block targets extend the stuttering closure; B(d) of
         such a [d] already excludes the steps inert for [c]. *)
      for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
        let d = cond.tau_tgt.(i) in
        if comp_block t block d = b then
          for j = t.sig_row.(d) to t.sig_row.(d + 1) - 1 do
            push t t.sig_data.(j)
          done
      done;
      pos := flush_signature t !pos
    done;
    t.sig_row.(k) <- !pos

  let signature_length t s =
    let c = t.cond.comp_of.(s) in
    t.sig_row.(c + 1) - t.sig_row.(c)

  let blit_signature t s dst =
    let c = t.cond.comp_of.(s) in
    let lo = t.sig_row.(c) in
    for k = 0 to t.sig_row.(c + 1) - lo - 1 do
      dst.(k) <- t.sig_data.(lo + k)
    done

  let record t =
    let module I = Dpma_obs.Instruments in
    let module M = Dpma_obs.Metrics in
    (* The arrays only grow, so their size is the high-water mark. *)
    let words =
      Array.length t.c_row + Array.length t.c_data + Array.length t.sig_row
      + Array.length t.sig_data + Array.length t.buf
      + Array.length t.set_key + Array.length t.set_stamp
    in
    M.set I.bisim_tau_components (float_of_int t.cond.num_comps);
    M.set I.bisim_tau_closure_bytes (float_of_int (8 * words))
end

(* ------------------------------------------------------------------ *)
(* Materialized saturation                                              *)

(* The sweep answers signature queries without ever building the
   double-arrow relation; the functions below build it, for the few
   places that need actual weak transitions: [Bisim.minimize_weak]'s
   output (saturated at quotient size) and the diagnostics replay of a
   distinguishing formula over a small model. *)

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
