type mode = Fast | Crash_safe

let line_size = 64

(* Per-line persistence bookkeeping, present only while the line has
   unpersisted state. [persisted] is the content that survives a crash
   with certainty. [snapshots] records the line content after each store
   since [persisted], newest first ([n_snapshots] of them), so a crash
   may legally surface any prefix of the store sequence. [queued] is the
   content captured by the most recent clwb ([no_capture] if none) and
   [queued_at] how many snapshots existed at capture time; the capture
   becomes [persisted] at the next fence. Captured and snapshot bytes
   are never mutated, so a capture may share its snapshot's buffer. *)
type line_state = {
  mutable persisted : bytes;
  mutable snapshots : bytes list; (* newest first *)
  mutable n_snapshots : int;
  mutable queued : bytes;
  mutable queued_at : int;
}

let no_capture = Bytes.create 0

(* Media-fault bookkeeping. All fields stay at their zero state unless a
   fault-injection entry point was called, so fault-free runs (including
   every benchmark) take exactly the original code paths. *)
type fault_report = {
  torn_lines : int;
  rotted_lines : int;
  flipped_bits : int;
  dead_lines : int;
}

type fault_model = {
  torn_frac : float;
  rot_lines : int;
  rot_max_bits : int;
  dead : int;
}

let no_faults = { torn_frac = 0.0; rot_lines = 0; rot_max_bits = 0; dead = 0 }

(* Dirty-line tracking is direct-mapped: a preallocated per-line state
   array (indexed by line number; [Some] iff the line has unpersisted
   stores) plus an unordered list of the dirty line numbers so [fence]
   and [crash] never scan the whole region. The array replaces a
   hashtable keyed by line index — the per-store membership probe is the
   hottest operation in Crash_safe mode, and an array load beats
   hashing. Fast mode allocates no tracking at all. *)
type t = {
  mode : mode;
  data : bytes; (* volatile view *)
  size : int;
  line_states : line_state option array; (* per line; empty in Fast mode *)
  mutable dirty_lines : int list; (* lines with [Some] state, unordered *)
  mutable n_dirty : int;
  mutable stripe_dirty : int list array;
      (* striped execution ([begin_stripes] .. [end_stripes]): newly
         dirtied line numbers accumulate per stripe instead of on the
         shared [dirty_lines] list, and are unioned at the join. Empty
         ([[||]]) whenever striping is off. *)
  dead_lines : (int, unit) Hashtbl.t; (* lines whose reads fault *)
  crash_dirty : (int, unit) Hashtbl.t; (* lines dirty at any past crash *)
  mutable faults : fault_report;
}

let zero_faults = { torn_lines = 0; rotted_lines = 0; flipped_bits = 0; dead_lines = 0 }

(* Alignment/bounds precondition checks on every typed accessor. The
   byte layer below stays memory-safe without them (OCaml [Bytes]
   bounds-checks its own accesses), so the engine may turn them off for
   throughput runs; keep them on when debugging layout code for the
   precise range in the error. *)
let checks =
  ref (match Sys.getenv_opt "NVC_PMEM_CHECKS" with Some ("0" | "false") -> false | _ -> true)

let set_checks b = checks := b
let checks_enabled () = !checks

let create ?(mode = Fast) ~size () =
  {
    mode;
    data = Bytes.make size '\000';
    size;
    line_states =
      (if mode = Crash_safe then Array.make ((size + line_size - 1) / line_size) None
       else [||]);
    dirty_lines = [];
    n_dirty = 0;
    stripe_dirty = [||];
    dead_lines = Hashtbl.create 4;
    crash_dirty = Hashtbl.create 64;
    faults = zero_faults;
  }

let mode t = t.mode
let size t = t.size

let copy_line t li =
  let b = Bytes.create line_size in
  Bytes.blit t.data (li * line_size) b 0 line_size;
  b

(* Whether [b] holds exactly line [li]'s current content (no copy). *)
let line_equals t li b =
  let base = li * line_size and i = ref 0 in
  while
    !i < line_size
    && Int64.equal (Bytes.get_int64_ne b !i) (Bytes.get_int64_ne t.data (base + !i))
  do
    i := !i + 8
  done;
  !i >= line_size

(* Record that bytes [off, off+len) were just stored. Must be called
   after the volatile view was updated. In Fast mode this is free. *)
let note_store t ~off ~len =
  if t.mode = Crash_safe && len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    for li = first to last do
      (* [pre_store] has already captured the pre-store baseline, so the
         state must exist; append the after-store snapshot. *)
      match t.line_states.(li) with
      | Some st ->
          st.snapshots <- copy_line t li :: st.snapshots;
          st.n_snapshots <- st.n_snapshots + 1
      | None -> assert false
    done
  end

(* Stripe identity of the current domain while striping is active. A
   plain domain-local: each pool task announces its stripe once via
   [set_stripe] before touching the region. *)
let stripe_key = Domain.DLS.new_key (fun () -> 0)

(* Capture the pre-store persisted baseline for lines about to be
   stored for the first time since they were last clean. Must be called
   BEFORE mutating the volatile view.

   During striped execution the newly-dirty line number goes to the
   calling stripe's private list (and [n_dirty] is deferred to
   [end_stripes]), so concurrent stripes never contend on the shared
   list. Distinct stripes touch disjoint line sets — that is the
   caller's eligibility contract — so [line_states] element writes are
   race-free, and per-line state mutation ([note_store]/[flush]) stays
   confined to the one stripe that owns the line. *)
let pre_store t ~off ~len =
  if t.mode = Crash_safe && len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    for li = first to last do
      match t.line_states.(li) with
      | Some _ -> ()
      | None ->
          t.line_states.(li) <-
            Some
              {
                persisted = copy_line t li;
                snapshots = [];
                n_snapshots = 0;
                queued = no_capture;
                queued_at = 0;
              };
          if Array.length t.stripe_dirty = 0 then begin
            t.dirty_lines <- li :: t.dirty_lines;
            t.n_dirty <- t.n_dirty + 1
          end
          else begin
            let s = Domain.DLS.get stripe_key in
            t.stripe_dirty.(s) <- li :: t.stripe_dirty.(s)
          end
    done
  end

(* Striped dirty tracking: NVTraverse-style quiescence — per-stripe
   dirty sets during a wide phase, unioned at the join barrier. Only
   meaningful in Crash_safe mode; a Fast region makes all three no-ops.
   [fence]/[crash]/inspection must not run between [begin_stripes] and
   [end_stripes] (they would miss the striped lines). The merged list
   order differs from serial execution's, which is unobservable: every
   consumer either sorts ([sorted_dirty], [crash], [unpersisted_ranges])
   or is per-line commutative ([fence]). *)
let begin_stripes t ~n =
  if t.mode = Crash_safe then t.stripe_dirty <- Array.make (max 1 n) []

let set_stripe t s = if t.mode = Crash_safe then Domain.DLS.set stripe_key s

let end_stripes t =
  if Array.length t.stripe_dirty > 0 then begin
    Array.iter
      (fun l ->
        t.dirty_lines <- List.rev_append l t.dirty_lines;
        t.n_dirty <- t.n_dirty + List.length l)
      t.stripe_dirty;
    t.stripe_dirty <- [||]
  end

let check_bounds t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg (Printf.sprintf "Pmem: range [%d, %d) out of bounds (size %d)" off (off + len) len)

let get_i64 t off =
  if !checks then begin
    assert (off land 7 = 0);
    check_bounds t off 8
  end;
  Bytes.get_int64_le t.data off

let set_i64 t off v =
  if !checks then begin
    assert (off land 7 = 0);
    check_bounds t off 8
  end;
  pre_store t ~off ~len:8;
  Bytes.set_int64_le t.data off v;
  note_store t ~off ~len:8

let get_i32 t off =
  if !checks then begin
    assert (off land 3 = 0);
    check_bounds t off 4
  end;
  Bytes.get_int32_le t.data off

let set_i32 t off v =
  if !checks then begin
    assert (off land 3 = 0);
    check_bounds t off 4
  end;
  pre_store t ~off ~len:4;
  Bytes.set_int32_le t.data off v;
  note_store t ~off ~len:4

let get_u8 t off =
  if !checks then check_bounds t off 1;
  Char.code (Bytes.get t.data off)

let set_u8 t off v =
  if !checks then check_bounds t off 1;
  pre_store t ~off ~len:1;
  Bytes.set t.data off (Char.chr (v land 0xFF));
  note_store t ~off ~len:1

let read_bytes t ~off ~len =
  if !checks then check_bounds t off len;
  Bytes.sub t.data off len

let crc32c t ~off ~len =
  check_bounds t off len;
  Nv_util.Crc32c.bytes t.data off len

let blit_to t ~src ~src_off ~dst_off ~len =
  if !checks then check_bounds t dst_off len;
  pre_store t ~off:dst_off ~len;
  Bytes.blit src src_off t.data dst_off len;
  note_store t ~off:dst_off ~len

let write_bytes t ~off b = blit_to t ~src:b ~src_off:0 ~dst_off:off ~len:(Bytes.length b)

let blit_from t ~src_off ~dst ~dst_off ~len =
  if !checks then check_bounds t src_off len;
  Bytes.blit t.data src_off dst dst_off len

let fill t ~off ~len c =
  if !checks then check_bounds t off len;
  pre_store t ~off ~len;
  Bytes.fill t.data off len c;
  note_store t ~off ~len

let flush ?(charge = true) t stats ~off ~len =
  if len > 0 then begin
    if !checks then check_bounds t off len;
    let first = off / line_size and last = (off + len - 1) / line_size in
    for li = first to last do
      if charge then Stats.flush stats;
      if t.mode = Crash_safe then
        match t.line_states.(li) with
        | None -> () (* clean line: clwb is a no-op *)
        | Some st ->
            (* The newest snapshot already holds the line unless the view
               changed behind the tracking (fault injection); share it. *)
            st.queued <-
              (match st.snapshots with
              | newest :: _ when line_equals t li newest -> newest
              | _ -> copy_line t li);
            st.queued_at <- st.n_snapshots
    done
  end

let fence t stats =
  Stats.fence stats;
  if t.mode = Crash_safe then begin
    let still = ref [] and n = ref 0 in
    List.iter
      (fun li ->
        match t.line_states.(li) with
        | None -> ()
        | Some st ->
            if st.queued == no_capture then begin
              still := li :: !still;
              incr n
            end
            else begin
              st.persisted <- st.queued;
              st.queued <- no_capture;
              (* Drop snapshots that predate the captured content: they
                 can no longer be crash states because something newer
                 is guaranteed durable. *)
              let keep = st.n_snapshots - st.queued_at in
              st.snapshots <-
                (if keep <= 0 then [] else List.filteri (fun i _ -> i < keep) st.snapshots);
              st.n_snapshots <- max 0 keep;
              if st.n_snapshots = 0 && line_equals t li st.persisted then
                t.line_states.(li) <- None
              else begin
                still := li :: !still;
                incr n
              end
            end)
      t.dirty_lines;
    t.dirty_lines <- !still;
    t.n_dirty <- !n
  end

let persist t stats ~off ~len =
  flush t stats ~off ~len;
  fence t stats

let charge_read t stats ~off ~len =
  (if len > 0 && Hashtbl.length t.dead_lines > 0 then
     let first = off / line_size and last = (off + len - 1) / line_size in
     try
       for li = first to last do
         if Hashtbl.mem t.dead_lines li then begin
           Stats.media_fault stats;
           raise Exit
         end
       done
     with Exit -> ());
  Stats.nvmm_read stats ~off ~len
let charge_write _t stats ~off ~len = Stats.nvmm_write stats ~off ~len
let charge_seq_write _t stats ~bytes = Stats.nvmm_seq_write stats ~bytes

let apply_crash_choice t li st idx =
  let content =
    if idx = 0 then st.persisted
    else List.nth st.snapshots (st.n_snapshots - idx)
  in
  Bytes.blit content 0 t.data (li * line_size) line_size

(* Remember which lines were in flight when the machine died —
   accumulated across crashes so a crash during recovery keeps the
   evidence of the original one. Recovery's scrub consults this to tell
   legitimate epoch turnover (a stale version whose value bytes were
   being overwritten) apart from media damage to cold data. *)
let finish_crash t =
  List.iter
    (fun li ->
      Hashtbl.replace t.crash_dirty li ();
      t.line_states.(li) <- None)
    t.dirty_lines;
  t.dirty_lines <- [];
  t.n_dirty <- 0

(* Dirty line numbers in ascending order, with their states. *)
let sorted_dirty t =
  List.map
    (fun li -> (li, Option.get t.line_states.(li)))
    (List.sort compare t.dirty_lines)

let require_crash_safe t =
  if t.mode <> Crash_safe then invalid_arg "Pmem.crash: region is in Fast mode"

let crash_with t ~choose =
  require_crash_safe t;
  (* Iterate in sorted line order so the callback sees a deterministic
     sequence regardless of store order. *)
  List.iter
    (fun (li, st) ->
      let options = 1 + st.n_snapshots in
      let idx = choose ~line:li ~options in
      assert (idx >= 0 && idx < options);
      apply_crash_choice t li st idx)
    (sorted_dirty t);
  finish_crash t

let crash t ~rng = crash_with t ~choose:(fun ~line:_ ~options -> Nv_util.Rng.int rng options)

let crash_all_persisted t = crash_with t ~choose:(fun ~line:_ ~options -> options - 1)

(* ------------------------------------------------------------------ *)
(* Media-fault injection.

   These entry points produce *illegal* crash images — states the
   prefix-consistency contract above can never yield — modelling torn
   multi-line persists, bit-rot in cold media, and dead lines. The
   checksummed layout in {!Nv_storage} exists to detect exactly these
   states; see docs/FAULTS.md for the taxonomy. *)

(* Compose a torn line: each naturally-aligned 8-byte word independently
   picks one of the line's states (persisted baseline or any store
   snapshot). Word granularity respects the 8-byte power-fail store
   atomicity of real hardware, so single-word structures survive whole
   while anything larger can surface impossible mixes. *)
let torn_mix t rng li st =
  let states = Array.of_list (st.persisted :: List.rev st.snapshots) in
  let line = Bytes.create line_size in
  for w = 0 to (line_size / 8) - 1 do
    let src = states.(Nv_util.Rng.int rng (Array.length states)) in
    Bytes.blit src (w * 8) line (w * 8) 8
  done;
  Bytes.blit line 0 t.data (li * line_size) line_size

let flip_bit t ~bit_off =
  let off = bit_off / 8 in
  let mask = 1 lsl (bit_off mod 8) in
  Bytes.set t.data off (Char.chr (Char.code (Bytes.get t.data off) lxor mask))

(* Flip random bits in up to [lines] randomly chosen *clean* (persisted)
   lines. Returns (lines hit, bits flipped). *)
let inject_bit_rot t ~rng ~lines ~max_bits =
  let n_lines = t.size / line_size in
  let hit = ref 0 and flipped = ref 0 in
  for _ = 1 to lines do
    let li = Nv_util.Rng.int rng n_lines in
    if t.mode <> Crash_safe || t.line_states.(li) = None then begin
      incr hit;
      let bits = 1 + Nv_util.Rng.int rng (max 1 max_bits) in
      for _ = 1 to bits do
        flip_bit t ~bit_off:((li * line_size * 8) + Nv_util.Rng.int rng (line_size * 8));
        incr flipped
      done
    end
  done;
  t.faults <-
    {
      t.faults with
      rotted_lines = t.faults.rotted_lines + !hit;
      flipped_bits = t.faults.flipped_bits + !flipped;
    };
  (!hit, !flipped)

(* Mark [n] random lines dead: their content reads back as all-ones (a
   poisoned ECC block) and any charged read overlapping them records a
   media fault in {!Stats}. *)
let kill_lines t ~rng ~n =
  let n_lines = t.size / line_size in
  let killed = ref 0 in
  for _ = 1 to n do
    let li = Nv_util.Rng.int rng n_lines in
    if not (Hashtbl.mem t.dead_lines li) then begin
      Hashtbl.add t.dead_lines li ();
      Bytes.fill t.data (li * line_size) line_size '\xFF';
      incr killed
    end
  done;
  t.faults <- { t.faults with dead_lines = t.faults.dead_lines + !killed };
  !killed

let crash_with_faults t ~rng ~model =
  require_crash_safe t;
  let torn = ref 0 in
  List.iter
    (fun (li, st) ->
      let options = 1 + st.n_snapshots in
      if options > 1 && Nv_util.Rng.float rng < model.torn_frac then begin
        incr torn;
        torn_mix t rng li st
      end
      else apply_crash_choice t li st (Nv_util.Rng.int rng options))
    (sorted_dirty t);
  finish_crash t;
  t.faults <- { t.faults with torn_lines = t.faults.torn_lines + !torn };
  if model.rot_lines > 0 then
    ignore (inject_bit_rot t ~rng ~lines:model.rot_lines ~max_bits:model.rot_max_bits);
  if model.dead > 0 then ignore (kill_lines t ~rng ~n:model.dead);
  t.faults

(* Deterministic corruption of an exact byte range (testing aid): xor
   every byte with [mask]. Only meaningful on clean lines (e.g. a
   post-crash image), since it bypasses persistence tracking. *)
let corrupt_range t ~off ~len ~mask =
  check_bounds t off len;
  for i = off to off + len - 1 do
    Bytes.set t.data i (Char.chr (Char.code (Bytes.get t.data i) lxor (mask land 0xFF)))
  done

let faults t = t.faults
let faults_injected t = t.faults <> zero_faults
let is_dead_line t ~off = Hashtbl.mem t.dead_lines (off / line_size)

let dirty_at_crash t ~off ~len =
  len > 0 && off >= 0 && off < t.size
  &&
  let last = min (off + len - 1) (t.size - 1) / line_size in
  let rec go li = li <= last && (Hashtbl.mem t.crash_dirty li || go (li + 1)) in
  go (off / line_size)

let dirty_line_count t = t.n_dirty

let unpersisted_ranges t =
  List.map (fun li -> (li * line_size, line_size)) (List.sort compare t.dirty_lines)
