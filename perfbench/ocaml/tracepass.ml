(* The traced pass: the generator's calls fed through the serving
   layers' public functions in this process, with no sockets, recording
   a span at every layer boundary.

   It builds what `nvdb serve` builds (engine, optional journal,
   batcher) and hands [Shard_set.local] an engine wrapper that times
   [run_batch] and reads the Gc and the simulated-NVMM counters around
   it. Each call goes [Wire.encode_request] -> [Wire.Reader] ->
   [Wire.decode_request] -> [Batcher.submit]; [Batcher.tick] closes the
   batches; the reply callback encodes with [Wire.encode_response].
   Checkpoints and digests run at the points where the server runs
   them. Time in the open loop is virtual: one tick per arrival or per
   2 ms select timeout, as in the server's loop, so batch shapes are a
   function of the seed alone.

   Spans stay in memory and are written out at the end; the pass
   reports each layer's self time (its spans minus the child spans they
   cover). With spans off the same pass runs untimed apart from its
   total wall time, which gives the tracing overhead. *)

module B = Nv_frontend.Batcher
module Wire = Nv_frontend.Wire
module J = Nv_obs.Jsonx
module E_intf = Nvcaracal.Engine_intf

let now_ns = Nv_util.Clock.now_ns

(* ---- Spans ------------------------------------------------------- *)

type spans = {
  mutable on : bool;
  mutable n : int;
  mutable name : string array;
  mutable id : int array;  (** txn number, batch number, or call index *)
  mutable parent : int array;  (** index of the enclosing span, -1 at top *)
  mutable start : float array;
  mutable stop : float array;
  mutable stack : int list;  (** open spans, innermost first *)
}

let sp =
  { on = false; n = 0; name = [||]; id = [||]; parent = [||]; start = [||]; stop = [||];
    stack = [] }

let grow () =
  let cap = max 1024 (2 * Array.length sp.id) in
  let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
  sp.name <- ext sp.name "";
  sp.id <- ext sp.id 0;
  sp.parent <- ext sp.parent 0;
  sp.start <- ext sp.start 0.0;
  sp.stop <- ext sp.stop 0.0

let open_span name id =
  if sp.on then begin
    if sp.n = Array.length sp.id then grow ();
    let i = sp.n in
    sp.n <- i + 1;
    sp.name.(i) <- name;
    sp.id.(i) <- id;
    sp.parent.(i) <- (match sp.stack with p :: _ -> p | [] -> -1);
    sp.stack <- i :: sp.stack;
    sp.start.(i) <- now_ns ()
  end

let close_span () =
  if sp.on then
    match sp.stack with
    | i :: rest ->
        sp.stop.(i) <- now_ns ();
        sp.stack <- rest
    | [] -> ()

let span name id f =
  open_span name id;
  Fun.protect ~finally:close_span f

let top_is name = match sp.stack with i :: _ -> sp.name.(i) = name | [] -> false

(* Total self time per span name, ns: each span's duration minus the
   durations of its direct children. *)
let self_times () =
  let child = Array.make sp.n 0.0 in
  for i = 0 to sp.n - 1 do
    let p = sp.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (sp.stop.(i) -. sp.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to sp.n - 1 do
    let self = Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.name.(i)) in
    Hashtbl.replace tbl sp.name.(i) (self +. (sp.stop.(i) -. sp.start.(i) -. child.(i)))
  done;
  tbl

let durations name =
  List.filter_map
    (fun i -> if sp.name.(i) = name then Some (sp.stop.(i) -. sp.start.(i)) else None)
    (List.init sp.n Fun.id)

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "name,id,parent,start_ns,end_ns\n";
      for i = 0 to sp.n - 1 do
        Printf.fprintf oc "%s,%d,%d,%.0f,%.0f\n" sp.name.(i) sp.id.(i) sp.parent.(i)
          sp.start.(i) sp.stop.(i)
      done)

(* ---- Engine wrapper ---------------------------------------------- *)

type engine_tally = {
  mutable batches : int;
  mutable txns : int;
  mutable deferred : int;
  mutable aborted : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable user_bytes : int;  (** committed value bytes of declared writes *)
  mutable in_tick : bool;
}

let et =
  { batches = 0; txns = 0; deferred = 0; aborted = 0; minor_words = 0.0;
    promoted_words = 0.0; user_bytes = 0; in_tick = false }

(* The same engine behind [Engine_intf.S], with [run_batch] timed. After
   the engine returns, a [batcher.reply] span opens: what the batcher
   does next inside this tick is deliver the replies. *)
let wrap (type e) (module E : E_intf.S with type t = e) (db : e) : E_intf.packed =
  let module W = struct
    include E

    let run_batch t txns =
      (* Promotion depends on what else sits in the minor heap, and the
         batcher's wall-clock histograms allocate by timing. Starting
         the batch on an empty minor heap and emptying it again after
         makes the words this batch promotes a count of its own. The
         forced collections sit in [bench.gc] spans, so no layer's self
         time includes them. *)
      let promoted () =
        span "bench.gc" et.batches (fun () ->
            Gc.minor ();
            (Gc.quick_stat ()).Gc.promoted_words)
      in
      let p0 = promoted () in
      let r =
        span "engine.run_batch" et.batches (fun () ->
            let m0 = Gc.minor_words () in
            let r = E.run_batch t txns in
            et.minor_words <- et.minor_words +. (Gc.minor_words () -. m0);
            r)
      in
      et.promoted_words <- et.promoted_words +. (promoted () -. p0);
      span "bench.outcomes" et.batches (fun () ->
          let outcomes = E.last_batch_outcomes t in
          Array.iteri
            (fun i o ->
              match o with
              | `Deferred -> et.deferred <- et.deferred + 1
              | `Aborted -> et.aborted <- et.aborted + 1
              | `Committed ->
                  List.iter
                    (function
                      | Nvcaracal.Txn.Update { table; key } | Insert { table; key; _ } -> (
                          match E.read_committed t ~table ~key with
                          | Some v -> et.user_bytes <- et.user_bytes + Bytes.length v
                          | None -> ())
                      | Delete _ -> ())
                    txns.(i).Nvcaracal.Txn.write_set)
            outcomes);
      et.txns <- et.txns + Array.length txns;
      et.batches <- et.batches + 1;
      if et.in_tick then open_span "batcher.reply" (et.batches - 1);
      r
  end in
  E_intf.Packed ((module W), db)

(* ---- The pass ---------------------------------------------------- *)

type opts = {
  workload : string;
  contention : string;
  seed : int;
  mode : string;
  txns : int;
  rate : float;
  duration : float;
  stats_every : float;
  journal : string option;
  checkpoint_every : int;
  spans_on : bool;
  out : string;
  spans_out : string;
}

(* What `nvdb serve` runs with when given no flags beyond the workload. *)
let server_seed = 42
let capacity = 200_000
let batch_target = 256
let tick_s = 0.002

let run o =
  sp.on <- o.spans_on;
  let w, growth = Nv_harness.Cli.resolve_workload o.workload o.contention in
  let spec = Nv_harness.Cli.resolve_engine "nvcaracal" in
  let spec =
    if o.journal <> None then { spec with Nv_harness.Engine.crash_safe = true } else spec
  in
  let setup =
    Nv_harness.Engine.setup
      ~epochs:((capacity / batch_target) + 1)
      ~epoch_txns:batch_target ~seed:server_seed ~insert_growth:growth ()
  in
  let registry = Nv_frontend.Proc.of_workload w in
  let meta =
    Nv_frontend.Restart.meta ~workload:o.workload ~contention:o.contention ~engine:"nvcaracal"
      ~seed:server_seed
  in
  let tables = w.Nv_workloads.Workload.tables in
  let (E_intf.Packed ((module E), db)) = Nv_harness.Engine.instantiate spec setup w in
  let t_load = now_ns () in
  E.bulk_load db (w.Nv_workloads.Workload.load ());
  let bulk_load_s = (now_ns () -. t_load) /. 1e9 in
  let profile = Nv_obs.Profile.create () in
  E.set_observability ~profile db;
  let journal =
    Option.map
      (fun path ->
        if Sys.file_exists path then Sys.remove path;
        Nv_frontend.Journal.create ~path ~meta ())
      o.journal
  in
  let shards = Nv_frontend.Shard_set.local ~engine:(wrap (module E) db) ~tables in
  let b = B.create ~cfg:(B.config ~batch_target ()) ?journal ~shards ~registry ~tables () in
  (* Client side of the two connections. *)
  let rngs = Array.init Common.conns (fun c -> Common.call_rng ~seed:o.seed ~conn:c) in
  let sent = Array.make Common.conns 0 and answered = Array.make Common.conns 0 in
  let committed = ref 0 and aborted = ref 0 and rejected = ref 0 in
  let wire_bytes = ref 0 in
  (* The id every span of one call carries. *)
  let call_id c req = (req * Common.conns) + c in
  let clients =
    Array.init Common.conns (fun c ->
        B.connect b ~id:(Common.client_id c)
          ~reply:
            (Some
               (fun resp ->
                 let id = match resp with Wire.Result { req; _ } -> call_id c req | _ -> -1 in
                 let frame = span "wire.encode" id (fun () -> Wire.encode_response resp) in
                 wire_bytes := !wire_bytes + Bytes.length frame;
                 match resp with
                 | Wire.Result { outcome; _ } ->
                     answered.(c) <- answered.(c) + 1;
                     incr (match outcome with `Committed -> committed | `Aborted -> aborted)
                 | Wire.Rejected _ ->
                     answered.(c) <- answered.(c) + 1;
                     incr rejected
                 | _ -> ())))
  in
  let readers = Array.init Common.conns (fun _ -> Wire.Reader.create ()) in
  let call c =
    let proc, args = w.Nv_workloads.Workload.gen_call rngs.(c) in
    sent.(c) <- sent.(c) + 1;
    let frame = Wire.encode_request (Wire.Submit { req = sent.(c); proc; args }) in
    wire_bytes := !wire_bytes + Bytes.length frame;
    let id = call_id c sent.(c) in
    let req =
      span "wire.decode" id (fun () ->
          Wire.Reader.feed readers.(c) frame ~off:0 ~len:(Bytes.length frame);
          match Wire.Reader.next_payload readers.(c) with
          | Some p -> Wire.decode_request p
          | None -> failwith "traced pass: frame did not decode")
    in
    match req with
    | Wire.Submit { req; proc; args } ->
        ignore (span "batcher.submit" id (fun () -> B.submit b clients.(c) ~req ~proc ~args))
    | _ -> failwith "traced pass: not a Submit"
  in
  let ckpt = ref 0 and ckpt_bytes = ref 0 and last_ckpt = ref 0 in
  let size_closes = ref 0 and deadline_closes = ref 0 and journal_bytes = ref 0 in
  let tick () =
    let pending = B.pending b and before = B.batches_run b in
    let used () = match journal with Some j -> Nv_frontend.Journal.used_bytes j | None -> 0 in
    let u0 = used () in
    et.in_tick <- true;
    span "batcher.tick" (B.current_tick b) (fun () ->
        B.tick b;
        if top_is "batcher.reply" then close_span ());
    et.in_tick <- false;
    journal_bytes := !journal_bytes + (used () - u0);
    if B.batches_run b > before then
      if pending >= batch_target then incr size_closes else incr deadline_closes;
    (* The server's cadence: a checkpoint once [checkpoint_every]
       batches have run since the last one. *)
    if o.checkpoint_every > 0 && B.batches_run b - !last_ckpt >= o.checkpoint_every then
      if span "checkpoint" !ckpt (fun () -> B.checkpoint_now b) then begin
        incr ckpt;
        last_ckpt := B.batches_run b;
        match o.journal with
        | Some path -> ckpt_bytes := (Unix.stat (path ^ ".ckpt")).Unix.st_size
        | None -> ()
      end
  in
  let digest_no = ref 0 in
  let digest () =
    let d = span "digest" !digest_no (fun () -> B.state_digest b) in
    incr digest_no;
    d
  in
  let unanswered () =
    let s = Array.fold_left ( + ) 0 sent and a = Array.fold_left ( + ) 0 answered in
    s - a
  in
  let c0 = E.counters_total db and sim0 = E.total_time_ns db in
  let t0 = now_ns () in
  (match o.mode with
  | "open" ->
      let arrivals = Common.arrivals ~seed:o.seed ~rate:o.rate ~duration:o.duration in
      let polls = Common.polls ~every:o.stats_every ~duration:o.duration in
      let n = Array.length arrivals in
      let now = ref 0.0 and k = ref 0 and p = ref 0 in
      while !k < n || unanswered () > 0 do
        if !k < n && arrivals.(!k) <= !now +. tick_s then begin
          now := arrivals.(!k);
          while !k < n && arrivals.(!k) <= !now do
            call (!k mod Common.conns);
            incr k
          done
        end
        else now := !now +. tick_s;
        if !p < Array.length polls && polls.(!p) <= !now then begin
          ignore (digest ());
          incr p
        end;
        tick ()
      done
  | _ ->
      let share = Array.init Common.conns (fun c -> Common.closed_share ~txns:o.txns ~conn:c) in
      while unanswered () > 0 || Array.exists2 (fun s n -> s < n) sent share do
        for c = 0 to Common.conns - 1 do
          while sent.(c) - answered.(c) < Common.window && sent.(c) < share.(c) do
            call c
          done
        done;
        tick ()
      done);
  let wall_s = (now_ns () -. t0) /. 1e9 in
  let c1 = E.counters_total db and sim1 = E.total_time_ns db in
  (* The Bye of each connection, then the post-window Stats poll. *)
  let bye_digests = List.init Common.conns (fun _ -> digest ()) in
  ignore (digest ());
  let final_digest = List.nth bye_digests (Common.conns - 1) in
  let served_txns = !committed + !aborted in
  let per_txn x = x /. float_of_int (max served_txns 1) in
  let summary = self_times () in
  let self name = Option.value ~default:0.0 (Hashtbl.find_opt summary name) in
  let us_per_txn name = per_txn (self name) /. 1e3 in
  let median_ms name =
    match List.sort compare (durations name) with
    | [] -> 0.0
    | l -> List.nth l (List.length l / 2) /. 1e6
  in
  let phase name =
    match List.assoc_opt name (Nv_obs.Profile.stats profile) with
    | Some s -> per_txn s.Nv_obs.Profile.wall_ns /. 1e3
    | None -> 0.0
  in
  let batch_sizes = List.map Array.length (B.admitted_batches b) in
  let n_batches = List.length batch_sizes in
  let admitted_calls = List.fold_left ( + ) 0 batch_sizes in
  let module S = Nv_nvmm.Stats in
  let d f = float_of_int (f c1 - f c0) in
  let user_bytes = float_of_int (max et.user_bytes 1) in
  (* End-to-end determinism: the admitted batches, replayed through a
     fresh engine, must reproduce the served state. *)
  let batches = B.admitted_batches b in
  let replay_ok =
    let (E_intf.Packed ((module F), fdb) as fresh) = Nv_harness.Engine.instantiate spec setup w in
    F.bulk_load fdb (w.Nv_workloads.Workload.load ());
    List.iter
      (fun calls ->
        let txns =
          Array.map
            (fun (proc, args) ->
              match Nv_frontend.Proc.build registry ~proc ~args with
              | Ok t -> t
              | Error `Unknown_proc -> failwith "traced pass: unknown procedure in replay")
            calls
        in
        ignore (F.run_batch fdb txns))
      batches;
    Nv_harness.Engine.state_digest fresh = final_digest
  in
  (* Crash recovery from the journal this pass wrote: reopen it, boot
     the engine from the checkpoint, replay the tail, and compare. *)
  let recovery =
    match (o.journal, journal) with
    | Some path, Some j ->
        Nv_frontend.Journal.close j;
        let opened = Nv_frontend.Journal.load ~path ~meta in
        let t_boot = now_ns () in
        let boot =
          span "restart.boot" 0 (fun () -> Nv_frontend.Restart.boot spec setup w ~registry opened)
        in
        let boot_s = (now_ns () -. t_boot) /. 1e9 in
        let replayed =
          List.length
            (List.filter
               (fun r -> r.Nv_frontend.Journal.r_batch >= boot.Nv_frontend.Restart.batches_done)
               opened.Nv_frontend.Journal.records)
        in
        let rb =
          B.create ~cfg:(B.config ~batch_target ()) ~journal:opened.Nv_frontend.Journal.journal
            ~shards:(Nv_frontend.Shard_set.local ~engine:boot.Nv_frontend.Restart.engine ~tables)
            ~registry ~tables ()
        in
        let t_rec = now_ns () in
        span "recover.replay" 0 (fun () ->
            B.recover rb ~records:opened.Nv_frontend.Journal.records
              ~sessions:boot.Nv_frontend.Restart.sessions
              ~batches_done:boot.Nv_frontend.Restart.batches_done);
        let replay_s = (now_ns () -. t_rec) /. 1e9 in
        let ok = B.state_digest rb = final_digest in
        Nv_frontend.Journal.close opened.Nv_frontend.Journal.journal;
        Some (boot_s, replay_s, replayed, ok)
    | _ -> None
  in
  let boot_s, replay_s, replayed, recovered_ok =
    Option.value ~default:(0.0, 0.0, 0, true) recovery
  in
  if sp.on then write_spans o.spans_out;
  let f x = J.Float x and i x = J.Int x in
  let metrics =
    [
      ("wire.decode_us_per_txn", f (us_per_txn "wire.decode"));
      ("wire.encode_us_per_txn", f (us_per_txn "wire.encode"));
      ("wire.bytes_per_txn", f (per_txn (float_of_int !wire_bytes)));
      ("batcher.submit_us_per_txn", f (us_per_txn "batcher.submit"));
      ("batcher.reply_us_per_txn", f (us_per_txn "batcher.reply"));
      ("batcher.tick_self_us_per_txn", f (us_per_txn "batcher.tick"));
      ("batcher.batch_txns", f (float_of_int admitted_calls /. float_of_int (max n_batches 1)));
      ( "batcher.deadline_close_ratio",
        f (float_of_int !deadline_closes /. float_of_int (max (!size_closes + !deadline_closes) 1))
      );
      ("journal.bytes_per_txn", f (per_txn (float_of_int !journal_bytes)));
      ("checkpoint.ms", f (median_ms "checkpoint"));
      ("checkpoint.count", i !ckpt);
      ("checkpoint.bytes", i !ckpt_bytes);
      ("engine.run_batch_us_per_txn", f (us_per_txn "engine.run_batch"));
      ("engine.minor_words_per_txn", f (per_txn et.minor_words));
      ("engine.promoted_words_per_txn", f (per_txn et.promoted_words));
      ("engine.deferred_ratio", f (float_of_int et.deferred /. float_of_int (max et.txns 1)));
      ("engine.abort_ratio", f (float_of_int et.aborted /. float_of_int (max et.txns 1)));
      ("engine.execute_us_per_txn", f (phase "execute"));
      ("engine.append_us_per_txn", f (phase "append"));
      ("engine.input_log_us_per_txn", f (phase "input-log"));
      ("engine.major_gc_us_per_txn", f (phase "major-gc"));
      ("engine.bulk_load_s", f bulk_load_s);
      ("engine.sim_ns_per_txn", f (per_txn (sim1 -. sim0)));
      ("nvmm.block_writes_per_txn", f (per_txn (d (fun c -> c.S.nvmm_block_writes))));
      ("nvmm.block_reads_per_txn", f (per_txn (d (fun c -> c.S.nvmm_block_reads))));
      ("nvmm.flushes_per_txn", f (per_txn (d (fun c -> c.S.flushes))));
      ("nvmm.fences_per_batch", f (d (fun c -> c.S.fences) /. float_of_int (max et.batches 1)));
      ( "nvmm.bytes_per_user_byte",
        f
          (((256.0 *. d (fun c -> c.S.nvmm_block_writes)) +. d (fun c -> c.S.nvmm_seq_bytes))
          /. user_bytes) );
      ("dram.bytes_per_user_byte", f (64.0 *. d (fun c -> c.S.dram_writes) /. user_bytes));
      ("digest.ms", f (median_ms "digest"));
      ("restart.boot_s", f boot_s);
      ("recover.replay_s", f replay_s);
      ("recover.batches", i replayed);
    ]
  in
  let result =
    J.Assoc
      [
        ("sent", i (Array.fold_left ( + ) 0 sent));
        ("committed", i !committed);
        ("aborted", i !aborted);
        ("rejected", i !rejected);
        ("unanswered", i (unanswered ()));
        ("wall_s", f wall_s);
        ("replay_ok", J.Bool replay_ok);
        ("recovered_ok", J.Bool recovered_ok);
        ("metrics", J.Assoc metrics);
      ]
  in
  Out_channel.with_open_bin o.out (fun oc -> output_string oc (J.to_string result))

let main argv =
  let workload = ref "" and contention = ref "low" and seed = ref 1 and mode = ref "closed" in
  let txns = ref 0 and rate = ref 0.0 and duration = ref 0.0 in
  let stats_every = ref 0.0 and journal = ref "" in
  let checkpoint_every = ref 0 and spans_on = ref true and out = ref "" and spans_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME nvdb workload");
      ("--contention", Arg.Set_string contention, "LEVEL nvdb contention");
      ("--seed", Arg.Set_int seed, "N call-stream seed");
      ("--mode", Arg.Set_string mode, "closed|open");
      ("--txns", Arg.Set_int txns, "N closed loop: calls over both connections");
      ("--rate", Arg.Set_float rate, "R open loop: Poisson arrivals per second");
      ("--duration", Arg.Set_float duration, "S open loop: schedule length");
      ("--stats-every", Arg.Set_float stats_every, "S open loop: Stats poll period");
      ("--journal", Arg.Set_string journal, "FILE journal the batches here");
      ("--checkpoint-every", Arg.Set_int checkpoint_every, "N checkpoint cadence in batches");
      ("--no-spans", Arg.Clear spans_on, " record no spans (the overhead baseline)");
      ("--out", Arg.Set_string out, "FILE result JSON");
      ("--spans-out", Arg.Set_string spans_out, "FILE span CSV");
    ]
  in
  Arg.parse_argv ~current:(ref 0) argv spec (fun a -> raise (Arg.Bad a)) "perfbench trace";
  run
    {
      workload = !workload; contention = !contention; seed = !seed; mode = !mode; txns = !txns;
      rate = !rate; duration = !duration; stats_every = !stats_every;
      journal = (if !journal = "" then None else Some !journal);
      checkpoint_every = !checkpoint_every; spans_on = !spans_on; out = !out;
      spans_out = !spans_out;
    }
