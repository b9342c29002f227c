(* The load generator: one process, at most two Unix-socket
   connections to a running `nvdb serve`, a closed or an open loop.

   It records raw per-call latencies (no histogram buckets: the
   percentiles are computed exactly by run.py), the outcome of every
   call, the Bye/Stats round trips, and raw /proc readings of the
   server at the edges of the measured window. Everything goes to one
   JSON file; judging the numbers is run.py's job. *)

module Wire = Nv_frontend.Wire
module J = Nv_obs.Jsonx

let now_ns = Nv_util.Clock.now_ns

type conn = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  rng : Nv_util.Rng.t;
  mutable open_ : bool;
  mutable hello_ok : bool;
  mutable sent : int;  (** last sequence number used (1-based) *)
  mutable answered : int;
  due : float array;  (** per seq: ns the latency counts from *)
  lat : float array;  (** per seq: latency ns, nan until answered *)
  mutable bye_ok : (float * int64) option;  (** answer time, digest *)
  mutable stats_ok : (float * string) list;  (** answer time, JSON; newest first *)
}

type tally = {
  mutable committed : int;
  mutable aborted : int;
  mutable rejected : int;
  mutable duplicates : int;
  mutable protocol_errors : int;  (** Server_error frames and unexpected frames *)
  mutable last_answer : float;
}

let tally =
  { committed = 0; aborted = 0; rejected = 0; duplicates = 0; protocol_errors = 0;
    last_answer = 0.0 }

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let proc_snapshot pid =
  J.Assoc
    [
      ("stat", J.String (read_file (Printf.sprintf "/proc/%d/stat" pid)));
      ("io", J.String (read_file (Printf.sprintf "/proc/%d/io" pid)));
      ("host", J.String (read_file "/proc/stat"));
    ]

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let send c reqs =
  if c.open_ then begin
    let b = Buffer.create 4096 in
    List.iter (fun r -> Buffer.add_bytes b (Wire.encode_request r)) reqs;
    let bytes = Buffer.to_bytes b in
    try write_all c.fd bytes 0 (Bytes.length bytes)
    with Unix.Unix_error _ -> c.open_ <- false
  end

(* Connect, retrying while the server is still setting up (no socket
   file yet, or nobody accepting), until [deadline] (ns). *)
let rec connect path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
    when now_ns () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect path ~deadline

let make_conn fd ~rng ~calls =
  {
    fd;
    reader = Wire.Reader.create ();
    rng;
    open_ = true;
    hello_ok = false;
    sent = 0;
    answered = 0;
    due = Array.make calls 0.0;
    lat = Array.make calls Float.nan;
    bye_ok = None;
    stats_ok = [];
  }

let answer c req t =
  if req < 1 || req > c.sent then begin
    tally.protocol_errors <- tally.protocol_errors + 1;
    false
  end
  else if not (Float.is_nan c.lat.(req - 1)) then begin
    tally.duplicates <- tally.duplicates + 1;
    false
  end
  else begin
    c.lat.(req - 1) <- t -. c.due.(req - 1);
    c.answered <- c.answered + 1;
    tally.last_answer <- t;
    true
  end

let on_response c t = function
  | Wire.Hello_ok _ -> c.hello_ok <- true
  | Wire.Result { req; outcome } ->
      if answer c req t then (
        match outcome with
        | `Committed -> tally.committed <- tally.committed + 1
        | `Aborted -> tally.aborted <- tally.aborted + 1)
  | Wire.Rejected { req; _ } ->
      if answer c req t then tally.rejected <- tally.rejected + 1
  | Wire.Bye_ok { digest } -> c.bye_ok <- Some (t, digest)
  | Wire.Stats_ok { json } -> c.stats_ok <- (t, json) :: c.stats_ok
  | Wire.Server_error _ | Wire.Shard_hello_ok _ | Wire.Route_reads _ | Wire.Fence_ok _ ->
      tally.protocol_errors <- tally.protocol_errors + 1

let buf = Bytes.create 65536

let read_conn c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> c.open_ <- false
  | 0 -> c.open_ <- false
  | n -> (
      let t = now_ns () in
      Wire.Reader.feed c.reader buf ~off:0 ~len:n;
      try
        let rec drain () =
          match Wire.Reader.next_payload c.reader with
          | None -> ()
          | Some p ->
              on_response c t (Wire.decode_response p);
              drain ()
        in
        drain ()
      with Wire.Protocol_error _ ->
        tally.protocol_errors <- tally.protocol_errors + 1;
        c.open_ <- false)

(* Wait up to [timeout_s] for answers and process whatever arrived. *)
let poll conns timeout_s =
  let fds = List.filter_map (fun c -> if c.open_ then Some c.fd else None) conns in
  if fds <> [] then
    match Unix.select fds [] [] (Float.max 0.0 timeout_s) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ -> List.iter (fun c -> if List.mem c.fd readable then read_conn c) conns

(* Poll until [ok] holds, every connection closed, or [deadline]. *)
let rec wait_until conns ~deadline ok =
  if ok () || now_ns () >= deadline || not (List.exists (fun c -> c.open_) conns) then ()
  else begin
    poll conns (Float.min 0.05 ((deadline -. now_ns ()) /. 1e9));
    wait_until conns ~deadline ok
  end

let hello c id =
  send c [ Wire.Hello { client = id; version = Wire.protocol_version; resume = false; last_seq = 0 } ]

let submit (w : Nv_workloads.Workload.t) c ~due =
  let seq = c.sent + 1 in
  let proc, args = w.gen_call c.rng in
  c.sent <- seq;
  c.due.(seq - 1) <- due;
  Wire.Submit { req = seq; proc; args }

type opts = {
  socket : string;
  workload : string;
  contention : string;
  seed : int;
  mode : string;
  txns : int;
  rate : float;
  duration : float;
  stats_every : float;
  t0_ns : float;
  server_pid : int;
  timeout_s : float;
  out : string;
}

let closed_loop w conns ~deadline =
  let pending () = List.exists (fun c -> c.sent < Array.length c.due) conns in
  let inflight c = c.sent - c.answered in
  let rec go () =
    List.iter
      (fun c ->
        let reqs = ref [] in
        while c.open_ && inflight c < Common.window && c.sent < Array.length c.due do
          reqs := submit w c ~due:(now_ns ()) :: !reqs
        done;
        send c (List.rev !reqs))
      conns;
    if List.exists (fun c -> c.open_ && c.answered < c.sent) conns || pending () then begin
      if List.exists (fun c -> c.open_) conns && now_ns () < deadline then begin
        poll conns 1.0;
        go ()
      end
    end
  in
  go ()

(* Open loop: every call goes out at its scheduled time whether or not
   earlier ones were answered; latency counts from the schedule, so a
   stall delays every call due during it. [lags] collects how late each
   send went out. *)
let open_loop w conns ~start ~arrivals ~polls ~lags ~deadline =
  let arr = Array.of_list conns in
  let n = Array.length arrivals and np = Array.length polls in
  let next = ref 0 and next_poll = ref 0 and poll_sent = ref [] in
  let due_at s = start +. (s *. 1e9) in
  let rec go () =
    let t = now_ns () in
    let per_conn = Array.make Common.conns [] in
    while !next < n && due_at arrivals.(!next) <= t do
      let c = arr.(!next mod Common.conns) in
      let due = due_at arrivals.(!next) in
      lags := ((t -. due) /. 1e6) :: !lags;
      per_conn.(!next mod Common.conns) <- submit w c ~due :: per_conn.(!next mod Common.conns);
      incr next
    done;
    Array.iteri (fun i reqs -> if reqs <> [] then send arr.(i) (List.rev reqs)) per_conn;
    if !next_poll < np && due_at polls.(!next_poll) <= t then begin
      poll_sent := t :: !poll_sent;
      send arr.(0) [ Wire.Stats ];
      incr next_poll
    end;
    let waiting = List.exists (fun c -> c.open_ && c.answered < c.sent) conns in
    if
      (!next < n || !next_poll < np || waiting)
      && List.exists (fun c -> c.open_) conns
      && t < deadline
    then begin
      let upcoming =
        Float.min
          (if !next < n then due_at arrivals.(!next) else infinity)
          (if !next_poll < np then due_at polls.(!next_poll) else infinity)
      in
      poll conns (Float.min 0.05 ((upcoming -. now_ns ()) /. 1e9));
      go ()
    end
  in
  go ();
  List.rev !poll_sent

let floats a = J.List (List.map (fun x -> J.Float x) a)

let run o =
  let w, _ = Nv_harness.Cli.resolve_workload o.workload o.contention in
  let deadline = o.t0_ns +. (o.timeout_s *. 1e9) in
  let open_conn i ~calls =
    let fd = connect o.socket ~deadline in
    make_conn fd ~rng:(Common.call_rng ~seed:o.seed ~conn:i) ~calls
  in
  let out = ref [] in
  let field k v = out := (k, v) :: !out in
  (match o.mode with
  | "probe" ->
      (* A fresh session on a fresh connection: time to Hello_ok from
         the server's spawn, then the Bye_ok digest of the state. *)
      let c = open_conn 0 ~calls:0 in
      hello c Common.probe_client;
      wait_until [ c ] ~deadline (fun () -> c.hello_ok);
      if c.hello_ok then field "hello_ok_s" (J.Float ((now_ns () -. o.t0_ns) /. 1e9));
      let tb = now_ns () in
      send c [ Wire.Bye ];
      wait_until [ c ] ~deadline (fun () -> c.bye_ok <> None);
      (match c.bye_ok with
      | Some (t, d) ->
          field "bye_ms" (J.List [ J.Float ((t -. tb) /. 1e6) ]);
          field "digests" (J.List [ J.String (Printf.sprintf "%016Lx" d) ])
      | None -> ());
      Unix.close c.fd
  | mode ->
      let arrivals, polls =
        if mode = "open" then
          ( Common.arrivals ~seed:o.seed ~rate:o.rate ~duration:o.duration,
            Common.polls ~every:o.stats_every ~duration:o.duration )
        else ([||], [||])
      in
      let calls i =
        if mode = "open" then
          (Array.length arrivals / Common.conns)
          + if i < Array.length arrivals mod Common.conns then 1 else 0
        else Common.closed_share ~txns:o.txns ~conn:i
      in
      let conns = List.init Common.conns (fun i -> open_conn i ~calls:(calls i)) in
      List.iteri (fun i c -> hello c (Common.client_id i)) conns;
      let c0 = List.hd conns in
      wait_until conns ~deadline (fun () -> c0.hello_ok);
      if c0.hello_ok then field "hello_ok_s" (J.Float ((now_ns () -. o.t0_ns) /. 1e9));
      wait_until conns ~deadline (fun () -> List.for_all (fun c -> c.hello_ok) conns);
      field "proc_start" (proc_snapshot o.server_pid);
      let start = now_ns () in
      let lags = ref [] in
      let poll_sent =
        if mode = "open" then open_loop w conns ~start ~arrivals ~polls ~lags ~deadline
        else (
          closed_loop w conns ~deadline;
          [])
      in
      field "proc_end" (proc_snapshot o.server_pid);
      field "window_s" (J.Float ((tally.last_answer -. start) /. 1e9));
      (* Close the sessions one at a time, only after every answer of
         every connection is in: a Bye's digest runs on the server's
         only event loop and would stall the other connection's calls. *)
      let byes =
        List.filter_map
          (fun c ->
            let tb = now_ns () in
            send c [ Wire.Bye ];
            wait_until conns ~deadline (fun () -> c.bye_ok <> None);
            Option.map (fun (t, d) -> ((t -. tb) /. 1e6, d)) c.bye_ok)
          conns
      in
      field "bye_ms" (floats (List.map fst byes));
      field "digests"
        (J.List (List.map (fun (_, d) -> J.String (Printf.sprintf "%016Lx" d)) byes));
      let rec rtts sent answers =
        match (sent, answers) with
        | s :: sent, (t, _) :: answers -> ((t -. s) /. 1e6) :: rtts sent answers
        | _ -> []
      in
      let stats_rtt = rtts poll_sent (List.rev c0.stats_ok) in
      field "stats_ms" (floats stats_rtt);
      (* One Stats poll on the idle server once the sessions are
         closed; its answer also gives the server's own counters. *)
      let n_stats = List.length c0.stats_ok and ts = now_ns () in
      send c0 [ Wire.Stats ];
      wait_until conns ~deadline (fun () -> List.length c0.stats_ok > n_stats);
      (match c0.stats_ok with
      | (t, json) :: _ when List.length c0.stats_ok > n_stats ->
          field "post_stats_ms" (floats [ (t -. ts) /. 1e6 ]);
          field "server_stats" (J.String json)
      | _ -> field "post_stats_ms" (floats []));
      field "vm_status" (J.String (read_file (Printf.sprintf "/proc/%d/status" o.server_pid)));
      field "send_lag_ms" (floats (List.rev !lags));
      let sent = List.fold_left (fun a c -> a + c.sent) 0 conns in
      let answered = List.fold_left (fun a c -> a + c.answered) 0 conns in
      field "sent" (J.Int sent);
      field "missing" (J.Int (sent - answered));
      field "committed" (J.Int tally.committed);
      field "aborted" (J.Int tally.aborted);
      field "rejected" (J.Int tally.rejected);
      field "duplicates" (J.Int tally.duplicates);
      field "protocol_errors" (J.Int tally.protocol_errors);
      (* Raw per-call latency of answered calls, ms; an unanswered call
         has none and counts as failed. *)
      field "latency_ms"
        (J.List
           (List.concat_map
              (fun c ->
                Array.to_list c.lat
                |> List.filter (fun x -> not (Float.is_nan x))
                |> List.map (fun x -> J.Float (x /. 1e6)))
              conns));
      List.iter (fun c -> Unix.close c.fd) conns);
  Out_channel.with_open_bin o.out (fun oc ->
      output_string oc (J.to_string (J.Assoc (List.rev !out))))

let main argv =
  let socket = ref "" and workload = ref "" and contention = ref "low" and seed = ref 1 in
  let mode = ref "closed" and txns = ref 0 and rate = ref 0.0 in
  let duration = ref 0.0 and stats_every = ref 0.0 and t0 = ref 0.0 and pid = ref 0 in
  let timeout = ref 150.0 and out = ref "" in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--workload", Arg.Set_string workload, "NAME nvdb workload");
      ("--contention", Arg.Set_string contention, "LEVEL nvdb contention");
      ("--seed", Arg.Set_int seed, "N call-stream seed");
      ("--mode", Arg.Set_string mode, "closed|open|probe");
      ("--txns", Arg.Set_int txns, "N closed loop: calls over both connections");
      ("--rate", Arg.Set_float rate, "R open loop: Poisson arrivals per second");
      ("--duration", Arg.Set_float duration, "S open loop: schedule length");
      ("--stats-every", Arg.Set_float stats_every, "S open loop: Stats poll period");
      ("--t0-ns", Arg.Set_float t0, "NS CLOCK_MONOTONIC reading at the server's spawn");
      ("--server-pid", Arg.Set_int pid, "PID server process for /proc readings");
      ("--timeout", Arg.Set_float timeout, "S give up this long after the spawn");
      ("--out", Arg.Set_string out, "FILE result JSON");
    ]
  in
  Arg.parse_argv ~current:(ref 0) argv spec (fun a -> raise (Arg.Bad a)) "perfbench gen";
  run
    {
      socket = !socket; workload = !workload; contention = !contention; seed = !seed;
      mode = !mode; txns = !txns; rate = !rate; duration = !duration;
      stats_every = !stats_every; t0_ns = !t0; server_pid = !pid; timeout_s = !timeout;
      out = !out;
    }
