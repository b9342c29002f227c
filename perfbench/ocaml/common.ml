(* What the generator and the traced pass must agree on: the call
   stream of each connection and the open-loop arrival schedule. Both
   are pure functions of the seed, so the traced pass sends exactly the
   calls the served run sent. *)

module Rng = Nv_util.Rng

let conns = 2

(* Closed-loop calls in flight per connection: twice the server's batch
   target of 256, so every batch closes full. *)
let window = 256

(* Connection [c] draws its calls from its own stream; shifting the
   seed keeps the streams of neighbouring seeds disjoint. *)
let call_rng ~seed ~conn = Rng.create ((seed lsl 4) + conn)

(* Session ids of the two traffic connections, and of the fresh
   session that checks the state after a restart. *)
let client_id conn = conn + 1
let probe_client = 3

(* Seeded Poisson arrivals at [rate] calls/s over [duration] seconds:
   offsets from the start of the run in seconds, increasing. Arrival
   [i] goes out on connection [i mod conns]. *)
let arrivals ~seed ~rate ~duration =
  let rng = Rng.create ((seed lsl 4) + 15) in
  let rec go t acc =
    let t = t -. (log (1.0 -. Rng.float rng) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

(* Monitor polls: one [Stats] every [every] seconds on connection 0,
   the first half a period in, so a run of one period still polls. *)
let polls ~every ~duration =
  if every <= 0.0 then [||]
  else
    let n = int_of_float (Float.floor ((duration /. every) +. 0.5)) in
    Array.init n (fun i -> every *. (float_of_int i +. 0.5))

(* Calls of one closed-loop connection: [txns] split evenly, the first
   connection taking the remainder. *)
let closed_share ~txns ~conn = (txns / conns) + if conn = 0 then txns mod conns else 0
