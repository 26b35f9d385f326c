(* Per-layer probes for the traced run.

   The engines call into their layers through plain function records
   ([Protocol.t], [Adversary.t], and the async protocol and adversary
   records). The wrappers below keep every field the engines branch on —
   the protocol's [codec] (shared-plane tally kernels) and the async
   adversary's declared [policy] (mailbox fast paths) — and only add
   counting or timing around the callbacks, so a traced trial takes the
   same engine paths as an untraced one. The outcome digests in [Measure]
   check that.

   Callbacks that run for well under a microsecond ([codec], [byz_msg],
   the async [act] of a scheduler) are counted, not clock-timed: two clock
   reads would cost more than the call. *)

open Ba_sim

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Accumulators for one traced trial; [reset] between trials. Integer
   nanoseconds keep the timed wrappers allocation-free. *)
type acc = {
  mutable send_ns : int;
  mutable send_calls : int;
  mutable recv_ns : int;
  mutable recv_calls : int;
  mutable encode_calls : int;
  mutable act_ns : int;
  mutable act_calls : int;
  mutable byz_msg_calls : int;
  mutable on_message_ns : int;
  mutable on_message_calls : int;
  mutable async_act_calls : int;
}

let create () =
  { send_ns = 0; send_calls = 0; recv_ns = 0; recv_calls = 0; encode_calls = 0; act_ns = 0;
    act_calls = 0; byz_msg_calls = 0; on_message_ns = 0; on_message_calls = 0;
    async_act_calls = 0 }

let reset a =
  a.send_ns <- 0;
  a.send_calls <- 0;
  a.recv_ns <- 0;
  a.recv_calls <- 0;
  a.encode_calls <- 0;
  a.act_ns <- 0;
  a.act_calls <- 0;
  a.byz_msg_calls <- 0;
  a.on_message_ns <- 0;
  a.on_message_calls <- 0;
  a.async_act_calls <- 0

(* Time spent inside the clock-timed callbacks: the part of a trial that
   is not the engine's own. *)
let callbacks_ns a = a.send_ns + a.recv_ns + a.act_ns + a.on_message_ns

let protocol a (p : ('s, 'm) Protocol.t) : ('s, 'm) Protocol.t =
  { p with
    send =
      (fun ctx st ~round ->
        let t0 = now_ns () in
        let m = p.send ctx st ~round in
        a.send_ns <- a.send_ns + (now_ns () - t0);
        a.send_calls <- a.send_calls + 1;
        m);
    recv =
      (fun ctx st ~round ~inbox ->
        let t0 = now_ns () in
        let st = p.recv ctx st ~round ~inbox in
        a.recv_ns <- a.recv_ns + (now_ns () - t0);
        a.recv_calls <- a.recv_calls + 1;
        st);
    codec =
      Option.map
        (fun encode m ->
          a.encode_calls <- a.encode_calls + 1;
          encode m)
        p.codec }

let adversary a (adv : ('s, 'm) Adversary.t) : ('s, 'm) Adversary.t =
  { adv with
    act =
      (fun view ->
        let t0 = now_ns () in
        let action = adv.act view in
        a.act_ns <- a.act_ns + (now_ns () - t0);
        a.act_calls <- a.act_calls + 1;
        { action with
          byz_msg =
            (fun ~src ~dst ->
              a.byz_msg_calls <- a.byz_msg_calls + 1;
              action.byz_msg ~src ~dst) }) }

let async_protocol a (p : ('s, 'm) Ba_async.Async_engine.protocol) :
    ('s, 'm) Ba_async.Async_engine.protocol =
  { p with
    on_message =
      (fun ctx st ~src m ->
        let t0 = now_ns () in
        let r = p.on_message ctx st ~src m in
        a.on_message_ns <- a.on_message_ns + (now_ns () - t0);
        a.on_message_calls <- a.on_message_calls + 1;
        r) }

(* [policy] is kept as declared: a [Fifo_pick] or [Uniform_pick] scheduler
   never has its [act] called, an [Opaque] one is called every step. *)
let async_adversary a (adv : ('s, 'm) Ba_async.Async_engine.adversary) :
    ('s, 'm) Ba_async.Async_engine.adversary =
  { adv with
    act =
      (fun view ->
        a.async_act_calls <- a.async_act_calls + 1;
        adv.act view) }
