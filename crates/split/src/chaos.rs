//! Deterministic fault injection for the server: [`ChaosListener`]
//! wraps any [`EventListener`](crate::EventListener) and hands the
//! event loop [`ChaosConn`]s that inject scripted faults — hangups on
//! the read path, hangups while queueing replies, corrupt and
//! duplicated frames, silent partitions, and reply delays that force
//! the loop through its partial-write flush machinery. It is the
//! crate's only fault injector, and it injects into the real
//! [`ServerEventLoop`](crate::ServerEventLoop), not a stand-in pump.
//!
//! Faults are *scripted, not random at runtime*: each connection
//! learns its client id from the `Connect`/`Resume` message passing
//! through it, counts that client's **incarnation** (connection
//! attempt number), and derives its fault plan from
//! `seeded_rng(seed, "chaos-{client}-{incarnation}")`. The plan
//! therefore depends only on the seed and on how many times that
//! client has connected — not on accept order, sweep timing, or
//! thread interleaving — so a chaos run is reproducible from its seed
//! alone.
//!
//! Faults land only at message boundaries, so a client that survives
//! (via the `Resume` handshake) must produce a loss curve
//! **bit-identical** to a fault-free run — the soak test's core
//! assertion. That includes [`Fault::CorruptBody`], the one fault that
//! does touch bytes: it mangles a tensor frame so decoding *must*
//! reject it with a typed wire error before any training state is
//! touched — a corrupt frame is never trained on, it only costs the
//! connection. Kills are budgeted per client
//! ([`ChaosOptions::max_faulted_incarnations`]): after the budget is
//! spent, later incarnations run clean, so retrying clients always
//! finish.
//!
//! One deliberate gap in the fault model: replies to a `Resume`
//! handshake are exempt from queue-kills. Killing the `Resumed` reply
//! after the server has already bumped the session epoch would strand
//! the client with a stale epoch by design — detecting exactly that
//! zombie case is what the epoch is *for* — so the chaos plan only
//! kills tensor-reply queues.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rand::Rng;

use menos_sim::seeded_rng;

use crate::event_loop::{EventConn, EventListener};
use crate::message::{ClientId, ClientMessage, ServerMessage};
use crate::protocol::ProtocolError;

/// Tuning for a chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Root seed; every per-connection plan derives from it.
    pub seed: u64,
    /// How many of a client's first incarnations may draw a fault.
    /// Later incarnations always run clean, bounding the retries any
    /// client needs to finish.
    pub max_faulted_incarnations: u64,
    /// Longest reply hold, in flush calls, a delay fault may impose.
    pub max_hold_flushes: u32,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0xC4A05,
            max_faulted_incarnations: 2,
            max_hold_flushes: 3,
        }
    }
}

impl ChaosOptions {
    /// Reads the seed from `MENOS_CHAOS_SEED` (decimal), keeping the
    /// other knobs at their defaults — how CI pins a soak run.
    pub fn from_env() -> Self {
        let mut options = ChaosOptions::default();
        if let Some(seed) = std::env::var("MENOS_CHAOS_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            options.seed = seed;
        }
        options
    }
}

/// One incarnation's scripted fault.
///
/// The matrix splits into two families. *Lossy* faults
/// ([`KillRecvAfter`](Fault::KillRecvAfter),
/// [`KillQueueAfter`](Fault::KillQueueAfter),
/// [`DuplicateFrame`](Fault::DuplicateFrame),
/// [`CorruptBody`](Fault::CorruptBody)) cost the client its connection
/// — the server must reject the bad input with a typed error, never
/// train on it, and the client recovers through `Resume`. *Latency*
/// faults ([`HoldReplies`](Fault::HoldReplies),
/// [`DelayFrames`](Fault::DelayFrames)) slow a path down without
/// breaking it and must be absorbed with no reconnect at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Hang up the read path after this many post-handshake messages.
    KillRecvAfter(u32),
    /// Hang up while queueing the nth tensor reply.
    KillQueueAfter(u32),
    /// Hold every reply for this many flush calls before releasing it.
    HoldReplies(u32),
    /// Stall the read path: hold every inbound message (handshake
    /// included) for this many polls before delivering. Pure latency —
    /// lock-step tolerates it and no state is lost.
    DelayFrames(u32),
    /// Re-deliver the nth `Gradients` message one poll after the
    /// original. By then the backward pass has consumed its pending
    /// forward, so the server must reject the replay as out-of-order —
    /// a duplicate frame may cost the connection but is never applied
    /// to the optimizer twice.
    DuplicateFrame(u32),
    /// Mangle the frame header of the nth tensor message so decoding
    /// fails with a typed wire error. The server must reject it before
    /// touching any training state: a corrupt body costs the
    /// connection, never the loss curve.
    CorruptBody(u32),
    /// Silently blackhole both directions after the nth post-handshake
    /// message: later inbound messages are dropped, every reply
    /// vanishes, and — unlike the kill faults — **no FIN or error is
    /// ever surfaced** on either side. The connection just goes quiet,
    /// exactly like a network partition or a SIGKILLed peer whose port
    /// lingers. Detection must therefore come from deadline expiry
    /// (the server's `io_timeout` eviction, the client's transport
    /// deadline), never from a clean close.
    Partition(u32),
}

fn plan_for(options: &ChaosOptions, client: ClientId, incarnation: u64) -> Option<Fault> {
    if incarnation > options.max_faulted_incarnations {
        return None;
    }
    let mut rng = seeded_rng(options.seed, &format!("chaos-{client}-{incarnation}"));
    let roll: f64 = rng.gen();
    Some(if roll < 0.22 {
        Fault::KillRecvAfter(rng.gen_range(1..=5))
    } else if roll < 0.44 {
        Fault::KillQueueAfter(rng.gen_range(1..=5))
    } else if roll < 0.58 {
        Fault::HoldReplies(rng.gen_range(1..=options.max_hold_flushes.max(1)))
    } else if roll < 0.72 {
        Fault::DelayFrames(rng.gen_range(1..=3))
    } else if roll < 0.82 {
        Fault::DuplicateFrame(rng.gen_range(1..=4))
    } else if roll < 0.92 {
        Fault::CorruptBody(rng.gen_range(1..=4))
    } else {
        Fault::Partition(rng.gen_range(1..=4))
    })
}

/// An [`EventListener`] whose accepted connections inject scripted
/// faults. Wrap the real listener and run the loop unchanged.
pub struct ChaosListener<L> {
    inner: L,
    options: ChaosOptions,
    incarnations: Arc<Mutex<HashMap<ClientId, u64>>>,
    forced: Option<Fault>,
}

impl<L> ChaosListener<L> {
    /// Wraps a listener with a chaos script.
    pub fn new(inner: L, options: ChaosOptions) -> Self {
        ChaosListener {
            inner,
            options,
            incarnations: Arc::new(Mutex::new(HashMap::new())),
            forced: None,
        }
    }

    /// Wraps a listener that deals every budgeted incarnation exactly
    /// `fault` instead of rolling the plan — how the fault-matrix test
    /// pins each fault kind in isolation. The incarnation budget still
    /// applies, so retrying clients eventually run clean and finish.
    pub fn with_forced_fault(inner: L, options: ChaosOptions, fault: Fault) -> Self {
        ChaosListener {
            inner,
            options,
            incarnations: Arc::new(Mutex::new(HashMap::new())),
            forced: Some(fault),
        }
    }

    /// How many connections each client has opened so far — useful for
    /// asserting a soak actually exercised reconnects.
    pub fn incarnations_of(&self, client: ClientId) -> u64 {
        self.incarnations
            .lock()
            .expect("incarnation lock")
            .get(&client)
            .copied()
            .unwrap_or(0)
    }
}

impl<L: EventListener> EventListener for ChaosListener<L> {
    type Conn = ChaosConn<L::Conn>;

    fn poll_accept(&mut self) -> Result<Option<Self::Conn>, ProtocolError> {
        Ok(self.inner.poll_accept()?.map(|conn| ChaosConn {
            inner: conn,
            options: self.options,
            incarnations: self.incarnations.clone(),
            forced: self.forced,
            fault: None,
            identified: false,
            msgs_seen: 0,
            tensors_seen: 0,
            grads_seen: 0,
            replies_seen: 0,
            held: VecDeque::new(),
            hold_left: 0,
            delayed: VecDeque::new(),
            delay_left: 0,
            dup_pending: None,
            dup_done: false,
            recv_dead: false,
            partitioned: false,
        }))
    }
}

/// An [`EventConn`] that executes one incarnation's fault plan around
/// an inner connection.
pub struct ChaosConn<C> {
    inner: C,
    options: ChaosOptions,
    incarnations: Arc<Mutex<HashMap<ClientId, u64>>>,
    forced: Option<Fault>,
    fault: Option<Fault>,
    identified: bool,
    /// Messages seen after the handshake message.
    msgs_seen: u32,
    /// Tensor messages (`Activations`/`Gradients`) seen so far.
    tensors_seen: u32,
    /// `Gradients` messages seen so far.
    grads_seen: u32,
    /// Tensor replies queued so far.
    replies_seen: u32,
    held: VecDeque<ServerMessage>,
    hold_left: u32,
    /// Inbound messages staged before delivery; non-empty only while a
    /// `DelayFrames` stall is active or within a single poll.
    delayed: VecDeque<ClientMessage>,
    delay_left: u32,
    /// A scripted `DuplicateFrame` replay awaiting the next poll.
    dup_pending: Option<ClientMessage>,
    dup_done: bool,
    recv_dead: bool,
    /// A `Partition` fault has activated: both directions are silently
    /// blackholed from here on — no delivery, no FIN, no error.
    partitioned: bool,
}

impl<C> ChaosConn<C> {
    fn learn_identity(&mut self, client: ClientId) {
        self.identified = true;
        let incarnation = {
            let mut map = self.incarnations.lock().expect("incarnation lock");
            let n = map.entry(client).or_insert(0);
            *n += 1;
            *n
        };
        self.fault = if incarnation > self.options.max_faulted_incarnations {
            None
        } else {
            self.forced
                .or_else(|| plan_for(&self.options, client, incarnation))
        };
        if let Some(Fault::DelayFrames(polls)) = self.fault {
            self.delay_left = polls;
        }
    }

    /// Applies inbound faults to one post-handshake message and stages
    /// the (possibly mangled) result for delivery.
    fn stage_incoming(&mut self, msg: ClientMessage) {
        if self.partitioned {
            // Lost in the void: the message is neither delivered nor
            // acknowledged, and the sender learns nothing.
            return;
        }
        self.msgs_seen += 1;
        if matches!(
            msg,
            ClientMessage::Activations { .. } | ClientMessage::Gradients { .. }
        ) {
            self.tensors_seen += 1;
        }
        match self.fault {
            Some(Fault::DuplicateFrame(n)) => {
                if let ClientMessage::Gradients { .. } = &msg {
                    self.grads_seen += 1;
                    if self.grads_seen == n && !self.dup_done {
                        self.dup_done = true;
                        self.dup_pending = Some(msg.clone());
                    }
                }
                self.delayed.push_back(msg);
            }
            Some(Fault::CorruptBody(n)) if self.tensors_seen == n => {
                self.delayed.push_back(corrupt_frame(msg));
            }
            Some(Fault::Partition(n)) => {
                // The nth message is the last to get through; its
                // reply — and everything after — falls into the void.
                self.delayed.push_back(msg);
                if self.msgs_seen >= n {
                    self.partitioned = true;
                }
            }
            _ => self.delayed.push_back(msg),
        }
    }
}

/// Mangles a tensor frame so decoding fails with a typed wire error.
/// Flipping the first header byte breaks the frame magic — detectable
/// by construction, unlike a bit flip deep in the payload, so the
/// "rejected, never trained on" guarantee is checkable.
fn corrupt_frame(msg: ClientMessage) -> ClientMessage {
    fn mangle(frame: &bytes::Bytes) -> bytes::Bytes {
        let mut raw = frame.to_vec();
        match raw.first_mut() {
            Some(byte) => *byte ^= 0xFF,
            None => raw.push(0xFF),
        }
        bytes::Bytes::from(raw)
    }
    match msg {
        ClientMessage::Activations { client, frame } => ClientMessage::Activations {
            client,
            frame: mangle(&frame),
        },
        ClientMessage::Gradients { client, frame } => ClientMessage::Gradients {
            client,
            frame: mangle(&frame),
        },
        other => other,
    }
}

impl<C: EventConn> EventConn for ChaosConn<C> {
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
        if self.partitioned {
            // A partitioned link is pure silence: no data, no FIN, no
            // error — only the loop's io_timeout deadline can notice.
            return Ok(());
        }
        if self.recv_dead && self.delayed.is_empty() && self.dup_pending.is_none() {
            return Err(ProtocolError::Disconnected);
        }
        let start = out.len();
        // A replay scripted last poll lands before anything new: by now
        // the server has consumed the original, so it must reject this
        // copy as out-of-order.
        if let Some(dup) = self.dup_pending.take() {
            out.push(dup);
        }
        if !self.recv_dead {
            let mut incoming = Vec::new();
            match self.inner.poll_recv(&mut incoming) {
                Ok(()) => {}
                Err(e) => {
                    // Deliver what we already hold first; the hangup
                    // surfaces once the buffers run dry.
                    self.recv_dead = true;
                    if out.len() == start && self.delayed.is_empty() {
                        return Err(e);
                    }
                }
            }
            for msg in incoming.drain(..) {
                if !self.identified {
                    if let ClientMessage::Connect { client, .. }
                    | ClientMessage::Resume { client, .. } = &msg
                    {
                        let client = *client;
                        self.learn_identity(client);
                        self.delayed.push_back(msg);
                        continue;
                    }
                }
                self.stage_incoming(msg);
            }
        }
        // An active DelayFrames stall holds everything staged so far.
        if self.delay_left > 0 {
            self.delay_left -= 1;
            return Ok(());
        }
        out.extend(self.delayed.drain(..));
        if let Some(Fault::KillRecvAfter(n)) = self.fault {
            if self.msgs_seen >= n {
                // Per the EventConn contract, messages already drained
                // this call are delivered; the hangup surfaces on the
                // next poll.
                self.recv_dead = true;
                if out.len() == start {
                    return Err(ProtocolError::Disconnected);
                }
            }
        }
        Ok(())
    }

    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
        if self.partitioned {
            // Swallowed, not failed: a blackholed reply (including the
            // best-effort eviction notice) reports success and vanishes.
            return Ok(());
        }
        match self.fault {
            Some(Fault::KillQueueAfter(n)) => {
                // Only tensor replies count: killing a handshake reply
                // after the server committed its side would strand the
                // client by design (see the module docs).
                if matches!(
                    msg,
                    ServerMessage::ServerActivations { .. } | ServerMessage::ServerGradients { .. }
                ) {
                    self.replies_seen += 1;
                    if self.replies_seen >= n {
                        return Err(ProtocolError::Disconnected);
                    }
                }
                self.inner.queue(msg)
            }
            Some(Fault::HoldReplies(hold)) => {
                if self.held.is_empty() {
                    self.hold_left = hold;
                }
                self.held.push_back(msg.clone());
                Ok(())
            }
            _ => self.inner.queue(msg),
        }
    }

    fn flush(&mut self) -> Result<bool, ProtocolError> {
        if self.partitioned {
            return Ok(true);
        }
        if !self.held.is_empty() {
            if self.hold_left > 0 {
                self.hold_left -= 1;
                return Ok(false);
            }
            while let Some(msg) = self.held.pop_front() {
                self.inner.queue(&msg)?;
            }
        }
        self.inner.flush()
    }

    fn has_queued_writes(&self) -> bool {
        if self.partitioned {
            return false;
        }
        !self.held.is_empty() || self.inner.has_queued_writes()
    }

    fn queued_write_bytes(&self) -> u64 {
        if self.partitioned {
            return 0;
        }
        // Held replies count against the write-buffer bound too: a
        // chaos hold is indistinguishable from a stalled consumer.
        let held: u64 = self.held.iter().map(ServerMessage::wire_bytes).sum();
        held + self.inner.queued_write_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use bytes::Bytes;

    /// A canned inner conn: each poll pops the next scripted batch.
    struct ScriptedConn {
        polls: VecDeque<Vec<ClientMessage>>,
        sent: Vec<ServerMessage>,
    }

    impl EventConn for ScriptedConn {
        fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
            if let Some(batch) = self.polls.pop_front() {
                out.extend(batch);
            }
            Ok(())
        }

        fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
            self.sent.push(msg.clone());
            Ok(())
        }

        fn flush(&mut self) -> Result<bool, ProtocolError> {
            Ok(true)
        }

        fn has_queued_writes(&self) -> bool {
            false
        }
    }

    /// A post-handshake `ChaosConn` with one pinned fault, skipping
    /// the identity dance so each fault is testable in isolation.
    fn chaos_over(polls: Vec<Vec<ClientMessage>>, fault: Fault) -> ChaosConn<ScriptedConn> {
        ChaosConn {
            inner: ScriptedConn {
                polls: polls.into(),
                sent: Vec::new(),
            },
            options: ChaosOptions::default(),
            incarnations: Arc::new(Mutex::new(HashMap::new())),
            forced: None,
            fault: Some(fault),
            identified: true,
            msgs_seen: 0,
            tensors_seen: 0,
            grads_seen: 0,
            replies_seen: 0,
            held: VecDeque::new(),
            hold_left: 0,
            delayed: VecDeque::new(),
            delay_left: match fault {
                Fault::DelayFrames(polls) => polls,
                _ => 0,
            },
            dup_pending: None,
            dup_done: false,
            recv_dead: false,
            partitioned: false,
        }
    }

    fn grads(frame: Bytes) -> ClientMessage {
        ClientMessage::Gradients {
            client: ClientId(7),
            frame,
        }
    }

    #[test]
    fn delay_frames_stalls_then_delivers_in_order() {
        let first = grads(Bytes::from_static(b"a"));
        let second = grads(Bytes::from_static(b"b"));
        let mut conn = chaos_over(
            vec![vec![first.clone()], vec![second.clone()], vec![]],
            Fault::DelayFrames(2),
        );
        let mut out = Vec::new();
        conn.poll_recv(&mut out).unwrap();
        assert!(out.is_empty(), "first poll is stalled");
        conn.poll_recv(&mut out).unwrap();
        assert!(out.is_empty(), "second poll is stalled");
        conn.poll_recv(&mut out).unwrap();
        assert_eq!(
            out.len(),
            2,
            "the stall releases everything staged, in arrival order"
        );
        assert_eq!(format!("{:?}", out[0]), format!("{first:?}"));
        assert_eq!(format!("{:?}", out[1]), format!("{second:?}"));
    }

    #[test]
    fn duplicate_frame_replays_the_nth_gradients_next_poll() {
        let original = grads(Bytes::from_static(b"g1"));
        let mut conn = chaos_over(
            vec![vec![original.clone()], vec![], vec![]],
            Fault::DuplicateFrame(1),
        );
        let mut out = Vec::new();
        conn.poll_recv(&mut out).unwrap();
        assert_eq!(out.len(), 1, "the original is delivered on time");
        out.clear();
        conn.poll_recv(&mut out).unwrap();
        assert_eq!(out.len(), 1, "the replay lands exactly one poll later");
        assert_eq!(format!("{:?}", out[0]), format!("{original:?}"));
        out.clear();
        conn.poll_recv(&mut out).unwrap();
        assert!(out.is_empty(), "the replay fires once, not every poll");
    }

    #[test]
    fn corrupt_body_breaks_decoding_with_a_typed_error() {
        use menos_net::{decode_tensor_any, encode_tensor};
        use menos_tensor::Tensor;

        let good = encode_tensor(&Tensor::from_vec(vec![1.0, 2.0], [2]));
        let mut conn = chaos_over(
            vec![vec![grads(good.clone()), grads(good.clone())]],
            Fault::CorruptBody(1),
        );
        let mut out = Vec::new();
        conn.poll_recv(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        let ClientMessage::Gradients { frame, .. } = &out[0] else {
            panic!("tensor message expected");
        };
        let err = decode_tensor_any(frame).expect_err("mangled frame must not decode");
        assert!(
            matches!(err, menos_net::WireError::BadMagic(_)),
            "corruption is structurally detectable: {err:?}"
        );
        let ClientMessage::Gradients { frame, .. } = &out[1] else {
            panic!("tensor message expected");
        };
        decode_tensor_any(frame).expect("only the nth tensor is mangled");
    }

    #[test]
    fn the_default_plan_draws_every_fault_kind() {
        let options = ChaosOptions::default();
        let mut seen = [false; 7];
        for id in 0..256 {
            match plan_for(&options, ClientId(id), 1) {
                Some(Fault::KillRecvAfter(_)) => seen[0] = true,
                Some(Fault::KillQueueAfter(_)) => seen[1] = true,
                Some(Fault::HoldReplies(_)) => seen[2] = true,
                Some(Fault::DelayFrames(_)) => seen[3] = true,
                Some(Fault::DuplicateFrame(_)) => seen[4] = true,
                Some(Fault::CorruptBody(_)) => seen[5] = true,
                Some(Fault::Partition(_)) => seen[6] = true,
                None => {}
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "256 first incarnations cover the whole matrix: {seen:?}"
        );
    }

    #[test]
    fn partition_goes_silent_without_a_fin_in_either_direction() {
        let first = grads(Bytes::from_static(b"a"));
        let second = grads(Bytes::from_static(b"b"));
        let third = grads(Bytes::from_static(b"c"));
        let mut conn = chaos_over(
            vec![vec![first.clone()], vec![second.clone()], vec![third]],
            Fault::Partition(2),
        );
        let mut out = Vec::new();
        conn.poll_recv(&mut out).unwrap();
        assert_eq!(out.len(), 1, "messages before the partition flow");
        conn.queue(&ServerMessage::Pong {
            client: ClientId(7),
            seq: 0,
            live_sessions: 0,
            utilization_pct: 0,
        })
        .unwrap();
        assert_eq!(
            conn.inner.sent.len(),
            1,
            "replies before the partition flow"
        );
        out.clear();
        conn.poll_recv(&mut out).unwrap();
        assert_eq!(out.len(), 1, "the nth message is the last delivered");
        assert!(conn.partitioned);
        // From here on: silence, never an error, in both directions.
        for _ in 0..5 {
            out.clear();
            conn.poll_recv(&mut out).expect("no FIN on the read path");
            assert!(out.is_empty(), "nothing is delivered past the partition");
        }
        conn.queue(&ServerMessage::Pong {
            client: ClientId(7),
            seq: 1,
            live_sessions: 0,
            utilization_pct: 0,
        })
        .expect("no error on the write path");
        assert!(conn.flush().expect("flush reports clean"));
        assert_eq!(conn.inner.sent.len(), 1, "the reply fell into the void");
        assert!(!conn.has_queued_writes());
        assert_eq!(conn.queued_write_bytes(), 0);
    }

    #[test]
    fn plans_depend_only_on_seed_client_and_incarnation() {
        let options = ChaosOptions::default();
        for incarnation in 1..=options.max_faulted_incarnations {
            for id in 0..8 {
                let a = plan_for(&options, ClientId(id), incarnation);
                let b = plan_for(&options, ClientId(id), incarnation);
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                assert!(a.is_some(), "faulted incarnations always draw a fault");
            }
        }
        // Past the budget, incarnations run clean.
        assert!(plan_for(&options, ClientId(0), options.max_faulted_incarnations + 1).is_none());
    }

    #[test]
    fn chaos_seed_comes_from_the_environment() {
        // Set + unset around the read; the var name is test-local
        // enough that parallel tests in this crate do not race it.
        std::env::set_var("MENOS_CHAOS_SEED", "12345");
        let options = ChaosOptions::from_env();
        std::env::remove_var("MENOS_CHAOS_SEED");
        assert_eq!(options.seed, 12345);
        let fallback = ChaosOptions::from_env();
        assert_eq!(fallback.seed, ChaosOptions::default().seed);
    }
}
