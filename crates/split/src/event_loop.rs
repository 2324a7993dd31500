//! The server pump: one thread, many clients, batched dispatch.
//!
//! Parking one OS thread per client in a blocking `recv` would cap
//! concurrency at the thread budget and — worse for Menos — hand the
//! compute backend one client's micro-batch at a time, so the
//! parallel matmul kernels would never see the large batches they
//! were built for. This module drives the [`MessageHandler`] state
//! machine from a single-threaded readiness loop instead: the same
//! encoded bytes and the same error taxonomy on every transport.
//!
//! The pieces:
//!
//! * [`EventConn`] / [`EventListener`] — the nonblocking face of a
//!   transport: drain whatever messages are ready *now*, queue replies,
//!   flush partial writes later. Implemented by the in-memory channel
//!   and simulated-WAN transports here, and by nonblocking TCP in
//!   [`crate::tcp`] (built on `menos-net`'s `FrameAccumulator` /
//!   `WriteQueue`).
//! * [`BatchHandler`] — a [`MessageHandler`] that may accept a whole
//!   sweep's worth of ready messages at once. `menos-core`'s
//!   `MenosServer` implements it by stacking compatible clients'
//!   activations into one forward/backward; the default implementation
//!   just replays messages one by one, which keeps every handler
//!   usable under the loop.
//! * [`ServerEventLoop`] — the pump itself: accept, sweep reads,
//!   batch-dispatch, flush, repeat. A failed connection hands its
//!   client's session to [`MessageHandler::connection_lost`]; other
//!   clients never notice.
//!
//! Because the lock-step protocol allows at most one outstanding
//! message per client, the batching rule is simple: collect tensor
//! messages until a sweep adds none (the ready set went quiet) or the
//! batch reaches [`EventLoopOptions::batch_window`], then dispatch the
//! whole set. While the handler computes, the replies release every
//! client in the batch; their next messages land together — so large
//! batches are self-sustaining.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::message::{ClientId, ClientMessage, EvictionCode, ServerMessage};
use crate::protocol::{
    channel_pair, sim_pair, ChannelTransport, MessageHandler, ProtocolError, SimTransport,
    Transport,
};
use menos_net::WanLink;

// ----------------------------------------------------------------------
// The nonblocking transport face
// ----------------------------------------------------------------------

/// A server-side connection the event loop can poll without blocking.
///
/// One instance exists per connected client. Unlike
/// [`Transport`](crate::Transport), nothing here parks the thread:
/// `poll_recv` drains only what has already arrived, `queue` accepts a
/// reply for (possibly deferred) transmission, and `flush` pushes
/// queued bytes until the peer stops accepting them.
pub trait EventConn {
    /// Drains every message that is ready right now into `out`.
    ///
    /// Must return buffered messages before surfacing a disconnect: if
    /// the peer sent bytes and then hung up, the messages in those
    /// bytes are delivered on this call and the error on the next.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] when the peer is gone and no
    /// messages remain, [`ProtocolError::Wire`] on undecodable bytes,
    /// or a transport fault. Any error is fatal to this connection.
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError>;

    /// Queues one reply for transmission, writing as much as the peer
    /// will immediately accept.
    ///
    /// # Errors
    ///
    /// Fatal transport faults; `WouldBlock` is not an error (the
    /// remainder is flushed later).
    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError>;

    /// Pushes queued bytes to the peer. Returns `Ok(true)` when
    /// nothing remains queued.
    ///
    /// # Errors
    ///
    /// Fatal transport faults; `WouldBlock` is not an error.
    fn flush(&mut self) -> Result<bool, ProtocolError>;

    /// True while queued bytes await a writable peer.
    fn has_queued_writes(&self) -> bool {
        false
    }

    /// Bytes currently queued awaiting a writable peer. Transports
    /// whose `queue` transmits synchronously (the in-memory channels)
    /// report 0; nonblocking TCP reports its `WriteQueue` depth. The
    /// loop's slow-consumer bound
    /// ([`EventLoopOptions::max_write_buffer`]) is enforced against
    /// this number.
    fn queued_write_bytes(&self) -> u64 {
        0
    }
}

/// A source of new [`EventConn`]s the event loop can poll without
/// blocking — the nonblocking analogue of an accept loop.
pub trait EventListener {
    /// Connection type produced by this listener.
    type Conn: EventConn;

    /// Accepts one pending connection, if any is ready.
    ///
    /// # Errors
    ///
    /// A fatal listener fault; the loop stops accepting (existing
    /// connections drain normally).
    fn poll_accept(&mut self) -> Result<Option<Self::Conn>, ProtocolError>;
}

// ----------------------------------------------------------------------
// Batched dispatch
// ----------------------------------------------------------------------

/// A [`MessageHandler`] that may process a whole ready-set of tensor
/// messages in one server step.
///
/// The event loop hands `handle_batch` every staged `Activations` /
/// `Gradients` message from clients that were ready this dispatch
/// (control messages never appear here — the loop routes them through
/// [`MessageHandler::handle`]). The handler returns one reply slot per
/// input message, keyed by client — the lock-step protocol guarantees
/// at most one outstanding message per client, so the key is
/// unambiguous. A per-client error poisons only that client: the loop
/// reclaims its session and drops its connection, exactly as a
/// transport fault would.
///
/// The default implementation replays messages one at a time through
/// `handle`, making every existing handler event-loop capable;
/// `menos-core`'s `MenosServer` overrides it to stack compatible
/// clients into one batched forward/backward.
pub trait BatchHandler: MessageHandler {
    /// Dispatches a batch of tensor messages, returning
    /// `(client, reply-or-error)` for every input message.
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        msgs.into_iter()
            .map(|msg| {
                let client = msg.client();
                (client, self.handle(msg))
            })
            .collect()
    }
}

/// Shared handlers batch through the lock, mirroring the
/// [`MessageHandler`] blanket impl.
impl<H: BatchHandler> BatchHandler for Arc<std::sync::Mutex<H>> {
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        match self.lock() {
            Ok(mut h) => h.handle_batch(msgs),
            Err(_) => msgs
                .into_iter()
                .map(|msg| {
                    (
                        msg.client(),
                        Err(ProtocolError::Unexpected("handler lock poisoned".into())),
                    )
                })
                .collect(),
        }
    }
}

impl BatchHandler for crate::protocol::SessionHandler {}

// ----------------------------------------------------------------------
// Loop configuration and observability
// ----------------------------------------------------------------------

/// Tuning knobs for [`ServerEventLoop`].
#[derive(Debug, Clone, Copy)]
pub struct EventLoopOptions {
    /// Total connections to accept before the loop stops accepting;
    /// once they all disconnect the loop exits. `usize::MAX` serves
    /// forever (stop via [`ServerEventLoop::shutdown_handle`]).
    ///
    /// Renamed from `max_clients`, which read as a concurrency cap but
    /// is a lifetime accept budget — the concurrency cap is
    /// [`capacity`](EventLoopOptions::capacity). Shed connections still
    /// consume this budget (they were accepted, then turned away).
    pub accept_limit: usize,
    /// Live-session admission cap (PROTOCOL.md §8, v1.3): a `Connect`
    /// or `Resume` arriving while this many sessions are bound to live
    /// connections is shed with [`ServerMessage::Busy`] carrying the
    /// [`busy_retry_after`](EventLoopOptions::busy_retry_after) hint,
    /// then the connection closes. No session state is touched — the
    /// client just reconnects later. `usize::MAX` (the default) never
    /// sheds. Quarantined (disconnected-but-resumable) sessions do not
    /// count — only sessions bound to a live connection.
    pub capacity: usize,
    /// The reconnect hint carried by loop-level capacity sheds.
    /// Handlers that shed on their own (pool admission) carry their
    /// own hint in [`ProtocolError::Busy`].
    pub busy_retry_after: Duration,
    /// Per-connection bound on queued-but-unsent reply bytes. A
    /// consumer stalled past it is evicted and its session quarantined
    /// exactly like an `io_timeout` eviction, so one stalled peer can
    /// never balloon server memory. `None` (the default) keeps the
    /// pre-v1.3 unbounded behaviour.
    pub max_write_buffer: Option<u64>,
    /// Per-connection bound on tensor messages staged for batch
    /// dispatch — the message-level analogue of
    /// `FrameAccumulator::with_staged_cap`. Lock-step traffic stages
    /// at most one message per connection, so any excess is a
    /// protocol violation; the offender is dropped with a typed
    /// [`StagedOverflow`](menos_net::WireError::StagedOverflow) and
    /// its staged messages are purged.
    pub max_staged_msgs: usize,
    /// Dispatch the pending batch as soon as it reaches this many
    /// messages, even if more clients look ready.
    pub batch_window: usize,
    /// Floor of the idle-backoff ladder: the first sleep after a sweep
    /// that made no progress. Keep small — it is the idle-path latency
    /// floor.
    pub idle_sleep: Duration,
    /// Ceiling of the idle-backoff ladder: consecutive idle sweeps
    /// double the sleep up to this bound, so a quiet server does not
    /// busy-spin at the floor cadence forever. Any readiness snaps the
    /// ladder back to `idle_sleep`.
    pub max_idle_sleep: Duration,
    /// Evict a connection silent for longer than this (`None` waits
    /// forever). The evicted client gets a best-effort
    /// [`ServerMessage::Evicted`] notice and its session is handed to
    /// [`MessageHandler::connection_lost`] — under `MenosServer` that
    /// quarantines it for later resumption rather than dropping it.
    pub io_timeout: Option<Duration>,
    /// How long a quarantined (disconnected but resumable) session may
    /// sit idle before [`MessageHandler::expire_idle`] reaps it
    /// (`None` keeps parked sessions forever).
    pub max_session_idle: Option<Duration>,
}

impl Default for EventLoopOptions {
    fn default() -> Self {
        EventLoopOptions {
            accept_limit: usize::MAX,
            capacity: usize::MAX,
            busy_retry_after: Duration::from_millis(100),
            max_write_buffer: None,
            max_staged_msgs: 8,
            batch_window: 32,
            idle_sleep: Duration::from_micros(200),
            max_idle_sleep: Duration::from_millis(2),
            io_timeout: None,
            max_session_idle: None,
        }
    }
}

/// The sweep loop's adaptive idle backoff: a sleep ladder that starts
/// at a floor, doubles on every consecutive idle sweep up to a
/// ceiling, and snaps back to the floor the moment any sweep makes
/// progress.
///
/// This replaces a fixed idle sleep, which forced a hard choice
/// between busy-polling a quiet server (floor too low) and adding
/// latency to every lock-step round-trip (floor too high): under load
/// the ladder never leaves the floor, and a quiet server climbs to the
/// ceiling within a handful of sweeps.
#[derive(Debug, Clone, Copy)]
pub struct IdleBackoff {
    floor: Duration,
    ceil: Duration,
    current: Duration,
}

impl IdleBackoff {
    /// Builds a ladder over `[floor, ceil]` (a ceiling below the floor
    /// is clamped up to it), starting at the floor.
    pub fn new(floor: Duration, ceil: Duration) -> Self {
        let ceil = ceil.max(floor);
        IdleBackoff {
            floor,
            ceil,
            current: floor,
        }
    }

    /// The sleep the next idle sweep would take.
    pub fn current(&self) -> Duration {
        self.current
    }

    /// Snaps back to the floor — call on any readiness.
    pub fn reset(&mut self) {
        self.current = self.floor;
    }

    /// Returns the sleep for this idle sweep and climbs one rung.
    pub fn next_sleep(&mut self) -> Duration {
        let sleep = self.current;
        self.current = (self.current * 2).min(self.ceil);
        sleep
    }
}

/// Where and how often the event loop persists the handler's durable
/// state (see [`MessageHandler::snapshot_bytes`]).
///
/// Snapshots land in `dir` as a single `server.snap` file, written
/// atomically: bytes go to `server.snap.tmp`, are fsynced, and the tmp
/// file is renamed over the live one — a crash mid-write leaves the
/// previous snapshot intact, so the file on disk is always a complete,
/// CRC-sealed state (never a torn one).
///
/// `every == 0` selects **durable** mode: a snapshot is taken after
/// every state-advancing dispatch, *before* the corresponding replies
/// are released to clients. That ordering is what makes
/// kill-the-server recovery divergence-free — a client can only have
/// observed a reply whose effects are already on disk, so replaying
/// through the v1.1 `Resume` reconciliation lands on exactly the state
/// the client saw. `every == N > 0` snapshots after every N
/// dispatches (plus once at loop exit), trading bounded replay work
/// for lower I/O.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    dir: PathBuf,
    every: u64,
}

/// File name of the live snapshot inside the policy directory.
const SNAPSHOT_FILE: &str = "server.snap";

impl SnapshotPolicy {
    /// Durable mode: snapshot before every reply release (`every = 0`).
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        SnapshotPolicy {
            dir: dir.into(),
            every: 0,
        }
    }

    /// Periodic mode: snapshot after every `every` dispatches and at
    /// loop exit. `every == 0` degenerates to [`durable`](Self::durable).
    pub fn periodic(dir: impl Into<PathBuf>, every: u64) -> Self {
        SnapshotPolicy {
            dir: dir.into(),
            every,
        }
    }

    /// The dispatch cadence (0 = durable).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Path of the live snapshot file under this policy's directory.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Atomically replaces the live snapshot with `bytes`
    /// (tmp file + `write_all` + `sync_all` + rename).
    ///
    /// # Errors
    ///
    /// Any I/O fault creating the directory, writing, syncing, or
    /// renaming. On error the previous snapshot (if any) is untouched.
    pub fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join("server.snap.tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.snapshot_path())
    }

    /// Reads the live snapshot under `dir`, if one exists. Validation
    /// is the caller's job (snapshot bytes are CRC-sealed and decode
    /// through the typed checkpoint path).
    pub fn read(dir: impl AsRef<Path>) -> Option<Vec<u8>> {
        std::fs::read(dir.as_ref().join(SNAPSHOT_FILE)).ok()
    }
}

/// Counters describing one [`ServerEventLoop::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EventLoopStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Clients that disconnected cleanly.
    pub served: u64,
    /// Connections dropped on error or timeout (sessions reclaimed).
    pub conn_errors: u64,
    /// Batch dispatches issued.
    pub batches: u64,
    /// Tensor messages dispatched across all batches.
    pub batched_messages: u64,
    /// Largest single batch.
    pub max_batch: usize,
    /// Readiness sweeps executed.
    pub sweeps: u64,
    /// Connections evicted for exceeding the client timeout.
    pub evicted: u64,
    /// Sessions successfully re-attached via `Resume`.
    pub resumed: u64,
    /// Quarantined sessions reaped by the idle TTL.
    pub expired: u64,
    /// Snapshots written successfully (see [`SnapshotPolicy`]).
    pub snapshots: u64,
    /// Snapshot attempts that failed (I/O fault); the loop keeps
    /// serving — durability degrades, training does not stop.
    pub snapshot_errors: u64,
    /// Connections shed at admission with a [`ServerMessage::Busy`]
    /// reply — by the loop's [`EventLoopOptions::capacity`] cap or by
    /// the handler returning [`ProtocolError::Busy`] (v1.3).
    pub shed: u64,
    /// Connections evicted for stalling past
    /// [`EventLoopOptions::max_write_buffer`].
    pub write_overflows: u64,
    /// Connections dropped for staging more than
    /// [`EventLoopOptions::max_staged_msgs`] tensor messages.
    pub staged_overflows: u64,
    /// Sweeps that deferred accepting because the handler reported
    /// memory pressure (drain existing work before admitting more).
    pub deferred_accept_sweeps: u64,
    /// High-water mark of sessions bound to live connections — the
    /// number [`EventLoopOptions::capacity`] bounds.
    pub max_live_sessions: usize,
    /// High-water mark of any single connection's queued write bytes,
    /// observed after each flush — the number
    /// [`EventLoopOptions::max_write_buffer`] bounds.
    pub max_queued_write_bytes: u64,
    /// v1.4 heartbeat probes answered with `Pong`.
    pub pings: u64,
    /// v1.4 migrated sessions accepted via `ImportSession` and parked
    /// for their owner's `Resume`.
    pub sessions_imported: u64,
}

// ----------------------------------------------------------------------
// The pump
// ----------------------------------------------------------------------

struct ConnState<C> {
    conn: C,
    /// Bound after a successful `Connect`.
    client: Option<ClientId>,
    last_activity: Instant,
}

/// The single-threaded, event-driven server pump: owns every client
/// connection, sweeps them for ready messages, and dispatches the
/// ready set to a [`BatchHandler`] as one batch.
pub struct ServerEventLoop<L: EventListener, H: BatchHandler> {
    listener: L,
    handler: H,
    options: EventLoopOptions,
    snapshots: Option<SnapshotPolicy>,
    shutdown: Arc<AtomicBool>,
}

impl<L: EventListener, H: BatchHandler> ServerEventLoop<L, H> {
    /// Builds a loop over a listener and a handler.
    pub fn new(listener: L, handler: H, options: EventLoopOptions) -> Self {
        ServerEventLoop {
            listener,
            handler,
            options,
            snapshots: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Persists the handler's durable state per `policy` (handlers
    /// that return `None` from
    /// [`MessageHandler::snapshot_bytes`] are simply never
    /// snapshotted). A final snapshot is always written when the loop
    /// exits, whatever the cadence.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = Some(policy);
        self
    }

    /// A flag that stops the loop at the next sweep (live sessions are
    /// reclaimed first).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Runs until `accept_limit` connections have been accepted and
    /// all of them have disconnected (or the shutdown flag is raised).
    /// Returns the handler and the run's counters.
    pub fn run(self) -> (H, EventLoopStats) {
        let ServerEventLoop {
            mut listener,
            mut handler,
            options,
            snapshots,
            shutdown,
        } = self;
        let mut stats = EventLoopStats::default();
        // BTreeMap: sweeps visit connections in a deterministic order.
        let mut conns: BTreeMap<u64, ConnState<L::Conn>> = BTreeMap::new();
        let mut next_key: u64 = 0;
        let mut accepted: usize = 0;
        let mut done_accepting = false;
        // Tensor messages staged for the next batch dispatch, tagged
        // with the connection that produced them.
        let mut pending: Vec<(u64, ClientMessage)> = Vec::new();
        let mut ready: Vec<ClientMessage> = Vec::new();
        // Reply routing for batch dispatches, reused across steps so
        // the steady-state sweep → dispatch → flush cycle allocates
        // nothing (frame staging is likewise pooled inside each
        // connection's accumulator).
        let mut key_of: HashMap<ClientId, u64> = HashMap::new();

        let mut backoff = IdleBackoff::new(options.idle_sleep, options.max_idle_sleep);
        let mut last_expiry_check = Instant::now();

        // Drops a connection and hands its session to the handler's
        // lost-connection path, leaving every other client untouched.
        // Under `MenosServer` the session is quarantined for
        // resumption; the default hook synthesizes a `Disconnect`,
        // reclaiming the session outright for plain handlers.
        //
        // Staged-but-undispatched messages from the dead connection are
        // purged with it: dispatching them later would advance the
        // session behind the client's back — fatal once the client
        // resumes and redoes the step the server already half-ran.
        fn fail_conn<C, H: BatchHandler>(
            conns: &mut BTreeMap<u64, ConnState<C>>,
            handler: &mut H,
            stats: &mut EventLoopStats,
            pending: &mut Vec<(u64, ClientMessage)>,
            key: u64,
        ) {
            if let Some(state) = conns.remove(&key) {
                stats.conn_errors += 1;
                pending.retain(|(k, _)| *k != key);
                if let Some(client) = state.client {
                    handler.connection_lost(client);
                }
            }
        }

        // Turns away a connection at admission (v1.3, PROTOCOL.md §8):
        // best-effort `Busy` reply with the retry hint, then the
        // connection closes. Deliberately NOT `fail_conn` — no session
        // was created, so there is nothing to quarantine, and a shed
        // is load management, not a connection error.
        fn shed_conn<C: EventConn>(
            conns: &mut BTreeMap<u64, ConnState<C>>,
            stats: &mut EventLoopStats,
            pending: &mut Vec<(u64, ClientMessage)>,
            key: u64,
            client: ClientId,
            retry_after_ms: u64,
        ) {
            if let Some(mut state) = conns.remove(&key) {
                stats.shed += 1;
                pending.retain(|(k, _)| *k != key);
                let notice = ServerMessage::Busy {
                    client,
                    retry_after_ms,
                };
                if state.conn.queue(&notice).is_ok() {
                    let _ = state.conn.flush();
                }
            }
        }

        // Stages one tensor message for batch dispatch, enforcing the
        // per-connection cap — the message-level analogue of
        // `FrameAccumulator::with_staged_cap`. Lock-step traffic never
        // stages more than one message per connection, so hitting the
        // cap means the peer is violating the protocol (or a fault is
        // duplicating frames); the caller drops it via `fail_conn`,
        // which also purges what it had staged.
        fn stage_tensor(
            pending: &mut Vec<(u64, ClientMessage)>,
            key: u64,
            msg: ClientMessage,
            cap: usize,
        ) -> Result<(), ProtocolError> {
            let staged = pending.iter().filter(|(k, _)| *k == key).count();
            if staged >= cap {
                return Err(ProtocolError::Wire(menos_net::WireError::StagedOverflow {
                    needed: staged as u64 + 1,
                    cap: cap as u64,
                }));
            }
            pending.push((key, msg));
            Ok(())
        }

        // Persists the handler's state after a state-advancing
        // dispatch, *before* the replies it produced are queued. In
        // durable mode (`every == 0`) every dispatch snapshots —
        // clients then can never observe a reply whose effects are not
        // on disk, which is the invariant behind bit-identical
        // kill-the-server recovery. Periodic mode counts dispatches.
        // Quarantine/eviction mutations deliberately do NOT snapshot
        // here: restoring a pre-quarantine superset is safe (the
        // restore path parks every session anyway).
        fn snapshot_after_dispatch<H: BatchHandler>(
            handler: &mut H,
            stats: &mut EventLoopStats,
            policy: Option<&SnapshotPolicy>,
            since: &mut u64,
        ) {
            let Some(policy) = policy else { return };
            *since += 1;
            if policy.every() != 0 && *since < policy.every() {
                return;
            }
            *since = 0;
            if let Some(bytes) = handler.snapshot_bytes() {
                match policy.write(&bytes) {
                    Ok(()) => stats.snapshots += 1,
                    Err(_e) => stats.snapshot_errors += 1,
                }
            }
        }
        let mut since_snapshot: u64 = 0;

        loop {
            stats.sweeps += 1;
            let mut progress = false;

            if shutdown.load(Ordering::Relaxed) {
                for (_, mut state) in std::mem::take(&mut conns) {
                    if let Some(client) = state.client {
                        // Best-effort courtesy notice; the session is
                        // parked (or reclaimed) regardless.
                        let notice = ServerMessage::Evicted {
                            client,
                            code: EvictionCode::Shutdown,
                        };
                        if state.conn.queue(&notice).is_ok() {
                            let _ = state.conn.flush();
                        }
                        handler.connection_lost(client);
                    }
                }
                break;
            }

            // Phase 1: accept whatever is knocking — unless the
            // handler reports memory pressure and there is existing
            // work to drain, in which case new connections wait in the
            // listener's backlog this sweep. Degrading admission under
            // pressure beats accepting work the pool cannot hold.
            let defer_accepts = !conns.is_empty() && handler.under_pressure();
            if defer_accepts {
                stats.deferred_accept_sweeps += 1;
            }
            while !defer_accepts && !done_accepting && accepted < options.accept_limit {
                match listener.poll_accept() {
                    Ok(Some(conn)) => {
                        conns.insert(
                            next_key,
                            ConnState {
                                conn,
                                client: None,
                                last_activity: Instant::now(),
                            },
                        );
                        next_key += 1;
                        accepted += 1;
                        stats.accepted += 1;
                        progress = true;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        done_accepting = true;
                    }
                }
            }

            // Phase 2: sweep every connection for ready messages.
            // Control messages dispatch inline (they are cheap and
            // order-sensitive); tensor messages stage for the batch.
            let mut new_tensor = 0usize;
            let keys: Vec<u64> = conns.keys().copied().collect();
            for key in keys {
                ready.clear();
                let recv = {
                    let state = conns.get_mut(&key).expect("swept key exists");
                    state.conn.poll_recv(&mut ready)
                };
                if let Err(_e) = recv {
                    fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                    continue;
                }
                if !ready.is_empty() {
                    progress = true;
                    if let Some(state) = conns.get_mut(&key) {
                        state.last_activity = Instant::now();
                    }
                }
                for msg in ready.drain(..) {
                    match msg {
                        msg @ (ClientMessage::Connect { .. } | ClientMessage::Resume { .. }) => {
                            let client = msg.client();
                            let is_resume = matches!(msg, ClientMessage::Resume { .. });
                            // v1.3 admission: shed at the door when
                            // live sessions are at capacity. The
                            // handler is never consulted, so no
                            // session state is created or mutated —
                            // shedding is idempotent.
                            let unbound = conns.get(&key).is_some_and(|s| s.client.is_none());
                            if unbound {
                                let live = conns.values().filter(|s| s.client.is_some()).count();
                                if live >= options.capacity {
                                    shed_conn(
                                        &mut conns,
                                        &mut stats,
                                        &mut pending,
                                        key,
                                        client,
                                        options.busy_retry_after.as_millis() as u64,
                                    );
                                    break;
                                }
                            }
                            match handler.handle(msg) {
                                Ok(reply) => {
                                    // Admission mutated durable state
                                    // (session created or re-attached);
                                    // persist before the reply can
                                    // reach the client.
                                    snapshot_after_dispatch(
                                        &mut handler,
                                        &mut stats,
                                        snapshots.as_ref(),
                                        &mut since_snapshot,
                                    );
                                    conns
                                        .get_mut(&key)
                                        .expect("conn alive during connect")
                                        .client = Some(client);
                                    if is_resume {
                                        stats.resumed += 1;
                                    }
                                    let live =
                                        conns.values().filter(|s| s.client.is_some()).count();
                                    stats.max_live_sessions = stats.max_live_sessions.max(live);
                                    if let Some(reply) = reply {
                                        let state =
                                            conns.get_mut(&key).expect("conn alive during connect");
                                        if state.conn.queue(&reply).is_err() {
                                            fail_conn(
                                                &mut conns,
                                                &mut handler,
                                                &mut stats,
                                                &mut pending,
                                                key,
                                            );
                                            break;
                                        }
                                    }
                                }
                                Err(ProtocolError::Busy { retry_after_ms, .. }) => {
                                    // The handler shed at its own
                                    // admission gate (Alg. 2: the
                                    // reservation would oversubscribe
                                    // the pool right now) — same wire
                                    // outcome as the loop-level cap,
                                    // with the handler's hint.
                                    shed_conn(
                                        &mut conns,
                                        &mut stats,
                                        &mut pending,
                                        key,
                                        client,
                                        retry_after_ms,
                                    );
                                    break;
                                }
                                Err(e) => {
                                    // A resume for state the TTL already
                                    // reaped gets a courtesy notice so the
                                    // client stops retrying.
                                    if is_resume && matches!(e, ProtocolError::UnknownClient(_)) {
                                        if let Some(state) = conns.get_mut(&key) {
                                            let notice = ServerMessage::Evicted {
                                                client,
                                                code: EvictionCode::IdleExpired,
                                            };
                                            if state.conn.queue(&notice).is_ok() {
                                                let _ = state.conn.flush();
                                            }
                                        }
                                    }
                                    // Rejected (validation/admission,
                                    // stale epoch, live session):
                                    // drop the connection; the peer
                                    // observes a disconnect.
                                    fail_conn(
                                        &mut conns,
                                        &mut handler,
                                        &mut stats,
                                        &mut pending,
                                        key,
                                    );
                                    break;
                                }
                            }
                        }
                        msg @ ClientMessage::Disconnect { .. } => {
                            let _ = handler.handle(msg);
                            snapshot_after_dispatch(
                                &mut handler,
                                &mut stats,
                                snapshots.as_ref(),
                                &mut since_snapshot,
                            );
                            if conns.remove(&key).is_some() {
                                stats.served += 1;
                            }
                            break;
                        }
                        // v1.4 heartbeat: answered inline — no session
                        // state is touched, so no snapshot, and the
                        // connection stays unbound (a monitor's probe
                        // must not occupy a live-session slot).
                        msg @ ClientMessage::Ping { .. } => match handler.handle(msg) {
                            Ok(Some(reply)) => {
                                stats.pings += 1;
                                let state = conns.get_mut(&key).expect("conn alive during ping");
                                if state.conn.queue(&reply).is_err() {
                                    fail_conn(
                                        &mut conns,
                                        &mut handler,
                                        &mut stats,
                                        &mut pending,
                                        key,
                                    );
                                    break;
                                }
                            }
                            _ => {
                                fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                                break;
                            }
                        },
                        // v1.4 migration: an imported session parks in
                        // quarantine (durable state mutated → snapshot
                        // before the ack), but the *pushing* connection
                        // — the coordinator — does not bind to it; the
                        // owning client resumes over its own connection.
                        msg @ ClientMessage::ImportSession { .. } => match handler.handle(msg) {
                            Ok(Some(reply)) => {
                                stats.sessions_imported += 1;
                                snapshot_after_dispatch(
                                    &mut handler,
                                    &mut stats,
                                    snapshots.as_ref(),
                                    &mut since_snapshot,
                                );
                                let state = conns.get_mut(&key).expect("conn alive during import");
                                if state.conn.queue(&reply).is_err() {
                                    fail_conn(
                                        &mut conns,
                                        &mut handler,
                                        &mut stats,
                                        &mut pending,
                                        key,
                                    );
                                    break;
                                }
                            }
                            _ => {
                                // A rejected import closes the pushing
                                // connection: the coordinator observes
                                // the drop as a typed failure, and the
                                // handler committed nothing.
                                fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                                break;
                            }
                        },
                        tensor => {
                            match stage_tensor(&mut pending, key, tensor, options.max_staged_msgs) {
                                Ok(()) => new_tensor += 1,
                                Err(_overflow) => {
                                    // Typed StagedOverflow: the peer
                                    // outran lock-step. Drop it and
                                    // purge what it staged — exactly
                                    // the fail_conn path, counted
                                    // separately for observability.
                                    stats.staged_overflows += 1;
                                    fail_conn(
                                        &mut conns,
                                        &mut handler,
                                        &mut stats,
                                        &mut pending,
                                        key,
                                    );
                                    break;
                                }
                            }
                        }
                    }
                }
            }

            // Phase 3: dispatch the batch once the ready set goes
            // quiet (no new tensor message this sweep) or the window
            // fills. Lock-step ⇒ each pending client is stalled until
            // its reply, so "quiet" means everyone ready has reported.
            let dispatch =
                !pending.is_empty() && (new_tensor == 0 || pending.len() >= options.batch_window);
            if dispatch {
                progress = true;
                let batch = std::mem::take(&mut pending);
                stats.batches += 1;
                stats.batched_messages += batch.len() as u64;
                stats.max_batch = stats.max_batch.max(batch.len());
                key_of.clear();
                key_of.extend(batch.iter().map(|(k, m)| (m.client(), *k)));
                let results = handler.handle_batch(batch.into_iter().map(|(_, m)| m).collect());
                // Training steps advanced; in durable mode the replies
                // below must not leave before the state that produced
                // them is on disk.
                snapshot_after_dispatch(
                    &mut handler,
                    &mut stats,
                    snapshots.as_ref(),
                    &mut since_snapshot,
                );
                for (client, result) in results {
                    let Some(&key) = key_of.get(&client) else {
                        continue;
                    };
                    match result {
                        Ok(Some(reply)) => {
                            let alive = match conns.get_mut(&key) {
                                Some(state) => state.conn.queue(&reply).is_ok(),
                                None => continue,
                            };
                            if !alive {
                                fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                            }
                        }
                        Ok(None) => {}
                        Err(_e) => {
                            fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                        }
                    }
                }
            }

            // Phase 4: flush partial writes; enforce silence timeouts.
            let keys: Vec<u64> = conns.keys().copied().collect();
            for key in keys {
                let state = conns.get_mut(&key).expect("flushed key exists");
                if state.conn.has_queued_writes() {
                    match state.conn.flush() {
                        Ok(drained) => {
                            if drained {
                                progress = true;
                            }
                        }
                        Err(_e) => {
                            fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                            continue;
                        }
                    }
                }
                // Slow-consumer bound: whatever survived the flush is
                // what the peer refused to take. A stalled consumer is
                // evicted (session quarantined, resumable later) —
                // bounded memory beats waiting on a peer that may
                // never drain.
                let queued = conns
                    .get(&key)
                    .map(|s| s.conn.queued_write_bytes())
                    .unwrap_or(0);
                stats.max_queued_write_bytes = stats.max_queued_write_bytes.max(queued);
                if let Some(limit) = options.max_write_buffer {
                    if queued > limit {
                        stats.write_overflows += 1;
                        stats.evicted += 1;
                        fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                        continue;
                    }
                }
                if let Some(limit) = options.io_timeout {
                    let state = conns.get_mut(&key).expect("timeout key exists");
                    if state.last_activity.elapsed() > limit {
                        // Best-effort eviction notice before the drop;
                        // the session is quarantined via fail_conn.
                        if let Some(client) = state.client {
                            let notice = ServerMessage::Evicted {
                                client,
                                code: EvictionCode::Timeout,
                            };
                            if state.conn.queue(&notice).is_ok() {
                                let _ = state.conn.flush();
                            }
                        }
                        stats.evicted += 1;
                        fail_conn(&mut conns, &mut handler, &mut stats, &mut pending, key);
                    }
                }
            }

            // Phase 5: reap quarantined sessions past the idle TTL.
            // Checked on a coarse cadence — expiry precision does not
            // need sweep-frequency polling.
            if let Some(ttl) = options.max_session_idle {
                let cadence = (ttl / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
                if last_expiry_check.elapsed() >= cadence {
                    last_expiry_check = Instant::now();
                    stats.expired += handler.expire_idle(ttl).len() as u64;
                }
            }

            if (done_accepting || accepted >= options.accept_limit)
                && conns.is_empty()
                && pending.is_empty()
            {
                break;
            }
            if progress {
                backoff.reset();
            } else {
                std::thread::sleep(backoff.next_sleep());
            }
        }
        // Final snapshot at exit, whatever the cadence: a clean
        // shutdown (including the shutdown-flag branch, which
        // quarantines every live session first) always leaves the
        // latest state on disk.
        if let Some(policy) = &snapshots {
            if let Some(bytes) = handler.snapshot_bytes() {
                match policy.write(&bytes) {
                    Ok(()) => stats.snapshots += 1,
                    Err(_e) => stats.snapshot_errors += 1,
                }
            }
        }
        (handler, stats)
    }
}

// ----------------------------------------------------------------------
// In-memory listeners: channel and simulated-WAN dialers
// ----------------------------------------------------------------------

/// An [`EventListener`] over an in-process queue of pre-built
/// connections — how the channel and simulated-WAN transports reach
/// the event loop without sockets.
pub struct QueueListener<C> {
    rx: mpsc::Receiver<C>,
}

impl<C: EventConn> EventListener for QueueListener<C> {
    type Conn = C;

    fn poll_accept(&mut self) -> Result<Option<C>, ProtocolError> {
        match self.rx.try_recv() {
            Ok(conn) => Ok(Some(conn)),
            // All dialers dropped just means no further connections —
            // not a fault.
            Err(mpsc::TryRecvError::Empty) | Err(mpsc::TryRecvError::Disconnected) => Ok(None),
        }
    }
}

/// Client-side factory for in-memory connections to an event loop —
/// the channel analogue of a TCP `connect`. Clone freely; one dialer
/// per client thread.
#[derive(Clone)]
pub struct ChannelDialer {
    tx: mpsc::Sender<ChannelTransport<ServerMessage, ClientMessage>>,
}

impl ChannelDialer {
    /// Opens a new connection, returning the client endpoint.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] when the event loop is gone.
    pub fn dial(&self) -> Result<ChannelTransport<ClientMessage, ServerMessage>, ProtocolError> {
        let (client, server) = channel_pair();
        self.tx
            .send(server)
            .map_err(|_| ProtocolError::Disconnected)?;
        Ok(client)
    }
}

/// Creates a connected `(dialer, listener)` pair for in-memory channel
/// transports: the listener feeds a [`ServerEventLoop`], the dialer
/// mints client endpoints for [`drive_client`](crate::drive_client).
pub fn event_channel_listener() -> (
    ChannelDialer,
    QueueListener<ChannelTransport<ServerMessage, ClientMessage>>,
) {
    let (tx, rx) = mpsc::channel();
    (ChannelDialer { tx }, QueueListener { rx })
}

/// Client-side factory for simulated-WAN connections to an event
/// loop. Each dial carries its own uplink/downlink [`WanLink`], so
/// heterogeneous client networks share one server.
#[derive(Clone)]
pub struct SimDialer {
    tx: mpsc::Sender<SimTransport<ServerMessage, ClientMessage>>,
}

impl SimDialer {
    /// Opens a new simulated connection with the given link timings,
    /// returning the client endpoint.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Disconnected`] when the event loop is gone.
    pub fn dial(
        &self,
        uplink: WanLink,
        downlink: WanLink,
    ) -> Result<SimTransport<ClientMessage, ServerMessage>, ProtocolError> {
        let (client, server) = sim_pair(uplink, downlink);
        self.tx
            .send(server)
            .map_err(|_| ProtocolError::Disconnected)?;
        Ok(client)
    }
}

/// Creates a connected `(dialer, listener)` pair for simulated-WAN
/// transports — the [`event_channel_listener`] analogue with per-dial
/// link timing.
pub fn event_sim_listener() -> (
    SimDialer,
    QueueListener<SimTransport<ServerMessage, ClientMessage>>,
) {
    let (tx, rx) = mpsc::channel();
    (SimDialer { tx }, QueueListener { rx })
}

impl EventConn for ChannelTransport<ServerMessage, ClientMessage> {
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
        loop {
            match self.try_recv() {
                Ok(Some(msg)) => out.push(msg),
                Ok(None) => return Ok(()),
                // Deliver buffered messages first; the error resurfaces
                // on the next sweep.
                Err(e) => return if out.is_empty() { Err(e) } else { Ok(()) },
            }
        }
    }

    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
        Transport::send(self, msg)
    }

    fn flush(&mut self) -> Result<bool, ProtocolError> {
        Ok(true)
    }
}

impl EventConn for SimTransport<ServerMessage, ClientMessage> {
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
        loop {
            match self.try_recv() {
                Ok(Some(msg)) => out.push(msg),
                Ok(None) => return Ok(()),
                Err(e) => return if out.is_empty() { Err(e) } else { Ok(()) },
            }
        }
    }

    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
        // Charges the downlink's virtual transfer time.
        Transport::send(self, msg)
    }

    fn flush(&mut self) -> Result<bool, ProtocolError> {
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SplitClient;
    use crate::driver::ForwardMode;
    use crate::protocol::SessionHandler;
    use crate::retry::{drive_client, RetryPolicy};
    use crate::server::ServerSession;
    use crate::spec::SplitSpec;
    use menos_adapters::FineTuneConfig;
    use menos_data::{wiki_corpus, TokenDataset, Vocab};
    use menos_models::{CausalLm, ModelConfig};
    use menos_sim::seeded_rng;

    fn pair(seed: u64) -> (SplitClient, ServerSession) {
        let text = wiki_corpus(5, 4000);
        let vocab = Vocab::from_text(&text);
        let cfg = ModelConfig::tiny_opt(33);
        let mut rng = seeded_rng(100, "event-loop-test");
        let ps = menos_models::init_params(&cfg, &mut rng);
        let ds = TokenDataset::new(vocab.encode(&text), 16, 5);
        let mut ft = FineTuneConfig::paper(&cfg);
        ft.batch_size = 2;
        ft.seq_len = 16;
        let split = SplitSpec::paper();
        let client = SplitClient::new(
            ClientId(0),
            CausalLm::bind(&cfg, &ps.shared_view(false)),
            split,
            ft.clone(),
            ds,
            seed,
        );
        let session = ServerSession::new(
            ClientId(0),
            CausalLm::bind(&cfg, &ps.shared_view(false)),
            split,
            &ft,
            seed,
        );
        (client, session)
    }

    #[test]
    fn event_loop_serves_a_channel_client_end_to_end() {
        let (mut client, session) = pair(7);
        let (dialer, listener) = event_channel_listener();
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        );
        let server = std::thread::spawn(move || event_loop.run());
        let curve = drive_client(&mut client, |_| dialer.dial(), 3, &RetryPolicy::none())
            .expect("training");
        assert_eq!(curve.points().len(), 3);
        let (handler, stats) = server.join().expect("loop thread");
        assert!(handler.session().is_none(), "disconnect reclaims session");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.conn_errors, 0);
        // 3 steps × (activations + gradients) = 6 tensor messages.
        assert_eq!(stats.batched_messages, 6);
    }

    #[test]
    fn mid_training_drop_reclaims_the_session() {
        let (mut client, session) = pair(8);
        let (dialer, listener) = event_channel_listener();
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        );
        let server = std::thread::spawn(move || event_loop.run());
        // Connect and send one step's activations, then vanish without
        // a Disconnect.
        let mut transport = dialer.dial().expect("dial");
        Transport::send(&mut transport, &connect_msg(0)).expect("connect");
        assert!(matches!(transport.recv(), Ok(ServerMessage::Ready { .. })));
        let x_c = client.start_step();
        let frame = client.encode_activations(&x_c);
        Transport::send(
            &mut transport,
            &ClientMessage::Activations {
                client: ClientId(0),
                frame,
            },
        )
        .expect("activations");
        drop(transport);
        let (handler, stats) = server.join().expect("loop thread");
        assert!(handler.session().is_none());
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.served, 0);
        assert_eq!(stats.conn_errors, 1);
    }

    #[test]
    fn shutdown_flag_stops_an_unbounded_loop() {
        let (_dialer, listener) = event_channel_listener();
        let (_client, session) = pair(9);
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(listener, handler, EventLoopOptions::default());
        let stop = event_loop.shutdown_handle();
        let server = std::thread::spawn(move || event_loop.run());
        stop.store(true, Ordering::Relaxed);
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn idle_backoff_climbs_to_the_ceiling_and_resets_under_load() {
        let floor = Duration::from_micros(200);
        let ceil = Duration::from_millis(2);
        let mut b = IdleBackoff::new(floor, ceil);
        // Idle sweeps double the sleep: 200µs, 400µs, 800µs, 1.6ms,
        // then clamp at the 2ms ceiling.
        let ladder: Vec<Duration> = (0..6).map(|_| b.next_sleep()).collect();
        assert_eq!(
            ladder,
            vec![
                Duration::from_micros(200),
                Duration::from_micros(400),
                Duration::from_micros(800),
                Duration::from_micros(1600),
                Duration::from_millis(2),
                Duration::from_millis(2),
            ]
        );
        assert_eq!(b.current(), ceil);
        // Any readiness snaps back to the floor — a loaded loop never
        // pays more than the floor latency.
        b.reset();
        assert_eq!(b.current(), floor);
        assert_eq!(b.next_sleep(), floor);
        // A ceiling below the floor is clamped up, never inverting.
        let mut odd = IdleBackoff::new(Duration::from_millis(5), Duration::from_millis(1));
        assert_eq!(odd.next_sleep(), Duration::from_millis(5));
        assert_eq!(odd.current(), Duration::from_millis(5));
    }

    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("menos-snap-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_policy_writes_atomically_and_reads_back() {
        let dir = scratch_dir("policy");
        assert!(SnapshotPolicy::read(&dir).is_none());
        let policy = SnapshotPolicy::durable(&dir);
        assert_eq!(policy.every(), 0);
        policy.write(b"first").expect("write");
        assert_eq!(SnapshotPolicy::read(&dir).unwrap(), b"first");
        // Replacement is whole-file: the longer payload fully
        // supersedes the shorter one and no tmp residue remains.
        policy.write(b"second, longer payload").expect("rewrite");
        assert_eq!(
            SnapshotPolicy::read(&dir).unwrap(),
            b"second, longer payload"
        );
        assert!(!dir.join("server.snap.tmp").exists());
        assert_eq!(SnapshotPolicy::periodic(&dir, 16).every(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`SessionHandler`] wrapper that versions its state: every
    /// dispatch bumps a counter, and snapshots carry the counter —
    /// letting the test pin exactly *when* the loop persisted.
    struct VersionedHandler {
        inner: SessionHandler,
        version: u64,
    }

    impl MessageHandler for VersionedHandler {
        fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
            self.version += 1;
            self.inner.handle(msg)
        }

        fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
            Some(self.version.to_le_bytes().to_vec())
        }
    }

    impl BatchHandler for VersionedHandler {}

    #[test]
    fn durable_mode_snapshots_every_dispatch_and_at_exit() {
        let dir = scratch_dir("durable");
        let (mut client, session) = pair(11);
        let (dialer, listener) = event_channel_listener();
        let handler = VersionedHandler {
            inner: SessionHandler::new(session, ForwardMode::NoGradReforward),
            version: 0,
        };
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        )
        .with_snapshots(SnapshotPolicy::durable(&dir));
        let server = std::thread::spawn(move || event_loop.run());
        drive_client(&mut client, |_| dialer.dial(), 2, &RetryPolicy::none()).expect("training");
        let (handler, stats) = server.join().expect("loop thread");
        // Connect + 2×(activations, gradients) + Disconnect = 6
        // dispatched messages; durable mode snapshots Connect,
        // Disconnect, and each batch, plus the exit snapshot.
        assert_eq!(handler.version, 6);
        assert!(
            stats.snapshots >= 4,
            "expected connect+batches+disconnect+exit snapshots, got {}",
            stats.snapshots
        );
        assert_eq!(stats.snapshot_errors, 0);
        // The on-disk snapshot is the *final* version: nothing
        // advanced after the last persisted state.
        let bytes = SnapshotPolicy::read(&dir).expect("snapshot exists");
        assert_eq!(bytes, 6u64.to_le_bytes().to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_mode_counts_dispatches_but_always_snapshots_at_exit() {
        let dir = scratch_dir("periodic");
        let (mut client, session) = pair(12);
        let (dialer, listener) = event_channel_listener();
        let handler = VersionedHandler {
            inner: SessionHandler::new(session, ForwardMode::NoGradReforward),
            version: 0,
        };
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        )
        // Cadence larger than the run's dispatch count: only the exit
        // snapshot fires.
        .with_snapshots(SnapshotPolicy::periodic(&dir, 1000));
        let server = std::thread::spawn(move || event_loop.run());
        drive_client(&mut client, |_| dialer.dial(), 2, &RetryPolicy::none()).expect("training");
        let (handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.snapshots, 1, "only the exit snapshot");
        let bytes = SnapshotPolicy::read(&dir).expect("snapshot exists");
        assert_eq!(bytes, handler.version.to_le_bytes().to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handlers_without_durable_state_produce_no_snapshot_file() {
        let dir = scratch_dir("none");
        let (mut client, session) = pair(13);
        let (dialer, listener) = event_channel_listener();
        // Plain SessionHandler: snapshot_bytes() is the default None.
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        )
        .with_snapshots(SnapshotPolicy::durable(&dir));
        let server = std::thread::spawn(move || event_loop.run());
        drive_client(&mut client, |_| dialer.dial(), 1, &RetryPolicy::none()).expect("training");
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.snapshot_errors, 0);
        assert!(SnapshotPolicy::read(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bare `Connect` for manual handshakes (SessionHandler ignores
    /// the ft/split beyond the client id and codec mask).
    fn connect_msg(c: u64) -> ClientMessage {
        let cfg = ModelConfig::tiny_opt(33);
        ClientMessage::Connect {
            client: ClientId(c),
            ft: FineTuneConfig::paper(&cfg),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        }
    }

    #[test]
    fn capacity_sheds_surplus_connects_with_busy() {
        let (_client, session) = pair(20);
        let (dialer, listener) = event_channel_listener();
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 2,
                capacity: 1,
                busy_retry_after: Duration::from_millis(42),
                ..EventLoopOptions::default()
            },
        );
        let server = std::thread::spawn(move || event_loop.run());
        let mut a = dialer.dial().expect("dial a");
        Transport::send(&mut a, &connect_msg(0)).expect("connect a");
        assert!(matches!(a.recv(), Ok(ServerMessage::Ready { .. })));
        // The second session hits the capacity cap: a Busy with the
        // loop's hint, then a clean close — never a hang, and the
        // handler is never consulted.
        let mut b = dialer.dial().expect("dial b");
        Transport::send(&mut b, &connect_msg(1)).expect("connect b");
        assert!(matches!(
            b.recv(),
            Ok(ServerMessage::Busy {
                client: ClientId(1),
                retry_after_ms: 42,
            })
        ));
        assert!(b.recv().is_err(), "shed connection is closed");
        // The live client was untouched by the shed.
        Transport::send(
            &mut a,
            &ClientMessage::Disconnect {
                client: ClientId(0),
            },
        )
        .expect("disconnect a");
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.conn_errors, 0, "a shed is not a connection error");
        assert_eq!(stats.max_live_sessions, 1);
    }

    #[test]
    fn accept_limit_bounds_accepts_independently_of_capacity() {
        // accept_limit 1 with unlimited capacity: the second dial is
        // simply never accepted (no shed — the knobs are distinct).
        let (mut client, session) = pair(21);
        let (dialer, listener) = event_channel_listener();
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        );
        let server = std::thread::spawn(move || event_loop.run());
        let curve = drive_client(&mut client, |_| dialer.dial(), 1, &RetryPolicy::none())
            .expect("training");
        assert_eq!(curve.points().len(), 1);
        let (_handler, stats) = server.join().expect("loop thread");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.shed, 0);
    }

    /// A hostile peer that emits tensor messages every sweep without
    /// ever waiting for replies — the lock-step violation the staged
    /// cap exists for.
    struct DripConn {
        per_sweep: usize,
    }

    impl EventConn for DripConn {
        fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
            for _ in 0..self.per_sweep {
                out.push(ClientMessage::Activations {
                    client: ClientId(9),
                    frame: bytes::Bytes::new(),
                });
            }
            Ok(())
        }

        fn queue(&mut self, _msg: &ServerMessage) -> Result<(), ProtocolError> {
            Ok(())
        }

        fn flush(&mut self) -> Result<bool, ProtocolError> {
            Ok(true)
        }
    }

    /// Accepts everything, replies to nothing — staging is the loop's
    /// job, and these tests only watch the loop.
    struct NullHandler;

    impl MessageHandler for NullHandler {
        fn handle(&mut self, _msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
            Ok(None)
        }
    }

    impl BatchHandler for NullHandler {}

    #[test]
    fn slow_drip_past_the_staged_cap_drops_the_offender() {
        let (tx, rx) = mpsc::channel();
        tx.send(DripConn { per_sweep: 3 }).expect("queue conn");
        drop(tx);
        let event_loop = ServerEventLoop::new(
            QueueListener { rx },
            NullHandler,
            EventLoopOptions {
                accept_limit: 1,
                max_staged_msgs: 4,
                // A window the drip never reaches: the cap must fire
                // first, or pending grows until dispatch masks the bug.
                batch_window: 1000,
                ..EventLoopOptions::default()
            },
        );
        let (_handler, stats) = event_loop.run();
        assert_eq!(stats.staged_overflows, 1);
        assert_eq!(stats.conn_errors, 1, "the offender is failed, not served");
        assert_eq!(stats.batches, 0, "nothing it staged was ever dispatched");
    }

    /// A peer whose write side never drains — the slow consumer the
    /// write-buffer bound evicts.
    struct StalledConn {
        sent_connect: bool,
        queued: u64,
    }

    impl EventConn for StalledConn {
        fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
            if !self.sent_connect {
                self.sent_connect = true;
                out.push(connect_msg(0));
            }
            Ok(())
        }

        fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
            self.queued += msg.wire_bytes();
            Ok(())
        }

        fn flush(&mut self) -> Result<bool, ProtocolError> {
            Ok(false)
        }

        fn has_queued_writes(&self) -> bool {
            self.queued > 0
        }

        fn queued_write_bytes(&self) -> u64 {
            self.queued
        }
    }

    #[test]
    fn stalled_consumer_is_evicted_by_the_write_buffer_bound() {
        let (_client, session) = pair(22);
        let (tx, rx) = mpsc::channel();
        tx.send(StalledConn {
            sent_connect: false,
            queued: 0,
        })
        .expect("queue conn");
        drop(tx);
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let event_loop = ServerEventLoop::new(
            QueueListener { rx },
            handler,
            EventLoopOptions {
                accept_limit: 1,
                max_write_buffer: Some(100),
                ..EventLoopOptions::default()
            },
        );
        let (handler, stats) = event_loop.run();
        // The Ready reply (a 256-byte control frame) stalls past the
        // 100-byte bound: evicted via the quarantine path, memory
        // bounded, loop exits.
        assert_eq!(stats.write_overflows, 1);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.max_queued_write_bytes, 256);
        assert!(
            handler.session().is_none(),
            "the stalled client's session went through connection_lost"
        );
    }

    #[test]
    fn default_batch_handler_replays_sequentially() {
        struct Echo(Vec<ClientId>);
        impl MessageHandler for Echo {
            fn handle(
                &mut self,
                msg: ClientMessage,
            ) -> Result<Option<ServerMessage>, ProtocolError> {
                self.0.push(msg.client());
                Ok(None)
            }
        }
        impl BatchHandler for Echo {}
        let mut h = Echo(Vec::new());
        let out = h.handle_batch(vec![
            ClientMessage::Disconnect {
                client: ClientId(3),
            },
            ClientMessage::Disconnect {
                client: ClientId(1),
            },
        ]);
        assert_eq!(h.0, vec![ClientId(3), ClientId(1)]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, r)| matches!(r, Ok(None))));
    }
}
