//! The Menos serving façade: one object owning the shared base, the
//! per-client sessions, and the message dispatch of Algorithm 1.
//!
//! The timed multi-client behaviour (scheduling, memory) is the
//! simulated runtime's job; this façade is the *real-engine* server a
//! deployment embeds. It implements `menos-split`'s
//! [`MessageHandler`] and [`BatchHandler`], so the
//! [`ServerEventLoop`](menos_split::ServerEventLoop) — over in-memory
//! channels, the simulated WAN, or real TCP sockets — pumps messages
//! into the same state machine; the per-session forward/backward step
//! is [`dispatch_session`], shared with the in-process driver.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::Bytes;
use menos_adapters::FineTuneConfig;
use menos_models::{stacked_model, CausalLm, ModelConfig};
use menos_net::{negotiate, Codec, ROLE_ACTIVATIONS, ROLE_GRADIENTS};
use menos_split::{
    dispatch_session, encode_server_message, BatchHandler, ClientId, ClientMessage, ForwardMode,
    MessageHandler, ProtocolError, ServerMessage, ServerSession, SplitSpec,
};
use menos_tensor::{no_grad, CheckpointError, ParamStore, Tensor};

use crate::profiler::{profile_client, MemoryDemands};
use crate::sharing::SharedBaseRegistry;
use crate::state::{ServerState, SessionRecord};
use crate::workload::ServerSpec;

/// Most sessions one fused stacked step will carry. The re-forward
/// graph a fused backward holds grows linearly with the stack (about
/// 0.6 MiB per tiny-OPT b2×s16 member), while the per-op saving of a
/// larger batch has flattened out well before 16 members: at N=32 on a
/// 2-vCPU Xeon, caps of 4, 8, 16 and 32 all served 53–63 steps/s.
pub const MAX_STACK_MEMBERS: usize = 16;

struct ClientState {
    session: ServerSession,
    demands: MemoryDemands,
    /// Session epoch: 1 for a fresh connect, bumped on every successful
    /// resume so stale reconnect attempts are detectable.
    epoch: u64,
    /// The last gradient reply sent, kept so a resume that raced the
    /// reply can have it re-delivered inside `Resumed`.
    last_reply: Option<ServerMessage>,
}

/// A disconnected client's parked state: the session survives the
/// connection so a reconnecting client can resume exactly where it
/// left off, until the quarantine TTL expires it.
struct Quarantined {
    session: ServerSession,
    demands: MemoryDemands,
    epoch: u64,
    last_reply: Option<ServerMessage>,
    since: Instant,
}

/// A real-engine Menos server: shared base model, per-client sessions,
/// and Algorithm-1 message dispatch.
///
/// # Examples
///
/// ```
/// use menos_adapters::FineTuneConfig;
/// use menos_core::{MenosServer, ServerMode, ServerSpec};
/// use menos_models::ModelConfig;
/// use menos_split::{ClientId, ClientMessage, MessageHandler, SplitSpec};
///
/// let config = ModelConfig::tiny_llama(16);
/// let mut server = MenosServer::new(config.clone(), ServerSpec::v100(ServerMode::menos()), 1);
/// let mut ft = FineTuneConfig::paper(&config);
/// ft.batch_size = 1;
/// ft.seq_len = 4;
/// let reply = server
///     .handle(ClientMessage::Connect {
///         client: ClientId(0),
///         ft,
///         split: SplitSpec::paper(),
///         epoch: 1,
///         codecs: 0,
///     })
///     .unwrap();
/// assert!(matches!(reply, Some(menos_split::ServerMessage::Ready { .. })));
/// assert_eq!(server.active_clients(), 1);
/// ```
pub struct MenosServer {
    registry: SharedBaseRegistry,
    spec: ServerSpec,
    mode: ForwardMode,
    clients: HashMap<ClientId, ClientState>,
    quarantined: HashMap<ClientId, Quarantined>,
    seed: u64,
    supported_codecs: u64,
    /// Live-session admission cap (v1.3, PROTOCOL.md §8): a `Connect`
    /// or `Resume` past it is shed with [`ProtocolError::Busy`]
    /// instead of admitted. `usize::MAX` never sheds.
    capacity: usize,
    /// GPU-pool utilization percentage at or past which the server
    /// reports pressure and shrinks its stacked-batch cap. 100 =
    /// degrade only when the pool is completely reserved.
    pressure_watermark: u8,
    /// The reconnect hint carried in [`ProtocolError::Busy`] sheds.
    busy_retry_after_ms: u64,
}

impl MenosServer {
    /// Creates a server: loads the base model once (the registry) and
    /// prepares to admit clients against `spec`'s memory budget.
    pub fn new(config: ModelConfig, spec: ServerSpec, seed: u64) -> Self {
        Self::with_registry(SharedBaseRegistry::initialize(config, seed), spec, seed)
    }

    /// Creates a server around pre-existing base parameters (e.g. a
    /// store the test harness also binds its clients to, so both sides
    /// share one model without re-deriving it from the seed).
    ///
    /// # Panics
    ///
    /// Panics if `base` does not contain every parameter `config`
    /// requires (delegated to the registry's validation).
    pub fn from_store(config: ModelConfig, base: ParamStore, spec: ServerSpec, seed: u64) -> Self {
        Self::with_registry(SharedBaseRegistry::from_store(config, base), spec, seed)
    }

    fn with_registry(registry: SharedBaseRegistry, spec: ServerSpec, seed: u64) -> Self {
        MenosServer {
            registry,
            spec,
            mode: ForwardMode::NoGradReforward,
            clients: HashMap::new(),
            quarantined: HashMap::new(),
            seed,
            supported_codecs: menos_net::supported_codec_mask(),
            capacity: usize::MAX,
            pressure_watermark: 100,
            busy_retry_after_ms: 100,
        }
    }

    /// Caps the number of *live* sessions this server will hold at
    /// once. A `Connect` or `Resume` arriving at the cap is shed with
    /// [`ProtocolError::Busy`] — retryable, no state touched — rather
    /// than admitted (PROTOCOL.md §8.1). Quarantined sessions do not
    /// count against the cap.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Sets the GPU-pool utilization percentage at which the server
    /// starts degrading gracefully: [`MenosServer::under_pressure`]
    /// turns true (event-loop accepts are deferred) and the stacked
    /// dispatch cap shrinks below `MAX_STACK_MEMBERS` so fused steps
    /// stop growing the transient footprint. Values above 100 are
    /// clamped to 100; the default 100 degrades only at full
    /// reservation.
    pub fn set_pressure_watermark(&mut self, pct: u8) {
        self.pressure_watermark = pct.min(100);
    }

    /// Sets the reconnect hint (milliseconds) carried by admission
    /// sheds.
    pub fn set_busy_retry_after_ms(&mut self, ms: u64) {
        self.busy_retry_after_ms = ms;
    }

    /// Current GPU-pool utilization as a percentage of the
    /// Algorithm-2 budget (live reservations over total pool).
    pub fn utilization_pct(&self) -> u64 {
        let pool = self.spec.total_gpu_bytes().max(1);
        self.reserved_bytes().saturating_mul(100) / pool
    }

    /// True once utilization has crossed the pressure watermark — the
    /// signal behind the event loop's prefer-draining-over-accepting
    /// degradation.
    pub fn under_pressure(&self) -> bool {
        self.utilization_pct() >= u64::from(self.pressure_watermark)
    }

    /// The stacked-dispatch member cap currently in force:
    /// `MAX_STACK_MEMBERS` normally, a quarter of it under memory
    /// pressure. Shrinking the stack never changes results — stacking
    /// is byte-identical to solo dispatch at any grouping — it only
    /// bounds the fused step's transient memory while the pool is
    /// tight.
    pub fn effective_stack_cap(&self) -> usize {
        if self.utilization_pct() >= u64::from(self.pressure_watermark) {
            (MAX_STACK_MEMBERS / 4).max(1)
        } else {
            MAX_STACK_MEMBERS
        }
    }

    /// Overrides the tensor-codec mask this server is willing to
    /// negotiate (PROTOCOL.md §7.3). The default is every codec the
    /// build supports; tests narrow it to exercise mismatched-flag
    /// fallback.
    pub fn set_supported_codecs(&mut self, mask: u64) {
        self.supported_codecs = mask;
    }

    /// Switches the execution path (default: Menos' no-grad +
    /// re-forward).
    pub fn set_forward_mode(&mut self, mode: ForwardMode) {
        self.mode = mode;
    }

    /// Currently connected clients.
    pub fn active_clients(&self) -> usize {
        self.clients.len()
    }

    /// The shared-base registry (e.g. to verify aliasing in tests).
    pub fn registry(&self) -> &SharedBaseRegistry {
        &self.registry
    }

    /// The profiled demands of a connected client.
    pub fn demands_of(&self, client: ClientId) -> Option<MemoryDemands> {
        self.clients.get(&client).map(|c| c.demands)
    }

    /// Total profiled backward bytes currently reserved by *live*
    /// sessions — the Algorithm-2 pool share that eviction must return
    /// to zero when the last client leaves. Quarantined sessions hold
    /// no reservation: their GPU claim was released with the
    /// connection; only their (host-side) adapter/optimizer state is
    /// parked.
    pub fn reserved_bytes(&self) -> u64 {
        self.clients.values().map(|c| c.demands.m_b).sum()
    }

    /// Sessions currently parked for reconnection.
    pub fn quarantined_clients(&self) -> usize {
        self.quarantined.len()
    }

    /// The server-side adapter parameters of a client's session, live
    /// or quarantined (for bit-identity checks in tests and tooling).
    pub fn session_adapters(&self, client: ClientId) -> Option<&ParamStore> {
        self.clients
            .get(&client)
            .map(|c| c.session.adapter_params())
            .or_else(|| {
                self.quarantined
                    .get(&client)
                    .map(|q| q.session.adapter_params())
            })
    }

    /// Parks a client's session for later resumption instead of
    /// dropping it — the server side of a lost connection. The live
    /// entry (and with it the Algorithm-2 reservation) is removed; the
    /// session itself survives under quarantine until a [`Resume`]
    /// re-attaches it or [`MenosServer::expire_idle`] reaps it.
    /// Unknown clients are ignored (the connection died before
    /// `Connect`).
    ///
    /// [`Resume`]: ClientMessage::Resume
    pub fn quarantine(&mut self, client: ClientId) {
        if let Some(state) = self.clients.remove(&client) {
            self.quarantined.insert(
                client,
                Quarantined {
                    session: state.session,
                    demands: state.demands,
                    epoch: state.epoch,
                    last_reply: state.last_reply,
                    since: Instant::now(),
                },
            );
        }
    }

    /// Reaps quarantined sessions idle longer than `max_idle`,
    /// returning the expired client ids (so the caller can notify any
    /// late reconnects). Their adapter/optimizer state is dropped for
    /// good.
    pub fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        let mut expired = Vec::new();
        self.quarantined.retain(|client, q| {
            let keep = q.since.elapsed() <= max_idle;
            if !keep {
                expired.push(*client);
            }
            keep
        });
        expired.sort_unstable();
        expired
    }

    /// Dispatches one protocol message (Algorithm 1), returning the
    /// reply to send, if any.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on unknown clients, undecodable
    /// frames, protocol-order violations, or rejected configurations.
    /// Errors are scoped to the offending client; other clients are
    /// unaffected.
    pub fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        match msg {
            ClientMessage::Connect {
                client,
                ft,
                split,
                epoch,
                codecs,
            } => {
                let codec = self.connect(client, ft, split, epoch, codecs)?;
                Ok(Some(ServerMessage::Ready { client, codec }))
            }
            ClientMessage::Resume {
                client,
                epoch,
                last_step,
            } => self.resume(client, epoch, last_step).map(Some),
            ClientMessage::Disconnect { client } => {
                if self.clients.remove(&client).is_none()
                    && self.quarantined.remove(&client).is_none()
                {
                    return Err(ProtocolError::UnknownClient(client));
                }
                Ok(None)
            }
            ClientMessage::Ping { client, seq } => Ok(Some(ServerMessage::Pong {
                client,
                seq,
                live_sessions: self.clients.len() as u64,
                utilization_pct: self.utilization_pct(),
            })),
            ClientMessage::ImportSession { client, blob } => {
                let (imported, epoch) = self.import_session(&blob).map_err(|e| {
                    ProtocolError::Rejected(format!("session import rejected: {e}"))
                })?;
                if imported != client {
                    // The frame was addressed to one client but the blob
                    // carries another; un-park and reject so nothing of
                    // the mismatched import survives.
                    self.quarantined.remove(&imported);
                    return Err(ProtocolError::Rejected(format!(
                        "import frame addressed to {client} but blob carries {imported}"
                    )));
                }
                Ok(Some(ServerMessage::Imported { client, epoch }))
            }
            tensor_msg => {
                let client = tensor_msg.client();
                let mode = self.mode;
                let state = self
                    .clients
                    .get_mut(&client)
                    .ok_or(ProtocolError::UnknownClient(client))?;
                let reply = dispatch_session(&mut state.session, mode, &tensor_msg)?;
                if matches!(reply, ServerMessage::ServerGradients { .. }) {
                    state.last_reply = Some(reply.clone());
                }
                Ok(Some(reply))
            }
        }
    }

    /// Re-attaches a quarantined session (the `Resume` handshake).
    ///
    /// The client reports the epoch it last held and the number of
    /// steps it has *completed*. Two positions are reconcilable:
    ///
    /// * server step == `last_step`: both sides agree; the client
    ///   redoes its aborted in-flight step (if any) from scratch.
    /// * server step == `last_step` + 1: the server finished the step
    ///   but the gradient reply was lost in flight; the cached reply is
    ///   re-delivered embedded in [`ServerMessage::Resumed`] so the
    ///   one-reply-per-message contract holds.
    ///
    /// Anything else means the two sides diverged irrecoverably; the
    /// parked state is dropped and the resume rejected.
    fn resume(
        &mut self,
        client: ClientId,
        epoch: u64,
        last_step: u64,
    ) -> Result<ServerMessage, ProtocolError> {
        if self.clients.contains_key(&client) {
            // The old connection is still live (its EOF has not been
            // processed yet). Retryable: the client backs off and tries
            // again rather than hijacking a live session.
            return Err(ProtocolError::SessionActive(client));
        }
        // v1.3: a resume re-enters the live set, so it is subject to
        // the same session cap as a fresh connect. Shedding leaves the
        // quarantined state untouched — the client retries and resumes
        // once the server drains.
        if self.clients.len() >= self.capacity {
            return Err(ProtocolError::Busy {
                client,
                retry_after_ms: self.busy_retry_after_ms,
            });
        }
        let q = self
            .quarantined
            .get(&client)
            .ok_or(ProtocolError::UnknownClient(client))?;
        // Re-attaching returns the session's Algorithm-2 reservation to
        // the pool; if the pool cannot take it back right now, shed
        // (retryable, quarantine intact) rather than oversubscribe.
        if self.reserved_bytes().saturating_add(q.demands.m_b) > self.spec.total_gpu_bytes() {
            return Err(ProtocolError::Busy {
                client,
                retry_after_ms: self.busy_retry_after_ms,
            });
        }
        if q.epoch != epoch {
            return Err(ProtocolError::StaleEpoch {
                client,
                expected: q.epoch,
                got: epoch,
            });
        }
        let server_step = q.session.steps_completed();
        let replay = if server_step == last_step {
            Bytes::new()
        } else if server_step == last_step + 1 {
            match &q.last_reply {
                Some(reply) => encode_server_message(reply),
                None => {
                    return Err(ProtocolError::Unexpected(format!(
                        "{client} resumed one step behind but no reply is cached"
                    )))
                }
            }
        } else {
            self.quarantined.remove(&client);
            return Err(ProtocolError::OutOfOrder(format!(
                "{client} resumed at step {last_step} but the server is at {server_step}"
            )));
        };
        let q = self.quarantined.remove(&client).expect("checked above");
        let new_epoch = epoch + 1;
        self.clients.insert(
            client,
            ClientState {
                session: q.session,
                demands: q.demands,
                epoch: new_epoch,
                last_reply: q.last_reply,
            },
        );
        Ok(ServerMessage::Resumed {
            client,
            epoch: new_epoch,
            server_step,
            replay,
        })
    }

    /// Dispatches a whole ready-set of tensor messages as (at most) one
    /// stacked forward / re-forward+backward per compatible group —
    /// the server step behind the event-driven pump.
    ///
    /// Grouping: messages batch together when they are the same
    /// protocol step (forward or backward) over the same server block
    /// range with the same `[seq, hidden]` activation geometry, the
    /// server runs Menos' no-grad/re-forward policy, and no member
    /// carries a KV prefix in the range (prefix tuning changes the
    /// attention sequence structure and is not stackable). Everything
    /// else — control messages, undecodable frames, unknown clients,
    /// cached-mode traffic — takes the exact solo path of
    /// [`MenosServer::handle`].
    ///
    /// Backward groups are additionally chunked by Algorithm 2's
    /// admissibility rule: members join a chunk while the sum of their
    /// profiled backward demands `m_b` fits the GPU pool, so one fused
    /// re-forward+backward never exceeds the budget that admission
    /// control promised each client individually.
    ///
    /// Per-client results are bit-identical to the solo path: every
    /// `menos-tensor` kernel is row-bitwise-invariant, adapters are
    /// per-band additive paths, and each session's optimizer steps on
    /// its own gradients only.
    pub fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        let mut out = Vec::with_capacity(msgs.len());
        // Group key: protocol step + server range + activation
        // geometry. BTreeMap keeps dispatch order deterministic.
        type GroupKey = (bool, usize, usize, usize, usize);
        let mut groups: BTreeMap<GroupKey, Vec<(ClientId, Tensor)>> = BTreeMap::new();
        // Lock-step allows one tensor frame in flight per client; a
        // second in the same ready-set is a replayed or forged frame.
        // Reject it here, before staging, so a duplicate can never
        // join a fused step — let alone reach an optimizer twice.
        let mut tensor_seen: HashSet<ClientId> = HashSet::new();
        for msg in msgs {
            let is_tensor = matches!(
                msg,
                ClientMessage::Activations { .. } | ClientMessage::Gradients { .. }
            );
            if is_tensor && !tensor_seen.insert(msg.client()) {
                let client = msg.client();
                out.push((
                    client,
                    Err(ProtocolError::OutOfOrder(format!(
                        "duplicate tensor frame from {client} in one ready-set"
                    ))),
                ));
                continue;
            }
            match self.stage_for_batch(&msg) {
                Some((is_backward, range, t)) => {
                    let key = (
                        is_backward,
                        range.start,
                        range.end,
                        t.dims()[1],
                        t.dims()[2],
                    );
                    groups.entry(key).or_default().push((msg.client(), t));
                }
                None => {
                    let client = msg.client();
                    out.push((client, self.handle(msg)));
                }
            }
        }
        for ((is_backward, start, end, _, _), mut members) in groups {
            // A control message above may have removed a member (e.g.
            // a hostile caller mixing Disconnect into the batch).
            members.retain(|(client, _)| {
                let alive = self.clients.contains_key(client);
                if !alive {
                    out.push((*client, Err(ProtocolError::UnknownClient(*client))));
                }
                alive
            });
            if is_backward {
                for chunk in self.admissible_chunks(members) {
                    self.batched_backward(chunk, start..end, &mut out);
                }
            } else {
                for chunk in self.admissible_chunks(members) {
                    self.batched_forward(chunk, start..end, &mut out);
                }
            }
        }
        out
    }

    /// Decides whether a message may join a stacked batch, returning
    /// its decoded tensor and server range if so.
    fn stage_for_batch(&self, msg: &ClientMessage) -> Option<(bool, Range<usize>, Tensor)> {
        if self.mode != ForwardMode::NoGradReforward {
            return None;
        }
        let (frame, is_backward) = match msg {
            ClientMessage::Activations { frame, .. } => (frame, false),
            ClientMessage::Gradients { frame, .. } => (frame, true),
            _ => return None,
        };
        let state = self.clients.get(&msg.client())?;
        let t = state.session.codec().decode(frame).ok()?;
        if t.dims().len() != 3 || t.dims()[0] == 0 {
            return None;
        }
        let range = state.session.range();
        if state.session.model().has_kv_prefix_in(range.clone()) {
            return None;
        }
        if is_backward {
            // Backward needs the no-grad forward's saved input, with a
            // geometry matching the incoming gradients.
            let pending = state.session.pending_input()?;
            if pending.dims() != t.dims() {
                return None;
            }
        }
        Some((is_backward, range, t))
    }

    /// Splits a compatible group into chunks whose summed profiled
    /// backward demands fit the GPU pool (Algorithm 2's admissible
    /// set), additionally capped at [`MAX_STACK_MEMBERS`] sessions per
    /// fused step: the fused re-forward holds every member's autograd
    /// graph at once, so an unbounded stack turns a wide ready-set into
    /// one unbounded transient. Admission control guarantees every
    /// single client fits, so chunks are never empty.
    fn admissible_chunks(&self, members: Vec<(ClientId, Tensor)>) -> Vec<Vec<(ClientId, Tensor)>> {
        let pool = self.spec.total_gpu_bytes();
        // Under memory pressure the cap shrinks (graceful degradation,
        // v1.3): smaller fused steps bound the transient footprint
        // while results stay bit-identical at any grouping.
        let stack_cap = self.effective_stack_cap();
        let mut chunks = Vec::new();
        let mut current: Vec<(ClientId, Tensor)> = Vec::new();
        let mut current_bytes = 0u64;
        for (client, t) in members {
            let m_b = self
                .clients
                .get(&client)
                .map(|s| s.demands.m_b)
                .unwrap_or(0);
            if !current.is_empty()
                && (current.len() >= stack_cap || current_bytes.saturating_add(m_b) > pool)
            {
                chunks.push(std::mem::take(&mut current));
                current_bytes = 0;
            }
            current_bytes += m_b;
            current.push((client, t));
        }
        if !current.is_empty() {
            chunks.push(current);
        }
        chunks
    }

    /// One stacked no-grad forward for a group (solo fallback for
    /// singleton groups — same math, fewer copies).
    fn batched_forward(
        &mut self,
        members: Vec<(ClientId, Tensor)>,
        range: Range<usize>,
        out: &mut Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)>,
    ) {
        if members.is_empty() {
            return;
        }
        if members.len() == 1 {
            let (client, x_c) = members.into_iter().next().expect("one member");
            let state = self.clients.get_mut(&client).expect("retained member");
            let x_s = state.session.forward_nograd(&x_c);
            let frame = state.session.codec_mut().encode(ROLE_ACTIVATIONS, &x_s);
            out.push((
                client,
                Ok(Some(ServerMessage::ServerActivations { client, frame })),
            ));
            return;
        }
        let spans: Vec<usize> = members.iter().map(|(_, t)| t.dims()[0]).collect();
        let xs: Vec<Tensor> = members.iter().map(|(_, t)| t.detach()).collect();
        let stacked_x = Tensor::stack_batches(&xs);
        // The stacked model borrows every member's session immutably;
        // build it (owned) before mutating any session.
        let model = {
            let group: Vec<(&CausalLm, usize)> = members
                .iter()
                .map(|(client, t)| {
                    let state = self.clients.get(client).expect("retained member");
                    (state.session.model(), t.dims()[0])
                })
                .collect();
            stacked_model(&group, range.clone())
        };
        let stacked_out = no_grad(|| model.blocks_forward(&stacked_x.detach(), range));
        let outs = stacked_out.unstack_batches(&spans);
        for ((client, x_c), x_s) in members.into_iter().zip(outs) {
            let state = self.clients.get_mut(&client).expect("retained member");
            state.session.note_batched_forward(&x_c);
            let frame = state.session.codec_mut().encode(ROLE_ACTIVATIONS, &x_s);
            out.push((
                client,
                Ok(Some(ServerMessage::ServerActivations { client, frame })),
            ));
        }
    }

    /// One fused re-forward + backward for an admissible chunk (solo
    /// fallback for singletons).
    fn batched_backward(
        &mut self,
        chunk: Vec<(ClientId, Tensor)>,
        range: Range<usize>,
        out: &mut Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)>,
    ) {
        if chunk.is_empty() {
            return;
        }
        if chunk.len() == 1 {
            let (client, g_c) = chunk.into_iter().next().expect("one member");
            let state = self.clients.get_mut(&client).expect("retained member");
            // Eligibility verified the pending input, so the solo
            // backward cannot hit its missing-forward panic.
            let g_s = state.session.backward(&g_c);
            let frame = state.session.codec_mut().encode(ROLE_GRADIENTS, &g_s);
            let reply = ServerMessage::ServerGradients { client, frame };
            state.last_reply = Some(reply.clone());
            out.push((client, Ok(Some(reply))));
            return;
        }
        let spans: Vec<usize> = chunk.iter().map(|(_, t)| t.dims()[0]).collect();
        let (model, stacked_in) = {
            let mut pend = Vec::with_capacity(chunk.len());
            let mut group: Vec<(&CausalLm, usize)> = Vec::with_capacity(chunk.len());
            for (client, t) in &chunk {
                let state = self.clients.get(client).expect("retained member");
                pend.push(
                    state
                        .session
                        .pending_input()
                        .expect("eligibility checked pending input")
                        .clone(),
                );
                group.push((state.session.model(), t.dims()[0]));
            }
            (
                stacked_model(&group, range.clone()),
                Tensor::stack_batches(&pend),
            )
        };
        // The re-forward runs gradient-ready from a fresh leaf over the
        // stacked inputs — the batched image of the solo re-forward.
        let leaf = Tensor::from_shared_storage(
            stacked_in.storage().clone(),
            stacked_in.shape().clone(),
            true,
        );
        let x_s = model.blocks_forward(&leaf, range);
        let gs: Vec<Tensor> = chunk.iter().map(|(_, t)| t.detach()).collect();
        let stacked_g = Tensor::stack_batches(&gs);
        let mut grads = x_s.backward_with_grad(&stacked_g);
        let g_in = grads
            .remove(&leaf)
            .expect("gradient for stacked client activations");
        let g_outs = g_in.unstack_batches(&spans);
        for ((client, _), g_s) in chunk.into_iter().zip(g_outs) {
            let state = self.clients.get_mut(&client).expect("retained member");
            state.session.apply_batched_backward(&mut grads);
            let frame = state.session.codec_mut().encode(ROLE_GRADIENTS, &g_s);
            let reply = ServerMessage::ServerGradients { client, frame };
            state.last_reply = Some(reply.clone());
            out.push((client, Ok(Some(reply))));
        }
    }

    fn connect(
        &mut self,
        client: ClientId,
        ft: FineTuneConfig,
        split: SplitSpec,
        epoch: u64,
        codecs: u64,
    ) -> Result<Codec, ProtocolError> {
        if self.clients.contains_key(&client) {
            return Err(ProtocolError::Rejected(format!(
                "{client} is already connected"
            )));
        }
        // v1.3 session-capacity shed: checked before any validation or
        // profiling work — an over-capacity server should turn peers
        // away as cheaply as possible.
        if self.clients.len() >= self.capacity {
            return Err(ProtocolError::Busy {
                client,
                retry_after_ms: self.busy_retry_after_ms,
            });
        }
        let config = self.registry.config().clone();
        ft.validate(&config).map_err(ProtocolError::Rejected)?;
        split.validate(&config).map_err(ProtocolError::Rejected)?;
        // Profiling + admission (§3.3): reject demands that could never
        // be scheduled. For the tiny real engine the budget check uses
        // the profile of THIS config, so oversized batches are caught.
        let profile = menos_models::ModelProfile::new(config, split.front_layers);
        let demands = profile_client(&profile, &ft);
        let pool = self.spec.total_gpu_bytes();
        if demands.m_b > pool {
            return Err(ProtocolError::Rejected(format!(
                "profiled backward demand {} exceeds GPU pool {pool}",
                demands.m_b
            )));
        }
        // Algorithm-2 shed (v1.3): the demand fits the pool in
        // isolation but not alongside the live reservations. Unlike
        // the terminal `Rejected` above this is retryable — departures
        // will free the pool — so the peer gets a `Busy` hint instead
        // of a rejection.
        if self.reserved_bytes().saturating_add(demands.m_b) > pool {
            return Err(ProtocolError::Busy {
                client,
                retry_after_ms: self.busy_retry_after_ms,
            });
        }
        let codec = negotiate(codecs, self.supported_codecs);
        let session_seed = self.seed.wrapping_add(client.0);
        let mut session = ServerSession::new(
            client,
            self.registry.new_instance(),
            split,
            &ft,
            session_seed,
        );
        debug_assert!(self.registry.verify_aliasing(session.model()));
        session.set_codec(codec);
        // A fresh Connect is an explicit restart: any parked state from
        // a previous incarnation is superseded.
        self.quarantined.remove(&client);
        self.clients.insert(
            client,
            ClientState {
                session,
                demands,
                // v1.0 peers send no epoch (decoded as 0); treat as 1.
                epoch: epoch.max(1),
                last_reply: None,
            },
        );
        Ok(codec)
    }

    /// Captures the full mutable server state — every session (live or
    /// quarantined), its epoch, and its cached reply — as a
    /// [`ServerState`], sorted by client id so snapshots of the same
    /// state are byte-identical.
    ///
    /// Algorithm-2 reservations are *not* captured: they are a pure
    /// function of the live session set, and restore parks every
    /// session (the connections died with the process), so the
    /// reservations are re-derived when clients resume.
    pub fn to_state(&self) -> ServerState {
        let mut sessions: Vec<SessionRecord> = self
            .clients
            .iter()
            .map(|(client, s)| SessionRecord {
                client: *client,
                epoch: s.epoch,
                live: true,
                session: s.session.to_state(),
                last_reply: s.last_reply.as_ref().map(crate::state::encode_reply),
            })
            .chain(self.quarantined.iter().map(|(client, q)| SessionRecord {
                client: *client,
                epoch: q.epoch,
                live: false,
                session: q.session.to_state(),
                last_reply: q.last_reply.as_ref().map(crate::state::encode_reply),
            }))
            .collect();
        sessions.sort_by_key(|r| r.client.0);
        ServerState {
            seed: self.seed,
            mode: self.mode,
            sessions,
        }
    }

    /// Reconstructs sessions, epochs, and cached replies from a
    /// [`ServerState`], returning how many sessions were restored.
    ///
    /// Every record is validated and rebuilt *before* anything is
    /// committed, so a corrupt state leaves the server exactly as it
    /// was — no partial restore. Restored sessions all land in
    /// quarantine: their connections died with the old process, their
    /// Algorithm-2 reservations are zero until the client's `Resume`
    /// re-attaches them, and the idle TTL reaps any client that never
    /// comes back.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the server already has sessions, the
    /// state's seed disagrees with this server's (future connects
    /// would derive different adapters than the snapshotted ones), or
    /// any record fails to rebuild against the registry's model.
    pub fn restore(&mut self, state: ServerState) -> Result<usize, CheckpointError> {
        if !self.clients.is_empty() || !self.quarantined.is_empty() {
            return Err(CheckpointError::Corrupt(format!(
                "restore into a server with {} live / {} quarantined sessions",
                self.clients.len(),
                self.quarantined.len()
            )));
        }
        if state.seed != self.seed {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot seed {} does not match server seed {}",
                state.seed, self.seed
            )));
        }
        let config = self.registry.config().clone();
        // Validate-then-commit: rebuild everything off to the side
        // first so an error cannot leave a half-restored server.
        let mut rebuilt = Vec::with_capacity(state.sessions.len());
        for rec in &state.sessions {
            let session = ServerSession::from_state(self.registry.new_instance(), &rec.session)?;
            if session.client() != rec.client {
                return Err(CheckpointError::Corrupt(format!(
                    "record for {} holds a session for {}",
                    rec.client,
                    session.client()
                )));
            }
            debug_assert!(self.registry.verify_aliasing(session.model()));
            let profile =
                menos_models::ModelProfile::new(config.clone(), session.split().front_layers);
            let demands = profile_client(&profile, session.ft_config());
            let last_reply = rec
                .last_reply
                .as_deref()
                .map(crate::state::decode_reply)
                .transpose()?;
            rebuilt.push((rec.client, session, demands, rec.epoch, last_reply));
        }
        let restored = rebuilt.len();
        self.mode = state.mode;
        for (client, session, demands, epoch, last_reply) in rebuilt {
            self.quarantined.insert(
                client,
                Quarantined {
                    session,
                    demands,
                    epoch,
                    last_reply,
                    since: Instant::now(),
                },
            );
        }
        Ok(restored)
    }

    /// Serializes one client's session — live or quarantined — into a
    /// self-contained migration blob ([`crate::state::encode_session_record`]):
    /// adapter weights, optimizer moments, step/epoch counters, the
    /// cached lost-reply replay, codec residual state, and the origin
    /// server's base seed. `None` if the client is unknown here.
    ///
    /// The exporter's own state is untouched; a fleet coordinator
    /// re-homing sessions feeds the blob to a survivor via the v1.4
    /// `ImportSession` frame (or [`MenosServer::import_session`]
    /// directly).
    pub fn export_session(&self, client: ClientId) -> Option<Vec<u8>> {
        let rec = if let Some(s) = self.clients.get(&client) {
            SessionRecord {
                client,
                epoch: s.epoch,
                live: true,
                session: s.session.to_state(),
                last_reply: s.last_reply.as_ref().map(crate::state::encode_reply),
            }
        } else {
            let q = self.quarantined.get(&client)?;
            SessionRecord {
                client,
                epoch: q.epoch,
                live: false,
                session: q.session.to_state(),
                last_reply: q.last_reply.as_ref().map(crate::state::encode_reply),
            }
        };
        Some(crate::state::encode_session_record(self.seed, &rec))
    }

    /// Imports a migrated session blob, parking it in quarantine
    /// exactly as [`MenosServer::restore`] parks records: no
    /// Algorithm-2 reservation, no live slot — the client's `Resume`
    /// re-admits it through the normal admission path (and may be shed
    /// `Busy` if this server is itself full). Returns the imported
    /// client and its resume epoch (the fencing token the coordinator
    /// echoes in `Imported`).
    ///
    /// Unlike `restore`, the server may be mid-flight with other
    /// sessions; only a *duplicate* of the imported client (live or
    /// quarantined) is refused — two homes for one session would fork
    /// its training state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the blob is corrupt, the origin seed
    /// disagrees with this server's (the adapters were trained against
    /// a different base), the client already has a session here, or
    /// the record fails to rebuild. Nothing is committed on error.
    pub fn import_session(&mut self, blob: &[u8]) -> Result<(ClientId, u64), CheckpointError> {
        let (seed, rec) = crate::state::decode_session_record(blob)?;
        if seed != self.seed {
            return Err(CheckpointError::Corrupt(format!(
                "migrated session's origin seed {} does not match server seed {}",
                seed, self.seed
            )));
        }
        if self.clients.contains_key(&rec.client) || self.quarantined.contains_key(&rec.client) {
            return Err(CheckpointError::Corrupt(format!(
                "{} already has a session on this server",
                rec.client
            )));
        }
        // Validate-then-commit, as in restore: rebuild everything off
        // to the side so an error cannot leave a half-imported session.
        let session = ServerSession::from_state(self.registry.new_instance(), &rec.session)?;
        if session.client() != rec.client {
            return Err(CheckpointError::Corrupt(format!(
                "record for {} holds a session for {}",
                rec.client,
                session.client()
            )));
        }
        debug_assert!(self.registry.verify_aliasing(session.model()));
        let config = self.registry.config().clone();
        let profile = menos_models::ModelProfile::new(config, session.split().front_layers);
        let demands = profile_client(&profile, session.ft_config());
        let last_reply = rec
            .last_reply
            .as_deref()
            .map(crate::state::decode_reply)
            .transpose()?;
        self.quarantined.insert(
            rec.client,
            Quarantined {
                session,
                demands,
                epoch: rec.epoch,
                last_reply,
                since: Instant::now(),
            },
        );
        Ok((rec.client, rec.epoch))
    }
}

impl MessageHandler for MenosServer {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        MenosServer::handle(self, msg)
    }

    /// A lost connection quarantines the session instead of dropping
    /// it, so the client can reconnect and resume.
    fn connection_lost(&mut self, client: ClientId) {
        self.quarantine(client);
    }

    fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        MenosServer::expire_idle(self, max_idle)
    }

    /// The full [`ServerState`] in snapshot byte form — everything a
    /// fresh process needs to [`restore`](MenosServer::restore) and
    /// accept resumes with zero training divergence.
    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        Some(self.to_state().to_bytes())
    }

    /// Pool utilization at or past the watermark tells the pump to
    /// drain before accepting (v1.3 graceful degradation).
    fn under_pressure(&mut self) -> bool {
        MenosServer::under_pressure(self)
    }
}

impl BatchHandler for MenosServer {
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        MenosServer::handle_batch(self, msgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ServerMode;
    use bytes::Bytes;
    use menos_net::{decode_tensor, encode_tensor, WireError};
    use menos_tensor::Tensor;

    fn server() -> (MenosServer, FineTuneConfig) {
        let config = ModelConfig::tiny_opt(17);
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = 2;
        ft.seq_len = 8;
        (
            MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5),
            ft,
        )
    }

    fn frame(t: &Tensor) -> Bytes {
        encode_tensor(t)
    }

    #[test]
    fn full_protocol_cycle() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        let ready = srv
            .handle(ClientMessage::Connect {
                client: c,
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        assert!(matches!(ready, Some(ServerMessage::Ready { .. })));
        assert!(srv.demands_of(c).is_some());

        let x_c = Tensor::full(0.1, [2, 8, 64]);
        let reply = srv
            .handle(ClientMessage::Activations {
                client: c,
                frame: frame(&x_c),
            })
            .unwrap()
            .unwrap();
        let ServerMessage::ServerActivations { frame: xs, .. } = reply else {
            panic!("expected activations");
        };
        let x_s = decode_tensor(&xs).unwrap();
        assert_eq!(x_s.dims(), &[2, 8, 64]);

        let g_c = Tensor::full(0.01, [2, 8, 64]);
        let reply = srv
            .handle(ClientMessage::Gradients {
                client: c,
                frame: frame(&g_c),
            })
            .unwrap()
            .unwrap();
        assert!(matches!(reply, ServerMessage::ServerGradients { .. }));

        assert!(srv
            .handle(ClientMessage::Disconnect { client: c })
            .unwrap()
            .is_none());
        assert_eq!(srv.active_clients(), 0);
    }

    /// Drives one full step for `client` and returns the gradient
    /// reply (which the server also caches for resume replay).
    fn one_step(srv: &mut MenosServer, c: ClientId, ft: &FineTuneConfig) -> ServerMessage {
        srv.handle(ClientMessage::Connect {
            client: c,
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let x_c = Tensor::full(0.1, [2, 8, 64]);
        srv.handle(ClientMessage::Activations {
            client: c,
            frame: frame(&x_c),
        })
        .unwrap();
        let g_c = Tensor::full(0.01, [2, 8, 64]);
        srv.handle(ClientMessage::Gradients {
            client: c,
            frame: frame(&g_c),
        })
        .unwrap()
        .unwrap()
    }

    #[test]
    fn state_survives_restart_bit_identically() {
        let (mut srv, ft) = server();
        let c = ClientId(4);
        let reply = one_step(&mut srv, c, &ft);
        assert!(matches!(reply, ServerMessage::ServerGradients { .. }));

        let state = srv.to_state();
        let bytes = state.to_bytes();
        assert_eq!(ServerState::from_bytes(&bytes).unwrap(), state);

        // A fresh process: same config and seed re-derive the same
        // base; restore rebuilds the sessions.
        let config = ModelConfig::tiny_opt(17);
        let mut fresh = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
        let restored = fresh
            .restore(ServerState::from_bytes(&bytes).unwrap())
            .unwrap();
        assert_eq!(restored, 1);
        // Restored sessions are parked: no live reservation until the
        // client resumes (the old connection died with the process).
        assert_eq!(fresh.active_clients(), 0);
        assert_eq!(fresh.quarantined_clients(), 1);
        assert_eq!(fresh.reserved_bytes(), 0);

        // Adapter weights bit-identical to the snapshotted server's.
        let old = srv.session_adapters(c).unwrap();
        let new = fresh.session_adapters(c).unwrap();
        assert_eq!(old.len(), new.len());
        for (name, t) in old.iter() {
            let r = new.get(name).unwrap();
            let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(t), bits(r), "{name}");
        }

        // The resume handshake works against the restored server: the
        // client finished 0 steps, the server finished 1, so the
        // cached reply is replayed byte-for-byte and the Algorithm-2
        // reservation returns.
        let resumed = fresh
            .handle(ClientMessage::Resume {
                client: c,
                epoch: 1,
                last_step: 0,
            })
            .unwrap()
            .unwrap();
        let ServerMessage::Resumed {
            epoch,
            server_step,
            replay,
            ..
        } = resumed
        else {
            panic!("expected Resumed");
        };
        assert_eq!(epoch, 2, "epochs stay monotone across restarts");
        assert_eq!(server_step, 1);
        assert_eq!(replay, encode_server_message(&reply));
        assert!(fresh.reserved_bytes() > 0);
    }

    #[test]
    fn restore_refuses_busy_server_seed_mismatch_and_corruption() {
        let (mut srv, ft) = server();
        one_step(&mut srv, ClientId(0), &ft);
        let bytes = srv.to_state().to_bytes();

        // Busy target: sessions already present.
        let state = ServerState::from_bytes(&bytes).unwrap();
        assert!(srv.restore(state.clone()).is_err());

        // Seed mismatch: a different server identity must not adopt
        // sessions whose adapters derive from another seed.
        let config = ModelConfig::tiny_opt(17);
        let mut other = MenosServer::new(config.clone(), ServerSpec::v100(ServerMode::menos()), 99);
        assert!(other.restore(state.clone()).is_err());
        assert_eq!(other.quarantined_clients(), 0);

        // Corrupt record: validate-then-commit leaves the target
        // untouched.
        let mut fresh = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
        let mut broken = state;
        broken.sessions[0].session[60] ^= 0xFF;
        assert!(fresh.restore(broken).is_err());
        assert_eq!(fresh.quarantined_clients(), 0);
        assert_eq!(fresh.active_clients(), 0);
    }

    #[test]
    fn unknown_client_rejected() {
        let (mut srv, _ft) = server();
        let err = srv
            .handle(ClientMessage::Activations {
                client: ClientId(9),
                frame: frame(&Tensor::zeros([1, 1, 64])),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownClient(_)));
        assert!(err.to_string().contains("unknown client"));
    }

    #[test]
    fn bad_frame_rejected_without_state_damage() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        srv.handle(ClientMessage::Connect {
            client: c,
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let err = srv
            .handle(ClientMessage::Activations {
                client: c,
                frame: Bytes::from_static(b"garbage"),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Wire(WireError::BadMagic(_))));
        // The client remains connected and serviceable.
        let x_c = Tensor::full(0.1, [2, 8, 64]);
        assert!(srv
            .handle(ClientMessage::Activations {
                client: c,
                frame: frame(&x_c),
            })
            .is_ok());
    }

    #[test]
    fn gradients_before_activations_is_a_protocol_error() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        srv.handle(ClientMessage::Connect {
            client: c,
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let err = srv
            .handle(ClientMessage::Gradients {
                client: c,
                frame: frame(&Tensor::zeros([2, 8, 64])),
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfOrder(_)));
    }

    #[test]
    fn invalid_config_rejected_at_connect() {
        let (mut srv, mut ft) = server();
        ft.batch_size = 0;
        let err = srv
            .handle(ClientMessage::Connect {
                client: ClientId(0),
                ft,
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)));
        assert_eq!(srv.active_clients(), 0);
    }

    #[test]
    fn duplicate_connect_rejected() {
        let (mut srv, ft) = server();
        let c = ClientId(0);
        let connect = ClientMessage::Connect {
            client: c,
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        srv.handle(connect.clone()).unwrap();
        let err = srv.handle(connect).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err}");
        // The original session is untouched.
        assert_eq!(srv.active_clients(), 1);
    }

    #[test]
    fn sessions_alias_the_shared_base() {
        let (mut srv, ft) = server();
        for k in 0..3 {
            srv.handle(ClientMessage::Connect {
                client: ClientId(k),
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        }
        assert_eq!(srv.active_clients(), 3);
        assert_eq!(srv.registry().instances_created(), 3);
    }

    #[test]
    fn capacity_shed_is_retryable_and_touches_no_state() {
        let (mut srv, ft) = server();
        srv.set_capacity(1);
        srv.set_busy_retry_after_ms(250);
        let connect = |c| ClientMessage::Connect {
            client: ClientId(c),
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        srv.handle(connect(0)).unwrap();
        let err = srv.handle(connect(1)).unwrap_err();
        assert!(
            matches!(
                err,
                ProtocolError::Busy {
                    client: ClientId(1),
                    retry_after_ms: 250,
                }
            ),
            "{err}"
        );
        // Shedding is idempotent and created nothing.
        assert_eq!(srv.active_clients(), 1);
        assert_eq!(srv.quarantined_clients(), 0);
        // Departure frees the slot; the same connect now succeeds —
        // the defining difference from a terminal Rejected.
        srv.handle(ClientMessage::Disconnect {
            client: ClientId(0),
        })
        .unwrap();
        assert!(srv.handle(connect(1)).is_ok());
    }

    #[test]
    fn resume_at_capacity_is_shed_with_quarantine_intact() {
        let (mut srv, ft) = server();
        for c in 0..2 {
            srv.handle(ClientMessage::Connect {
                client: ClientId(c),
                ft: ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs: 0,
            })
            .unwrap();
        }
        srv.quarantine(ClientId(1));
        srv.set_capacity(1);
        let resume = ClientMessage::Resume {
            client: ClientId(1),
            epoch: 1,
            last_step: 0,
        };
        let err = srv.handle(resume.clone()).unwrap_err();
        assert!(matches!(err, ProtocolError::Busy { .. }), "{err}");
        // The parked session survived the shed — a later retry (after
        // the server drained) re-attaches it with zero loss.
        assert_eq!(srv.quarantined_clients(), 1);
        srv.set_capacity(2);
        assert!(matches!(
            srv.handle(resume).unwrap(),
            Some(ServerMessage::Resumed { .. })
        ));
    }

    #[test]
    fn pool_oversubscription_sheds_where_impossible_demands_reject() {
        let (mut srv, ft) = server();
        srv.handle(ClientMessage::Connect {
            client: ClientId(0),
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        let m_b = srv.demands_of(ClientId(0)).unwrap().m_b;
        // Shrink the pool so a second identical client fits alone but
        // not alongside the first's live reservation: Busy (retryable).
        srv.spec.gpu_capacity = m_b + m_b / 2;
        let connect = |c| ClientMessage::Connect {
            client: ClientId(c),
            ft: ft.clone(),
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        };
        let err = srv.handle(connect(1)).unwrap_err();
        assert!(matches!(err, ProtocolError::Busy { .. }), "{err}");
        assert_eq!(srv.active_clients(), 1);
        // A demand that can NEVER fit stays a terminal Rejected — the
        // client must not burn retries on the impossible.
        srv.spec.gpu_capacity = m_b - 1;
        let err = srv.handle(connect(2)).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err}");
        // The freed pool admits the shed client on retry.
        srv.spec.gpu_capacity = m_b + m_b / 2;
        srv.handle(ClientMessage::Disconnect {
            client: ClientId(0),
        })
        .unwrap();
        assert!(srv.handle(connect(1)).is_ok());
    }

    #[test]
    fn pressure_watermark_degrades_the_stack_cap() {
        let (mut srv, ft) = server();
        assert!(!srv.under_pressure());
        assert_eq!(srv.effective_stack_cap(), MAX_STACK_MEMBERS);
        srv.handle(ClientMessage::Connect {
            client: ClientId(0),
            ft,
            split: SplitSpec::paper(),
            epoch: 1,
            codecs: 0,
        })
        .unwrap();
        // Watermark 0: the degraded regime is unconditionally in
        // force — handy for pinning the degraded path in tests.
        srv.set_pressure_watermark(0);
        assert!(srv.under_pressure());
        assert_eq!(srv.effective_stack_cap(), (MAX_STACK_MEMBERS / 4).max(1));
        assert!(srv.utilization_pct() <= 100);
        // Back to the default watermark: pressure clears.
        srv.set_pressure_watermark(100);
        assert!(!srv.under_pressure());
        assert_eq!(srv.effective_stack_cap(), MAX_STACK_MEMBERS);
    }

    #[test]
    fn from_store_shares_the_given_base() {
        let config = ModelConfig::tiny_opt(17);
        let mut rng = menos_sim::seeded_rng(5, "base-model");
        let base = menos_models::init_params(&config, &mut rng);
        let srv = MenosServer::from_store(config, base, ServerSpec::v100(ServerMode::menos()), 5);
        assert_eq!(srv.active_clients(), 0);
        assert!(srv.registry().base_bytes() > 0);
    }
}
