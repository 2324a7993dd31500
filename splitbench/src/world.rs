//! What every workload shares: the model `menos client` trains by
//! default, seeded client inputs, the client-side halves of a split
//! step with a span around each layer call, the benchmark's
//! pass-through server handler, and the in-process correctness oracle.

use std::collections::HashMap;
use std::sync::Arc;

use menos_adapters::FineTuneConfig;
use menos_core::{MenosServer, ServerSpec};
use menos_data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos_models::{init_params, CausalLm, ModelConfig};
use menos_net::Codec;
use menos_sim::seeded_rng;
use menos_split::{
    run_split_steps, BatchHandler, ClientId, ClientMessage, ForwardMode, MessageHandler,
    ProtocolError, ServerMessage, ServerSession, SplitClient, SplitSpec, WireMessage,
};
use menos_tensor::ParamStore;

use crate::trace::{Span, TraceClock, Tracer};

/// `menos client`'s default `--model-seed`: the base model and the
/// vocabulary are fixed; only client data and adapters follow the
/// workload seed.
pub const MODEL_SEED: u64 = 21;
/// Characters of corpus text behind the vocabulary and each client's data.
const CORPUS_CHARS: usize = 20_000;

pub const FRONT_FWD: &str = "SplitClient::start_step";
pub const TAIL_BWD: &str = "SplitClient::receive_server_activations";
pub const FRONT_BWD: &str = "SplitClient::receive_server_gradients";
pub const ENCODE_ACT: &str = "SplitClient::encode_activations";
pub const ENCODE_GRAD: &str = "SplitClient::encode_gradients";
pub const DECODE: &str = "SplitClient::decode_frame";
pub const SEND: &str = "Transport::send";
pub const RECV: &str = "Transport::recv";
pub const RT_ACT: &str = "roundtrip.activations";
pub const RT_GRAD: &str = "roundtrip.gradients";
pub const STEP: &str = "step";
pub const ROUND: &str = "round";
pub const BATCH: &str = "MenosServer::handle_batch";
pub const HANDLE: &str = "MenosServer::handle";
pub const HANDLE_CONNECT: &str = "MenosServer::handle/Connect";

/// The shared base model: tiny-llama over the fixed vocabulary, trained
/// at `menos client`'s default shape (batch 4 × seq 32, paper split).
pub struct Model {
    pub vocab: Vocab,
    pub config: ModelConfig,
    pub base: ParamStore,
    pub ft: FineTuneConfig,
}

impl Model {
    pub fn new() -> Self {
        let text = wiki_corpus(MODEL_SEED, CORPUS_CHARS);
        let vocab = Vocab::from_text(&text);
        let config = ModelConfig::tiny_llama(vocab.size());
        let base = init_params(&config, &mut seeded_rng(MODEL_SEED, "base-model"));
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = 4;
        ft.seq_len = 32;
        Model {
            vocab,
            config,
            base,
            ft,
        }
    }

    /// A client's private token stream for `data_seed`.
    pub fn dataset(&self, data_seed: u64) -> TokenDataset {
        let text = wiki_corpus(1000 + data_seed, CORPUS_CHARS);
        TokenDataset::new(self.vocab.encode(&text), self.ft.seq_len, data_seed)
    }

    /// A client with id `id` whose data and adapters derive from
    /// `data_seed`, advertising `codec` (raw advertises nothing, as
    /// `menos client` does).
    pub fn client(&self, id: u64, data_seed: u64, codec: Codec) -> SplitClient {
        let mut client = SplitClient::new(
            ClientId(id),
            CausalLm::bind(&self.config, &self.base),
            SplitSpec::paper(),
            self.ft.clone(),
            self.dataset(data_seed),
            data_seed,
        );
        if codec != Codec::F32Raw {
            client.set_advertised_codecs(codec.flag());
        }
        client
    }

    /// A Menos server over the shared base.
    pub fn server(&self, spec: ServerSpec) -> MenosServer {
        MenosServer::from_store(
            self.config.clone(),
            self.base.shared_view(false),
            spec,
            MODEL_SEED,
        )
    }

    /// The `Connect` a client sends.
    pub fn connect_msg(client: &SplitClient) -> ClientMessage {
        ClientMessage::Connect {
            client: client.id(),
            ft: client.ft_config().clone(),
            split: client.split(),
            epoch: client.epoch(),
            codecs: client.advertised_codecs(),
        }
    }
}

/// Per-client data seeds of a workload: distinct for every client and
/// every workload seed, the same for the same seed.
pub fn data_seeds(workload_seed: u64, clients: usize) -> Vec<u64> {
    // SplitMix64 over the workload seed: distinct outputs for distinct
    // counters, so clients never share data.
    (0..clients as u64)
        .map(|i| {
            let mut z = workload_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % 1_000_000_007
        })
        .collect()
}

/// Bytes of `msg` on the wire (header plus body).
pub fn wire_len<M: WireMessage>(msg: &M) -> u64 {
    let (header, body) = msg.to_wire_parts();
    (header.len() + body.len()) as u64
}

/// Steps 1–2, client side: front forward and activation encode.
pub fn front(client: &mut SplitClient, tr: &mut Tracer) -> ClientMessage {
    tr.set_id(client.id().0, client.steps_completed() as u64);
    let s = tr.enter(FRONT_FWD);
    let x_c = client.start_step();
    tr.exit(s);
    let s = tr.enter(ENCODE_ACT);
    let frame = client.encode_activations(&x_c);
    tr.exit(s);
    ClientMessage::Activations {
        client: client.id(),
        frame,
    }
}

/// Step 3, client side: decode `x_s`, tail forward, loss and backward,
/// gradient encode.
pub fn tail(
    client: &mut SplitClient,
    tr: &mut Tracer,
    reply: ServerMessage,
) -> Result<ClientMessage, ProtocolError> {
    let ServerMessage::ServerActivations { frame, .. } = reply else {
        return Err(unexpected("ServerActivations", &reply));
    };
    tr.set_id(client.id().0, client.steps_completed() as u64);
    let s = tr.enter(DECODE);
    let x_s = client.decode_frame(&frame);
    tr.exit(s);
    let x_s = x_s?;
    let s = tr.enter(TAIL_BWD);
    let (_loss, g_c) = client.receive_server_activations(&x_s);
    tr.exit(s);
    let s = tr.enter(ENCODE_GRAD);
    let frame = client.encode_gradients(&g_c);
    tr.exit(s);
    Ok(ClientMessage::Gradients {
        client: client.id(),
        frame,
    })
}

/// Step 4, client side: decode `g_s`, front backward and optimizer step.
pub fn finish(
    client: &mut SplitClient,
    tr: &mut Tracer,
    reply: ServerMessage,
) -> Result<(), ProtocolError> {
    let ServerMessage::ServerGradients { frame, .. } = reply else {
        return Err(unexpected("ServerGradients", &reply));
    };
    tr.set_id(client.id().0, client.steps_completed() as u64);
    let s = tr.enter(DECODE);
    let g_s = client.decode_frame(&frame);
    tr.exit(s);
    let g_s = g_s?;
    let s = tr.enter(FRONT_BWD);
    client.receive_server_gradients(&g_s);
    tr.exit(s);
    Ok(())
}

pub fn unexpected(want: &str, got: &ServerMessage) -> ProtocolError {
    ProtocolError::Unexpected(format!("expected {want}, got {got:?}"))
}

/// One traced `handle_batch` call: its span (an index into the
/// handler's spans) and the `(client, is_gradients)` of each member.
#[derive(Debug, Clone)]
pub struct BatchRec {
    pub span: usize,
    pub members: Vec<(u64, bool)>,
}

/// The benchmark's pass-through handler around [`MenosServer`]: when
/// the clock says the moment is untraced it forwards each call and
/// does nothing else.
pub struct Served {
    pub inner: MenosServer,
    pool_bytes: u64,
    tracer: Tracer,
    batches: Vec<BatchRec>,
    admissions: Vec<Admission>,
}

/// Pool accounting right after a traced `Connect` was admitted.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub reserved_bytes: u64,
    pub live_sessions: usize,
    pub utilization_pct: f64,
}

/// What a traced handler hands back at the end of a run.
#[derive(Debug)]
pub struct ServerTrace {
    pub spans: Vec<Span>,
    pub batches: Vec<BatchRec>,
    pub admissions: Vec<Admission>,
}

impl Served {
    pub fn new(inner: MenosServer, pool_bytes: u64, clock: Arc<TraceClock>) -> Self {
        Served {
            inner,
            pool_bytes,
            tracer: Tracer::new(clock),
            batches: Vec::new(),
            admissions: Vec::new(),
        }
    }

    /// The recorded spans, batch records (indexing those spans) and
    /// admissions.
    pub fn take(&mut self) -> ServerTrace {
        ServerTrace {
            spans: self.tracer.take(),
            batches: std::mem::take(&mut self.batches),
            admissions: std::mem::take(&mut self.admissions),
        }
    }
}

impl MessageHandler for Served {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        if !self.tracer.clock().tracing_now() {
            return self.inner.handle(msg);
        }
        let connect = matches!(msg, ClientMessage::Connect { .. });
        self.tracer.set_id(msg.client().0, 0);
        let s = self
            .tracer
            .enter(if connect { HANDLE_CONNECT } else { HANDLE });
        let out = self.inner.handle(msg);
        self.tracer.exit(s);
        if connect && out.is_ok() {
            let reserved_bytes = self.inner.reserved_bytes();
            self.admissions.push(Admission {
                reserved_bytes,
                live_sessions: self.inner.active_clients(),
                utilization_pct: reserved_bytes as f64 * 100.0 / self.pool_bytes as f64,
            });
        }
        out
    }

    fn connection_lost(&mut self, client: ClientId) {
        MessageHandler::connection_lost(&mut self.inner, client);
    }

    fn expire_idle(&mut self, max_idle: std::time::Duration) -> Vec<ClientId> {
        MessageHandler::expire_idle(&mut self.inner, max_idle)
    }

    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        MessageHandler::snapshot_bytes(&mut self.inner)
    }

    fn under_pressure(&mut self) -> bool {
        MessageHandler::under_pressure(&mut self.inner)
    }
}

impl BatchHandler for Served {
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        if !self.tracer.clock().tracing_now() {
            return self.inner.handle_batch(msgs);
        }
        let members = msgs
            .iter()
            .map(|m| (m.client().0, matches!(m, ClientMessage::Gradients { .. })))
            .collect();
        self.tracer
            .set_id(msgs.first().map_or(0, |m| m.client().0), 0);
        let s = self.tracer.enter(BATCH);
        let out = self.inner.handle_batch(msgs);
        self.tracer.exit(s);
        if let Some(span) = s {
            self.batches.push(BatchRec { span, members });
        }
        out
    }
}

/// FNV-1a digest of a parameter store: names and f32 bit patterns in
/// name order.
pub fn digest(params: &ParamStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, t) in params.iter() {
        eat(name.as_bytes());
        for v in t.to_vec() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// What a served client ended with, for the correctness gate.
pub struct Finished {
    pub id: u64,
    pub data_seed: u64,
    pub codec: Codec,
    pub curve: LossCurve,
    pub adapter_digest: u64,
}

impl Finished {
    pub fn of(client: &SplitClient, data_seed: u64, codec: Codec) -> Self {
        Finished {
            id: client.id().0,
            data_seed,
            codec,
            curve: client.curve().clone(),
            adapter_digest: digest(client.adapter_params()),
        }
    }
}

/// The in-process oracle: the same client against a solo
/// [`ServerSession`] seeded as [`MenosServer`] seeds it, through
/// [`run_split_steps`] for `steps` steps under `codec`.
pub fn oracle(
    model: &Model,
    id: u64,
    data_seed: u64,
    codec: Codec,
    steps: usize,
) -> (LossCurve, u64) {
    let mut client = model.client(id, data_seed, codec);
    client.adopt_codec(codec);
    let mut session = ServerSession::new(
        ClientId(id),
        CausalLm::bind(&model.config, &model.base.shared_view(false)),
        SplitSpec::paper(),
        &model.ft,
        MODEL_SEED.wrapping_add(id),
    );
    session.set_codec(codec);
    let curve = run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        steps,
    );
    (curve, digest(client.adapter_params()))
}

/// The correctness gate: checks served clients bit-for-bit against
/// [`oracle`], computing each distinct `(client, seed, codec, steps)`
/// once.
pub struct Oracle<'a> {
    model: &'a Model,
    cache: HashMap<(u64, u64, u8, usize), (LossCurve, u64)>,
}

impl<'a> Oracle<'a> {
    pub fn new(model: &'a Model) -> Self {
        Oracle {
            model,
            cache: HashMap::new(),
        }
    }

    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check(&mut self, f: &Finished) -> Result<(), String> {
        let steps = f.curve.points().len();
        if steps == 0 {
            return Err(format!("client {} completed no steps", f.id));
        }
        let model = self.model;
        let (want, want_digest) = self
            .cache
            .entry((f.id, f.data_seed, f.codec as u8, steps))
            .or_insert_with(|| oracle(model, f.id, f.data_seed, f.codec, steps));
        for (i, (got, exp)) in f.curve.points().iter().zip(want.points()).enumerate() {
            if got.0 != exp.0 || got.1.to_bits() != exp.1.to_bits() {
                return Err(format!(
                    "client {} step {i}: served loss {got:?} != oracle {exp:?}",
                    f.id
                ));
            }
        }
        if f.adapter_digest != *want_digest {
            return Err(format!(
                "client {} adapter digest {:016x} != oracle {want_digest:016x} after {steps} steps",
                f.id, f.adapter_digest
            ));
        }
        Ok(())
    }
}

/// Mean over clients of each client's mean loss over its last
/// `tail` steps.
pub fn loss_final<'a>(curves: impl IntoIterator<Item = &'a LossCurve>, tail: usize) -> f64 {
    let per: Vec<f64> = curves
        .into_iter()
        .filter_map(|c| c.tail_mean(tail).map(f64::from))
        .collect();
    crate::stats::mean(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_client_data_but_not_shapes() {
        let model = Model::new();
        let a = data_seeds(1, 4);
        let b = data_seeds(2, 4);
        assert_eq!(a, data_seeds(1, 4), "same seed, same inputs");
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        let (da, db) = (model.dataset(a[0]), model.dataset(b[0]));
        let (ba, bb) = (
            da.batch(0, model.ft.batch_size),
            db.batch(0, model.ft.batch_size),
        );
        assert_eq!((ba.batch_size, ba.seq_len), (bb.batch_size, bb.seq_len));
        assert_eq!(ba.inputs.len(), bb.inputs.len());
        assert_ne!(ba.inputs, bb.inputs, "different seeds, different tokens");
    }

    #[test]
    fn gate_refuses_any_changed_loss_bit_or_weight() {
        let model = Model::new();
        let (curve, adapter_digest) = oracle(&model, 5, 9, Codec::F32Raw, 2);
        let served = |curve: LossCurve, adapter_digest| Finished {
            id: 5,
            data_seed: 9,
            codec: Codec::F32Raw,
            curve,
            adapter_digest,
        };
        let mut gate = Oracle::new(&model);
        assert!(gate.check(&served(curve.clone(), adapter_digest)).is_ok());
        let mut nudged = LossCurve::new();
        for (i, &(step, loss)) in curve.points().iter().enumerate() {
            let loss = if i == 1 {
                f32::from_bits(loss.to_bits() ^ 1)
            } else {
                loss
            };
            nudged.push(step, loss);
        }
        assert!(gate.check(&served(nudged, adapter_digest)).is_err());
        assert!(gate.check(&served(curve, adapter_digest ^ 1)).is_err());
    }

    #[test]
    fn digest_sees_every_bit() {
        let model = Model::new();
        let c = model.client(0, 5, Codec::F32Raw);
        let d = digest(c.adapter_params());
        assert_eq!(
            d,
            digest(model.client(0, 5, Codec::F32Raw).adapter_params())
        );
        assert_ne!(
            d,
            digest(model.client(0, 6, Codec::F32Raw).adapter_params())
        );
    }
}
