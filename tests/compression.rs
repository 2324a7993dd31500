//! Acceptance tests for wire-level tensor compression (protocol v1.2,
//! PROTOCOL.md §7): per-codec round trips, the Connect/Ready
//! negotiation matrix (including the v1.1 raw fallback), bit-identity
//! of the lossless paths, and survival of the error-feedback residuals
//! across a server snapshot/restore.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ProtocolError, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::net::{
    supported_codec_mask, Codec, TensorCodec, WireError, ROLE_ACTIVATIONS, ROLE_GRADIENTS,
};
use menos::split::{
    drive_client, event_channel_listener, run_split_steps, ClientId, ClientMessage,
    EventLoopOptions, ForwardMode, RetryPolicy, ServerEventLoop, ServerMessage, ServerSession,
    SplitClient, SplitSpec,
};
use menos::tensor::Tensor;

const SEED: u64 = 7200;

fn setup() -> (
    String,
    Vocab,
    ModelConfig,
    Arc<Mutex<menos::tensor::ParamStore>>,
) {
    let text = wiki_corpus(72, 12_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_opt(vocab.size());
    let mut rng = menos::sim::seeded_rng(72, "compression");
    let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));
    (text, vocab, config, base)
}

fn make_server(
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> Arc<Mutex<MenosServer>> {
    let view = base.lock().unwrap().shared_view(false);
    Arc::new(Mutex::new(MenosServer::from_store(
        config.clone(),
        view,
        ServerSpec::v100(ServerMode::menos()),
        SEED,
    )))
}

fn make_client(
    k: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> SplitClient {
    let vocab = Vocab::from_text(text);
    let mut ft = FineTuneConfig::paper(config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    let ds = TokenDataset::new(vocab.encode(text), 16, k);
    let view = base.lock().unwrap().shared_view(false);
    SplitClient::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        ft,
        ds,
        k,
    )
}

fn train_over_channel(
    client: &mut SplitClient,
    handler: Arc<Mutex<MenosServer>>,
    steps: usize,
) -> LossCurve {
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        handler,
        EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        },
    );
    let server = std::thread::spawn(move || event_loop.run());
    let curve = drive_client(client, |_| dialer.dial(), steps, &RetryPolicy::none())
        .expect("channel training");
    server.join().expect("server thread");
    curve
}

fn connect(client: ClientId, config: &ModelConfig, codecs: u64) -> ClientMessage {
    let mut ft = FineTuneConfig::paper(config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    ClientMessage::Connect {
        client,
        ft,
        split: SplitSpec::paper(),
        epoch: 1,
        codecs,
    }
}

fn ready_codec(reply: Option<ServerMessage>) -> Codec {
    match reply {
        Some(ServerMessage::Ready { codec, .. }) => codec,
        other => panic!("expected Ready, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Per-codec round trips (proptest).
// ---------------------------------------------------------------------

proptest! {
    /// Every codec's encode/decode round-trips arbitrary tensors within
    /// its specified tolerance: raw is bit-exact, f16/bf16 are bounded
    /// by their rounding step, and topk8 delivers exactly the selected
    /// coordinates unchanged (the rest stay banked in the residual).
    #[test]
    fn every_codec_round_trips_within_spec(
        vals in prop::collection::vec(-100.0f32..100.0, 1..96),
    ) {
        let n = vals.len();
        let t = Tensor::from_vec(vals.clone(), [n]);
        for codec in [Codec::F32Raw, Codec::F16, Codec::BF16, Codec::TopK8] {
            let mut party = TensorCodec::new(codec);
            let body = party.encode(ROLE_ACTIVATIONS, &t);
            let back = TensorCodec::new(codec).decode(&body).expect("decode");
            prop_assert_eq!(back.dims(), t.dims());
            let back = back.to_vec();
            match codec {
                Codec::F32Raw => {
                    for (x, y) in vals.iter().zip(&back) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                Codec::F16 | Codec::BF16 => {
                    let rel = if codec == Codec::F16 { 1.0 / 2048.0 } else { 1.0 / 256.0 };
                    for (x, y) in vals.iter().zip(&back) {
                        prop_assert!((x - y).abs() <= x.abs() * rel + 1e-24, "{} vs {}", x, y);
                    }
                }
                Codec::TopK8 => {
                    let k = n.div_ceil(8);
                    let sent = back.iter().filter(|v| **v != 0.0).count();
                    prop_assert!(sent <= k, "sent {} of k={}", sent, k);
                    // The first encode sees a zero residual, so every
                    // delivered coordinate is the original value.
                    for (x, y) in vals.iter().zip(&back) {
                        prop_assert!(*y == 0.0 || x.to_bits() == y.to_bits(), "{} vs {}", x, y);
                    }
                }
            }
        }
    }
}

/// Error feedback guarantees no coordinate is starved forever: feeding
/// the same tensor repeatedly, the banked residual of an unsent
/// coordinate grows until it wins top-k selection.
#[test]
fn error_feedback_eventually_delivers_every_coordinate() {
    let n = 16; // k = 2 per round
    let t = Tensor::from_vec((0..n).map(|i| 0.1 + i as f32).collect(), [n]);
    let mut enc = TensorCodec::new(Codec::TopK8);
    let dec = TensorCodec::new(Codec::TopK8);
    let mut delivered = vec![false; n];
    // The smallest coordinate (0.1) accumulates slowest: it needs about
    // sum(x)/2k ≈ 600 rounds to out-bank the re-accumulating big ones.
    for _ in 0..1500 {
        let back = dec.decode(&enc.encode(ROLE_GRADIENTS, &t)).expect("decode");
        for (d, v) in delivered.iter_mut().zip(back.to_vec()) {
            *d |= v != 0.0;
        }
    }
    assert!(
        delivered.iter().all(|d| *d),
        "residual accumulation must eventually deliver every coordinate: {delivered:?}"
    );
}

// ---------------------------------------------------------------------
// Negotiation matrix (PROTOCOL.md §7.3).
// ---------------------------------------------------------------------

/// The server picks the highest-tag non-raw codec in the intersection,
/// falls back to raw for v1.1 peers (empty mask) or disjoint masks,
/// and ignores unknown advertised bits.
#[test]
fn negotiation_matrix_matches_protocol_rules() {
    let (_text, _vocab, config, base) = setup();
    let cases: [(u64, u64, Codec); 6] = [
        // v1.2 ↔ v1.2: highest-tag non-raw codec wins.
        (supported_codec_mask(), supported_codec_mask(), Codec::TopK8),
        (
            Codec::F16.flag() | Codec::BF16.flag(),
            supported_codec_mask(),
            Codec::BF16,
        ),
        (Codec::F16.flag(), supported_codec_mask(), Codec::F16),
        // v1.1 client: no mask on the wire → raw framing.
        (0, supported_codec_mask(), Codec::F32Raw),
        // Disjoint masks: nothing shared beyond raw → raw fallback.
        (
            Codec::TopK8.flag(),
            Codec::F32Raw.flag() | Codec::F16.flag(),
            Codec::F32Raw,
        ),
        // Unknown advertised bits are ignored, not rejected.
        (
            (1 << 40) | Codec::F16.flag(),
            supported_codec_mask(),
            Codec::F16,
        ),
    ];
    for (i, &(advertised, supported, want)) in cases.iter().enumerate() {
        let server = make_server(&config, &base);
        let mut srv = server.lock().unwrap();
        srv.set_supported_codecs(supported);
        let reply = srv
            .handle(connect(ClientId(i as u64), &config, advertised))
            .expect("connect accepted");
        assert_eq!(
            ready_codec(reply),
            want,
            "case {i}: advertised {advertised:#x} vs supported {supported:#x}"
        );
    }
}

/// A compressed body on a session that negotiated raw is a typed
/// `Malformed` rejection — never silently accepted — and the session
/// stays serviceable afterwards.
#[test]
fn compressed_frame_under_raw_session_is_rejected() {
    let (_text, _vocab, config, base) = setup();
    let server = make_server(&config, &base);
    let mut srv = server.lock().unwrap();
    let c = ClientId(0);
    assert_eq!(
        ready_codec(srv.handle(connect(c, &config, 0)).expect("connect")),
        Codec::F32Raw
    );
    let x = Tensor::full(0.1, [2, 16, config.hidden]);
    let mut f16 = TensorCodec::new(Codec::F16);
    let err = srv
        .handle(ClientMessage::Activations {
            client: c,
            frame: f16.encode(ROLE_ACTIVATIONS, &x),
        })
        .unwrap_err();
    assert!(
        matches!(err, ProtocolError::Wire(WireError::Malformed(_))),
        "{err}"
    );
    // The rejection is stateless: a raw frame still trains.
    let mut raw = TensorCodec::new(Codec::F32Raw);
    assert!(srv
        .handle(ClientMessage::Activations {
            client: c,
            frame: raw.encode(ROLE_ACTIVATIONS, &x),
        })
        .is_ok());
}

// ---------------------------------------------------------------------
// End-to-end training per codec, and the lossless bit-identity claims.
// ---------------------------------------------------------------------

/// Every codec negotiates over a real transport and trains to a finite
/// curve; the Ready echo is what the client actually adopts.
#[test]
fn every_codec_negotiates_and_trains_over_the_wire() {
    let (text, _vocab, config, base) = setup();
    for codec in [Codec::F32Raw, Codec::F16, Codec::BF16, Codec::TopK8] {
        let mut client = make_client(0, &text, &config, &base);
        client.set_advertised_codecs(codec.flag());
        let curve = train_over_channel(&mut client, make_server(&config, &base), 3);
        assert_eq!(
            client.codec(),
            codec,
            "Ready echo must match the advertised codec"
        );
        assert_eq!(curve.points().len(), 3);
        assert!(
            curve.points().iter().all(|(_, l)| l.is_finite()),
            "{codec} produced a non-finite loss"
        );
    }
}

/// The two lossless paths — a v1.2 client advertising only raw, and a
/// v1.1 client advertising nothing — are bit-identical to each other
/// and to the in-process driver (the pre-v1.2 baseline semantics).
#[test]
fn raw_and_v11_fallback_are_bit_identical() {
    let (text, _vocab, config, base) = setup();
    const STEPS: usize = 4;
    let bits = |curve: &LossCurve| -> Vec<u32> {
        curve.points().iter().map(|&(_, l)| l.to_bits()).collect()
    };

    // v1.1 peer: advertises nothing, Connect is byte-identical to v1.1.
    let mut v11 = make_client(0, &text, &config, &base);
    assert_eq!(v11.advertised_codecs(), 0);
    let v11_curve = train_over_channel(&mut v11, make_server(&config, &base), STEPS);

    // v1.2 peer that only offers the raw baseline.
    let mut raw = make_client(0, &text, &config, &base);
    raw.set_advertised_codecs(Codec::F32Raw.flag());
    let raw_curve = train_over_channel(&mut raw, make_server(&config, &base), STEPS);
    assert_eq!(raw.codec(), Codec::F32Raw);

    assert_eq!(
        bits(&v11_curve),
        bits(&raw_curve),
        "raw negotiation must be lossless"
    );
}

// ---------------------------------------------------------------------
// Residuals ride server snapshots (DESIGN.md §4.12).
// ---------------------------------------------------------------------

fn topk_session(
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
    ft: &FineTuneConfig,
) -> ServerSession {
    let view = base.lock().unwrap().shared_view(false);
    let mut session = ServerSession::new(
        ClientId(0),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        ft,
        SEED,
    );
    session.set_codec(Codec::TopK8);
    session
}

/// A lossy session restored from a snapshot continues the exact
/// trajectory of an uninterrupted run: the error-feedback residuals are
/// part of the snapshot, so the kill/restore is invisible in the loss
/// bits. Zeroing the residuals instead (what a codec-unaware snapshot
/// would do) visibly changes the trajectory — the control that proves
/// the assertion has teeth.
#[test]
fn lossy_residuals_survive_snapshot_restore_bit_identically() {
    let (text, _vocab, config, base) = setup();
    const BEFORE: usize = 3;
    const AFTER: usize = 3;
    let ft = {
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = 2;
        ft.seq_len = 16;
        ft
    };
    let losses = |curve: &LossCurve| -> Vec<u32> {
        curve.points().iter().map(|&(_, l)| l.to_bits()).collect()
    };

    // Uninterrupted lossy baseline.
    let mut client = make_client(0, &text, &config, &base);
    client.adopt_codec(Codec::TopK8);
    let mut session = topk_session(&config, &base, &ft);
    let full_a = run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        BEFORE,
    );
    let full_b = run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        AFTER,
    );

    // Same run, but the server dies after BEFORE steps and is rebuilt
    // from its snapshot (the client survives, as in a real deployment
    // where only the server restarts).
    let mut client = make_client(0, &text, &config, &base);
    client.adopt_codec(Codec::TopK8);
    let mut session = topk_session(&config, &base, &ft);
    let cut_a = run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        BEFORE,
    );
    let state = session.to_state();
    drop(session);
    let view = base.lock().unwrap().shared_view(false);
    let mut restored = ServerSession::from_state(CausalLm::bind(&config, &view), &state)
        .expect("snapshot restores");
    assert_eq!(
        restored.codec().codec(),
        Codec::TopK8,
        "codec must ride the snapshot"
    );
    let cut_b = run_split_steps(
        &mut client,
        &mut restored,
        ForwardMode::NoGradReforward,
        AFTER,
    );

    assert_eq!(
        losses(&full_a),
        losses(&cut_a),
        "pre-kill prefix must match"
    );
    assert_eq!(
        losses(&full_b),
        losses(&cut_b),
        "restored residuals must continue the exact lossy trajectory"
    );

    // Control: restoring with zeroed residuals silently changes the
    // trajectory — exactly the failure mode snapshotting prevents.
    let mut client = make_client(0, &text, &config, &base);
    client.adopt_codec(Codec::TopK8);
    let mut session = topk_session(&config, &base, &ft);
    let _ = run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        BEFORE,
    );
    let state = session.to_state();
    let view = base.lock().unwrap().shared_view(false);
    let mut zeroed = ServerSession::from_state(CausalLm::bind(&config, &view), &state)
        .expect("snapshot restores");
    // set_codec resets the residual accumulators on a codec change.
    zeroed.set_codec(Codec::F32Raw);
    zeroed.set_codec(Codec::TopK8);
    let zeroed_b = run_split_steps(
        &mut client,
        &mut zeroed,
        ForwardMode::NoGradReforward,
        AFTER,
    );
    assert_ne!(
        losses(&full_b),
        losses(&zeroed_b),
        "zeroed residuals should visibly diverge — otherwise this test proves nothing"
    );
}
