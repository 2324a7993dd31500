//! Robustness of the TCP transport: malformed peers and abrupt
//! disconnects must not poison the server or other clients, and a
//! failed connection must reclaim its session memory.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{
    run_tcp_client, ClientId, EventLoopOptions, ForwardMode, RetryPolicy, SplitClient, SplitSpec,
    TcpEventServer, TcpOptions,
};

fn setup() -> (
    String,
    Vocab,
    ModelConfig,
    Arc<Mutex<menos::tensor::ParamStore>>,
) {
    let text = wiki_corpus(55, 12_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_opt(vocab.size());
    let mut rng = seeded_rng(55, "tcp-robust");
    let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));
    (text, vocab, config, base)
}

fn spawn_server(
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
    seed: u64,
    mode: ForwardMode,
    clients: usize,
) -> TcpEventServer<MenosServer> {
    let view = base.lock().unwrap().shared_view(false);
    let mut srv = MenosServer::from_store(
        config.clone(),
        view,
        ServerSpec::v100(ServerMode::menos()),
        seed,
    );
    srv.set_forward_mode(mode);
    let options = EventLoopOptions {
        accept_limit: clients,
        ..EventLoopOptions::default()
    };
    TcpEventServer::spawn("127.0.0.1:0", srv, options, TcpOptions::default()).expect("bind")
}

/// Waits for the server to serve its accept budget and returns the
/// sessions it still holds.
fn finish(server: TcpEventServer<MenosServer>) -> usize {
    let (srv, _stats) = server.join().expect("loop finished");
    srv.active_clients()
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

#[test]
fn garbage_peer_does_not_poison_healthy_clients() {
    let (text, _vocab, config, base) = setup();
    // Serve three connections: one garbage, two healthy.
    let server = spawn_server(&config, &base, 700, ForwardMode::NoGradReforward, 3);
    let addr = server.addr();

    // Garbage peer: random bytes (not even a valid frame header), then
    // abrupt close. Its connection must fail in isolation.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&[0xFF; 64]).expect("write garbage");
        // Dropped here: abrupt disconnect.
    }

    // Healthy clients still train fine afterwards.
    let mut handles = Vec::new();
    for k in 0..2u64 {
        let text = text.clone();
        let config = config.clone();
        let base = base.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = make_client(k, &text, &config, &base);
            run_tcp_client(addr, &mut client, 4, &RetryPolicy::none()).expect("healthy client")
        }));
    }
    for h in handles {
        let curve = h.join().expect("thread");
        assert_eq!(curve.points().len(), 4);
    }
    // Every session — including any the garbage peer might have opened —
    // is reclaimed.
    assert_eq!(finish(server), 0);
}

#[test]
fn mid_session_disconnect_is_contained() {
    let (text, _vocab, config, base) = setup();
    let server = spawn_server(&config, &base, 701, ForwardMode::Cached, 2);
    let addr = server.addr();

    // First peer: a syntactically plausible-looking stream that is not
    // a valid frame (wrong magic), then vanishes. The server closes
    // the connection instead of hanging.
    {
        use std::io::Read;
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&[3u8]).expect("type");
        s.write_all(&8u64.to_le_bytes()).expect("len");
        s.write_all(&[0u8; 8]).expect("payload");
        // The server rejects (bad frame) and closes; our read sees EOF
        // rather than a hang.
        let mut buf = [0u8; 1];
        let _ = s.read(&mut buf);
    }

    // The remaining slot still serves a real client.
    let mut client = make_client(1, &text, &config, &base);
    let curve =
        run_tcp_client(addr, &mut client, 3, &RetryPolicy::none()).expect("client after bad peer");
    assert_eq!(curve.points().len(), 3);
    assert_eq!(finish(server), 0);
}

#[test]
fn clients_with_different_configs_share_one_server() {
    let (text, _vocab, config, base) = setup();
    let server = spawn_server(&config, &base, 702, ForwardMode::NoGradReforward, 2);
    let addr = server.addr();

    let mut handles = Vec::new();
    for (k, (batch, rank)) in [(2usize, 4usize), (4, 8)].into_iter().enumerate() {
        let text = text.clone();
        let config = config.clone();
        let base = base.clone();
        handles.push(std::thread::spawn(move || {
            let vocab = Vocab::from_text(&text);
            let mut ft = FineTuneConfig::paper(&config);
            ft.batch_size = batch;
            ft.seq_len = 16;
            if let menos::adapters::AdapterKind::Lora { spec, .. } = &mut ft.adapter {
                spec.rank = rank;
            }
            let ds = TokenDataset::new(vocab.encode(&text), 16, k as u64);
            let view = base.lock().unwrap().shared_view(false);
            let mut client = SplitClient::new(
                ClientId(k as u64),
                CausalLm::bind(&config, &view),
                SplitSpec::paper(),
                ft,
                ds,
                k as u64,
            );
            run_tcp_client(addr, &mut client, 3, &RetryPolicy::none())
                .expect("heterogeneous client")
        }));
    }
    for h in handles {
        assert_eq!(h.join().expect("thread").points().len(), 3);
    }
    assert_eq!(finish(server), 0);
}
