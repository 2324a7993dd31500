//! Deployment demo: split fine-tuning over **real TCP sockets** —
//! the full Menos server façade behind the event-loop TCP server,
//! three clients connecting over loopback, each training against the
//! shared base model.
//!
//! The same protocol runs geo-distributed in the paper; here the wire
//! is localhost, but every byte crosses an actual socket through the
//! unified frame codec, and the event loop pumps the same
//! `MenosServer` state machine the in-memory transports drive.
//!
//! ```bash
//! cargo run --example tcp_demo --release
//! ```

use std::sync::{Arc, Mutex};

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{
    run_tcp_client, ClientId, EventLoopOptions, RetryPolicy, SplitClient, SplitSpec,
    TcpEventServer, TcpOptions,
};

fn main() {
    let text = wiki_corpus(77, 20_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_llama(vocab.size());
    let mut rng = seeded_rng(77, "tcp-demo");
    let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));

    const CLIENTS: usize = 3;
    // The server shares the exact in-process base the clients bind to
    // (a provider would distribute the client sections instead).
    let menos_server = MenosServer::from_store(
        config.clone(),
        base.lock().unwrap().shared_view(false),
        ServerSpec::v100(ServerMode::menos()),
        9000,
    );
    let options = EventLoopOptions {
        accept_limit: CLIENTS,
        ..EventLoopOptions::default()
    };
    let server = TcpEventServer::spawn("127.0.0.1:0", menos_server, options, TcpOptions::default())
        .expect("bind server");
    let addr = server.addr();
    println!("Menos TCP server listening on {addr} (Menos policy: no-grad + re-forward)\n");

    let mut handles = Vec::new();
    for k in 0..CLIENTS as u64 {
        let text = text.clone();
        let config = config.clone();
        let base = base.clone();
        handles.push(std::thread::spawn(move || {
            let vocab = Vocab::from_text(&text);
            let mut ft = FineTuneConfig::paper(&config);
            ft.batch_size = 2;
            ft.seq_len = 24;
            let ds = TokenDataset::new(vocab.encode(&text), 24, k);
            let view = base.lock().unwrap().shared_view(false);
            let mut client = SplitClient::new(
                ClientId(k),
                CausalLm::bind(&config, &view),
                SplitSpec::paper(),
                ft,
                ds,
                k,
            );
            let curve = run_tcp_client(addr, &mut client, 12, &RetryPolicy::none())
                .expect("training over TCP");
            (k, curve)
        }));
    }

    for h in handles {
        let (k, curve) = h.join().expect("client thread");
        println!(
            "client-{k}: loss {:.3} -> {:.3} over {} steps (all bytes via TCP)",
            curve.points()[0].1,
            curve.final_loss().unwrap(),
            curve.points().len()
        );
    }
    let (menos_server, _) = server.join().expect("server loop");
    let sessions_left = menos_server.active_clients();
    println!("\nsessions still held after disconnects: {sessions_left} (memory reclaimed)");
    println!("tcp demo OK — the protocol is transport-agnostic: the paper-scale");
    println!("experiments swap this socket for the simulated geo-distributed WAN.");
}
