//! The acceptance harness of the unified transport stack: every
//! transport moves the same codec bytes through the same event loop
//! and state machine, so (a) training is byte-identical across
//! transports — and to `run_split_steps`, the in-process oracle — and
//! (b) injected faults cost only the faulty connection: its session is
//! reclaimed and other clients keep training.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::net::WanLink;
use menos::sim::seeded_rng;
use menos::split::{
    drive_client, event_channel_listener, event_sim_listener, run_split_steps, run_tcp_client,
    ChannelDialer, ChannelTransport, ChaosListener, ChaosOptions, ClientId, ClientMessage,
    EventLoopOptions, EventLoopStats, Fault, ForwardMode, ProtocolError, RetryPolicy,
    ServerEventLoop, ServerMessage, ServerSession, SimDialer, SplitClient, SplitSpec,
    TcpEventServer, TcpOptions, Transport,
};

const SEED: u64 = 4100;

fn setup() -> (
    String,
    Vocab,
    ModelConfig,
    Arc<Mutex<menos::tensor::ParamStore>>,
) {
    let text = wiki_corpus(41, 12_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_opt(vocab.size());
    let mut rng = seeded_rng(41, "transport-unification");
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

fn fine_tune(config: &ModelConfig) -> FineTuneConfig {
    let mut ft = FineTuneConfig::paper(config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    ft
}

fn make_client(
    k: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> SplitClient {
    let vocab = Vocab::from_text(text);
    let ds = TokenDataset::new(vocab.encode(text), 16, k);
    let view = base.lock().unwrap().shared_view(false);
    SplitClient::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        fine_tune(config),
        ds,
        k,
    )
}

fn connect_msg(client: &SplitClient) -> ClientMessage {
    ClientMessage::Connect {
        client: client.id(),
        ft: client.ft_config().clone(),
        split: client.split(),
        epoch: 1,
        codecs: 0,
    }
}

type CurveBits = Vec<(usize, u32)>;

fn bits(curve: &LossCurve) -> CurveBits {
    curve
        .points()
        .iter()
        .map(|&(s, l)| (s, l.to_bits()))
        .collect()
}

/// Client `k`'s curve from `run_split_steps` against a bare session
/// seeded exactly as `MenosServer` seeds it — the in-process oracle
/// every served curve must match bit for bit.
fn oracle(
    k: u64,
    steps: usize,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> CurveBits {
    let mut client = make_client(k, text, config, base);
    let view = base.lock().unwrap().shared_view(false);
    let mut session = ServerSession::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        &fine_tune(config),
        SEED.wrapping_add(k),
    );
    bits(&run_split_steps(
        &mut client,
        &mut session,
        ForwardMode::NoGradReforward,
        steps,
    ))
}

/// The transports an event loop can serve.
#[derive(Clone, Copy, Debug)]
enum Wire {
    Channel,
    Sim,
    Tcp,
}

/// A client's way to reach a running loop.
#[derive(Clone)]
enum Dial {
    Channel(ChannelDialer),
    Sim(SimDialer),
    Tcp(SocketAddr),
}

impl Dial {
    /// Trains `steps` steps over a fresh connection, no retries.
    fn train(&self, client: &mut SplitClient, steps: usize) -> CurveBits {
        let none = RetryPolicy::none();
        let k = client.id().0;
        let curve = match self {
            Dial::Channel(d) => drive_client(client, |_| d.dial(), steps, &none),
            // Heterogeneous per-client links: same bytes, different
            // virtual transfer times.
            Dial::Sim(d) => drive_client(
                client,
                |_| d.dial(WanLink::lan(7 + k), WanLink::lan(100 + k)),
                steps,
                &none,
            ),
            Dial::Tcp(addr) => run_tcp_client(*addr, client, steps, &none),
        };
        bits(&curve.expect("event-loop training"))
    }
}

type LoopThread = JoinHandle<(Arc<Mutex<MenosServer>>, EventLoopStats)>;

/// Starts an event loop over `handler` on `wire`, accepting `accept`
/// connections.
fn serve(wire: Wire, handler: &Arc<Mutex<MenosServer>>, accept: usize) -> (Dial, LoopThread) {
    let options = EventLoopOptions {
        accept_limit: accept,
        ..EventLoopOptions::default()
    };
    let handler = handler.clone();
    match wire {
        Wire::Channel => {
            let (dialer, listener) = event_channel_listener();
            let event_loop = ServerEventLoop::new(listener, handler, options);
            (
                Dial::Channel(dialer),
                std::thread::spawn(move || event_loop.run()),
            )
        }
        Wire::Sim => {
            let (dialer, listener) = event_sim_listener();
            let event_loop = ServerEventLoop::new(listener, handler, options);
            (
                Dial::Sim(dialer),
                std::thread::spawn(move || event_loop.run()),
            )
        }
        Wire::Tcp => {
            let server =
                TcpEventServer::spawn("127.0.0.1:0", handler, options, TcpOptions::default())
                    .expect("bind");
            (
                Dial::Tcp(server.addr()),
                std::thread::spawn(move || server.join().expect("loop finished")),
            )
        }
    }
}

/// Trains clients `0..n` concurrently against one fresh server on
/// `wire`, returning per-client curves and the loop's counters.
fn event_loop_fleet(
    wire: Wire,
    n: u64,
    steps: usize,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> (Vec<CurveBits>, EventLoopStats) {
    let handler = make_server(config, base);
    let (dial, loop_thread) = serve(wire, &handler, n as usize);
    let drivers: Vec<_> = (0..n)
        .map(|k| {
            let mut client = make_client(k, text, config, base);
            let dial = dial.clone();
            std::thread::spawn(move || dial.train(&mut client, steps))
        })
        .collect();
    let curves = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    let (_h, stats) = loop_thread.join().expect("loop thread");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
    (curves, stats)
}

#[test]
fn same_messages_give_byte_identical_curves_on_every_transport() {
    let (text, _vocab, config, base) = setup();
    const STEPS: usize = 4;
    // Same client, same server seed, same bytes on the wire → the same
    // floats as the in-process oracle, whatever carries the bytes.
    let want = vec![oracle(0, STEPS, &text, &config, &base)];
    assert_eq!(want[0].len(), STEPS);
    for wire in [Wire::Channel, Wire::Tcp, Wire::Sim] {
        let (curves, _) = event_loop_fleet(wire, 1, STEPS, &text, &config, &base);
        assert_eq!(curves, want, "{wire:?} diverged from run_split_steps");
    }
}

#[test]
fn event_loop_curves_are_bit_identical_to_run_split_steps_on_all_transports() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 4;
    const STEPS: usize = 3;

    let reference: Vec<CurveBits> = (0..N)
        .map(|k| oracle(k, STEPS, &text, &config, &base))
        .collect();
    for wire in [Wire::Channel, Wire::Sim, Wire::Tcp] {
        let (curves, stats) = event_loop_fleet(wire, N, STEPS, &text, &config, &base);
        assert_eq!(curves, reference, "{wire:?} event loop diverged");
        assert_eq!(stats.accepted, N);
        assert_eq!(stats.served, N);
        assert_eq!(stats.conn_errors, 0);
        assert_eq!(stats.batched_messages, N * STEPS as u64 * 2);
    }
}

/// Serves one connection on a fresh event loop over `handler`, with
/// `fault` dealt to it by the chaos injector (`None` runs it clean),
/// while `script` plays the client. Returns the loop's counters.
fn serve_one_scripted(
    handler: &Arc<Mutex<MenosServer>>,
    fault: Option<Fault>,
    script: impl FnOnce(ChannelTransport<ClientMessage, ServerMessage>),
) -> EventLoopStats {
    let (dialer, listener) = event_channel_listener();
    let listener = match fault {
        Some(fault) => ChaosListener::with_forced_fault(listener, ChaosOptions::default(), fault),
        None => ChaosListener::new(
            listener,
            ChaosOptions {
                max_faulted_incarnations: 0,
                ..ChaosOptions::default()
            },
        ),
    };
    let event_loop = ServerEventLoop::new(
        listener,
        handler.clone(),
        EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        },
    );
    let loop_thread = std::thread::spawn(move || event_loop.run());
    script(dialer.dial().expect("dial"));
    loop_thread.join().expect("loop thread").1
}

/// Sends `Connect` and expects `Ready`.
fn handshake(t: &mut ChannelTransport<ClientMessage, ServerMessage>, client: &SplitClient) {
    t.send(&connect_msg(client)).expect("connect");
    assert!(matches!(t.recv(), Ok(ServerMessage::Ready { .. })));
}

fn zeros_frame() -> bytes::Bytes {
    menos::net::encode_tensor(&menos::tensor::Tensor::zeros([2, 16, 64]))
}

#[test]
fn injected_faults_surface_typed_errors_and_reclaim_sessions() {
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);
    let victim = make_client(7, &text, &config, &base);
    let activations = ClientMessage::Activations {
        client: ClientId(7),
        frame: zeros_frame(),
    };
    let dropped = |t: &mut ChannelTransport<ClientMessage, ServerMessage>| {
        let err = t.recv().expect_err("the server must drop the connection");
        assert!(matches!(err, ProtocolError::Disconnected), "{err}");
    };

    // A corrupt tensor frame after a successful connect: decoding
    // fails, the connection is dropped, nothing is trained on.
    let stats = serve_one_scripted(&handler, Some(Fault::CorruptBody(1)), |mut t| {
        handshake(&mut t, &victim);
        t.send(&activations).expect("activations");
        dropped(&mut t);
    });
    assert_eq!((stats.conn_errors, stats.served), (1, 0));
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Out-of-order message: gradients before any forward.
    let stats = serve_one_scripted(&handler, None, |mut t| {
        handshake(&mut t, &victim);
        t.send(&ClientMessage::Gradients {
            client: ClientId(7),
            frame: zeros_frame(),
        })
        .expect("gradients");
        dropped(&mut t);
    });
    assert_eq!((stats.conn_errors, stats.served), (1, 0));
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Mid-step hang-up: the read path dies right after the step's
    // first message, which is purged undispatched.
    let stats = serve_one_scripted(&handler, Some(Fault::KillRecvAfter(1)), |mut t| {
        handshake(&mut t, &victim);
        t.send(&activations).expect("activations");
        dropped(&mut t);
    });
    assert_eq!((stats.conn_errors, stats.batches), (1, 0));
    assert_eq!(handler.lock().unwrap().active_clients(), 0);

    // Hostile oversize length declaration on a real socket: rejected
    // from the header alone, connection closed, session reclaimed.
    {
        use std::io::{Read, Write};
        let server = TcpEventServer::spawn(
            "127.0.0.1:0",
            handler.clone(),
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
            TcpOptions::default(),
        )
        .expect("bind");
        let mut socket = std::net::TcpStream::connect(server.addr()).expect("connect");
        let connect = menos::split::encode_client_message(&connect_msg(&victim));
        socket.write_all(&connect).expect("connect frame");
        socket
            .write_all(&menos::net::encode_frame_header(2, 0, u32::MAX))
            .expect("hostile header");
        let mut replies = Vec::new();
        socket.read_to_end(&mut replies).expect("read until close");
        let (_h, stats) = server.join().expect("loop finished");
        assert_eq!(stats.conn_errors, 1);
        assert_eq!(handler.lock().unwrap().active_clients(), 0);
    }

    // Through all that abuse, an unrelated client still trains on the
    // same server instance — bit-identically to the oracle.
    let (dial, loop_thread) = serve(Wire::Channel, &handler, 1);
    let mut healthy = make_client(1, &text, &config, &base);
    assert_eq!(
        dial.train(&mut healthy, 3),
        oracle(1, 3, &text, &config, &base)
    );
    loop_thread.join().expect("loop thread");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
}

/// The deterministic core of the bit-identity claim, with no thread
/// timing involved: feeding `handle_batch` all clients' messages at
/// once must produce byte-identical reply frames to dispatching each
/// client alone through `handle`.
#[test]
fn stacked_handle_batch_replies_are_byte_identical_to_solo_dispatch() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 3;
    const STEPS: usize = 2;

    let solo = make_server(&config, &base);
    let batched = make_server(&config, &base);
    let mut solo_clients: Vec<SplitClient> = (0..N)
        .map(|k| make_client(k, &text, &config, &base))
        .collect();
    let mut batch_clients: Vec<SplitClient> = (0..N)
        .map(|k| make_client(k, &text, &config, &base))
        .collect();

    for client in &solo_clients {
        solo.lock().unwrap().handle(connect_msg(client)).unwrap();
    }
    for client in &batch_clients {
        batched.lock().unwrap().handle(connect_msg(client)).unwrap();
    }

    let tensor_frame = |reply: &ServerMessage| -> bytes::Bytes {
        match reply {
            ServerMessage::ServerActivations { frame, .. }
            | ServerMessage::ServerGradients { frame, .. } => frame.clone(),
            other => panic!("unexpected reply {other:?}"),
        }
    };

    for _ in 0..STEPS {
        // Forward: solo one at a time, batched all at once.
        let mut solo_xs = Vec::new();
        for client in &mut solo_clients {
            let x_c = client.start_step();
            let reply = solo
                .lock()
                .unwrap()
                .handle(ClientMessage::Activations {
                    client: client.id(),
                    frame: menos::net::encode_tensor(&x_c),
                })
                .unwrap()
                .unwrap();
            solo_xs.push(tensor_frame(&reply));
        }
        let batch_msgs: Vec<ClientMessage> = batch_clients
            .iter_mut()
            .map(|client| ClientMessage::Activations {
                client: client.id(),
                frame: menos::net::encode_tensor(&client.start_step()),
            })
            .collect();
        let mut replies = batched.lock().unwrap().handle_batch(batch_msgs);
        replies.sort_by_key(|(client, _)| *client);
        let batch_xs: Vec<bytes::Bytes> = replies
            .iter()
            .map(|(_, r)| tensor_frame(r.as_ref().unwrap().as_ref().unwrap()))
            .collect();
        assert_eq!(solo_xs, batch_xs, "stacked forward diverged");

        // Backward: gradients computed by bit-identical clients.
        let mut solo_gs = Vec::new();
        for (client, x_frame) in solo_clients.iter_mut().zip(&solo_xs) {
            let x_s = menos::net::decode_tensor(x_frame).unwrap();
            let (_loss, g_c) = client.receive_server_activations(&x_s);
            let reply = solo
                .lock()
                .unwrap()
                .handle(ClientMessage::Gradients {
                    client: client.id(),
                    frame: menos::net::encode_tensor(&g_c),
                })
                .unwrap()
                .unwrap();
            solo_gs.push(tensor_frame(&reply));
        }
        let batch_msgs: Vec<ClientMessage> = batch_clients
            .iter_mut()
            .zip(&batch_xs)
            .map(|(client, x_frame)| {
                let x_s = menos::net::decode_tensor(x_frame).unwrap();
                let (_loss, g_c) = client.receive_server_activations(&x_s);
                ClientMessage::Gradients {
                    client: client.id(),
                    frame: menos::net::encode_tensor(&g_c),
                }
            })
            .collect();
        let mut replies = batched.lock().unwrap().handle_batch(batch_msgs);
        replies.sort_by_key(|(client, _)| *client);
        let batch_gs: Vec<bytes::Bytes> = replies
            .iter()
            .map(|(_, r)| tensor_frame(r.as_ref().unwrap().as_ref().unwrap()))
            .collect();
        assert_eq!(solo_gs, batch_gs, "stacked backward diverged");

        for (client, g_frame) in solo_clients.iter_mut().zip(&solo_gs) {
            client.receive_server_gradients(&menos::net::decode_tensor(g_frame).unwrap());
        }
        for (client, g_frame) in batch_clients.iter_mut().zip(&batch_gs) {
            client.receive_server_gradients(&menos::net::decode_tensor(g_frame).unwrap());
        }
    }

    // Final sanity: the loss curves of both fleets agree bit-for-bit.
    for (a, b) in solo_clients.iter().zip(&batch_clients) {
        assert_eq!(bits(a.curve()), bits(b.curve()));
    }
}

#[test]
fn one_event_loop_thread_drives_32_concurrent_clients() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 32;
    const STEPS: usize = 2;

    let (curves, stats) = event_loop_fleet(Wire::Channel, N, STEPS, &text, &config, &base);
    assert_eq!(curves.len(), N as usize);
    for curve in &curves {
        assert_eq!(curve.len(), STEPS, "every client finishes training");
    }
    assert_eq!(stats.accepted, N);
    assert_eq!(stats.served, N);
    assert_eq!(stats.conn_errors, 0);
    assert_eq!(stats.batched_messages, N * STEPS as u64 * 2);
    // The whole point of the event loop: with 32 clients hammering one
    // thread, ready sets pile up while the handler computes, so
    // dispatches genuinely batch instead of degenerating to one
    // message each.
    assert!(stats.max_batch >= 2, "no batching happened: {stats:?}");
    assert!(
        stats.batches < stats.batched_messages,
        "every dispatch was a singleton: {stats:?}"
    );
}

/// Batched-step isolation: a client that dies mid-batch — after its
/// activations joined a 32-wide stacked forward but before it sent
/// gradients — is excised without perturbing the 31 survivors. Their
/// reply frames stay byte-identical to solo dispatch, the dead session
/// is quarantined (not leaked), and its Alg. 2 pool reservation is
/// reclaimed once the quarantine expires.
#[test]
fn mid_batch_disconnect_excises_one_client_and_leaves_31_peers_bit_identical() {
    let (text, _vocab, config, base) = setup();
    const N: u64 = 32;
    const VICTIM: ClientId = ClientId(13);

    let solo = make_server(&config, &base);
    let batched = make_server(&config, &base);
    let mut solo_clients: Vec<SplitClient> = (0..N)
        .map(|k| make_client(k, &text, &config, &base))
        .collect();
    let mut batch_clients: Vec<SplitClient> = (0..N)
        .map(|k| make_client(k, &text, &config, &base))
        .collect();
    for client in &solo_clients {
        solo.lock().unwrap().handle(connect_msg(client)).unwrap();
    }
    for client in &batch_clients {
        batched.lock().unwrap().handle(connect_msg(client)).unwrap();
    }
    let full_reservation = batched.lock().unwrap().reserved_bytes();
    assert!(full_reservation > 0, "connects reserve pool capacity");

    let tensor_frame = |reply: &ServerMessage| -> bytes::Bytes {
        match reply {
            ServerMessage::ServerActivations { frame, .. }
            | ServerMessage::ServerGradients { frame, .. } => frame.clone(),
            other => panic!("unexpected reply {other:?}"),
        }
    };

    // Solo reference: every client, including the future victim, runs
    // the full forward alone.
    let mut solo_xs = Vec::new();
    for client in &mut solo_clients {
        let x_c = client.start_step();
        let reply = solo
            .lock()
            .unwrap()
            .handle(ClientMessage::Activations {
                client: client.id(),
                frame: menos::net::encode_tensor(&x_c),
            })
            .unwrap()
            .unwrap();
        solo_xs.push(tensor_frame(&reply));
    }

    // Stacked forward with all 32 aboard.
    let batch_msgs: Vec<ClientMessage> = batch_clients
        .iter_mut()
        .map(|client| ClientMessage::Activations {
            client: client.id(),
            frame: menos::net::encode_tensor(&client.start_step()),
        })
        .collect();
    let mut replies = batched.lock().unwrap().handle_batch(batch_msgs);
    replies.sort_by_key(|(client, _)| *client);
    let batch_xs: Vec<bytes::Bytes> = replies
        .iter()
        .map(|(_, r)| tensor_frame(r.as_ref().unwrap().as_ref().unwrap()))
        .collect();
    assert_eq!(solo_xs, batch_xs, "stacked forward diverged");

    // The victim's connection dies between forward and backward — the
    // event loop reports it via `connection_lost`, which quarantines.
    {
        use menos::split::MessageHandler;
        batched.lock().unwrap().connection_lost(VICTIM);
    }
    assert_eq!(batched.lock().unwrap().active_clients(), N as usize - 1);
    assert_eq!(batched.lock().unwrap().quarantined_clients(), 1);
    assert_eq!(
        batched.lock().unwrap().reserved_bytes() + per_client_reservation(full_reservation, N),
        full_reservation,
        "the dead client's pool reservation is released on quarantine"
    );

    // Backward: solo reference for the 31 survivors...
    let mut solo_gs = Vec::new();
    for (client, x_frame) in solo_clients.iter_mut().zip(&solo_xs) {
        let x_s = menos::net::decode_tensor(x_frame).unwrap();
        let (_loss, g_c) = client.receive_server_activations(&x_s);
        if client.id() == VICTIM {
            continue;
        }
        let reply = solo
            .lock()
            .unwrap()
            .handle(ClientMessage::Gradients {
                client: client.id(),
                frame: menos::net::encode_tensor(&g_c),
            })
            .unwrap()
            .unwrap();
        solo_gs.push(tensor_frame(&reply));
    }

    // ...and a stacked backward that still contains the dead client's
    // in-flight gradients (they raced the hang-up). The batch must
    // excise the victim with a typed error and serve everyone else.
    let batch_msgs: Vec<ClientMessage> = batch_clients
        .iter_mut()
        .zip(&batch_xs)
        .map(|(client, x_frame)| {
            let x_s = menos::net::decode_tensor(x_frame).unwrap();
            let (_loss, g_c) = client.receive_server_activations(&x_s);
            ClientMessage::Gradients {
                client: client.id(),
                frame: menos::net::encode_tensor(&g_c),
            }
        })
        .collect();
    let mut replies = batched.lock().unwrap().handle_batch(batch_msgs);
    replies.sort_by_key(|(client, _)| *client);
    assert_eq!(replies.len(), N as usize);
    let mut batch_gs = Vec::new();
    for (client, reply) in &replies {
        if *client == VICTIM {
            assert!(
                reply.is_err(),
                "the quarantined member must be excised, got {reply:?}"
            );
        } else {
            batch_gs.push(tensor_frame(reply.as_ref().unwrap().as_ref().unwrap()));
        }
    }
    assert_eq!(solo_gs, batch_gs, "survivors' backward diverged");

    // Survivors finish cleanly; the victim's quarantine expires; every
    // reservation returns to the pool.
    for client in &batch_clients {
        if client.id() != VICTIM {
            batched
                .lock()
                .unwrap()
                .handle(ClientMessage::Disconnect {
                    client: client.id(),
                })
                .unwrap();
        }
    }
    let expired = batched
        .lock()
        .unwrap()
        .expire_idle(Duration::from_millis(0));
    assert_eq!(expired, vec![VICTIM]);
    assert_eq!(batched.lock().unwrap().active_clients(), 0);
    assert_eq!(batched.lock().unwrap().quarantined_clients(), 0);
    assert_eq!(batched.lock().unwrap().reserved_bytes(), 0);
}

/// All clients in these tests share one `FineTuneConfig`, so the pool
/// reservation divides evenly.
fn per_client_reservation(total: u64, n: u64) -> u64 {
    assert_eq!(total % n, 0, "equal configs must reserve equal shares");
    total / n
}

#[test]
fn faulty_client_does_not_stop_a_concurrent_one() {
    let (text, _vocab, config, base) = setup();
    let handler = make_server(&config, &base);
    let (dial, loop_thread) = serve(Wire::Channel, &handler, 2);
    let Dial::Channel(dialer) = dial.clone() else {
        unreachable!("a channel loop hands out channel dialers")
    };

    // Healthy client trains on its own thread...
    let mut healthy = make_client(2, &text, &config, &base);
    let healthy_thread = std::thread::spawn(move || dial.train(&mut healthy, 3));

    // ...while a faulty one connects and breaks mid-step on this one:
    // its activations carry a truncated tensor body.
    let faulty = make_client(3, &text, &config, &base);
    let mut t = dialer.dial().expect("dial");
    handshake(&mut t, &faulty);
    t.send(&ClientMessage::Activations {
        client: ClientId(3),
        frame: zeros_frame().slice(..20),
    })
    .expect("truncated activations");
    let err = t.recv().expect_err("the faulty connection is dropped");
    assert!(matches!(err, ProtocolError::Disconnected), "{err}");

    let curve = healthy_thread.join().expect("healthy thread");
    assert_eq!(curve, oracle(2, 3, &text, &config, &base));
    let (_h, stats) = loop_thread.join().expect("loop thread");
    assert_eq!((stats.served, stats.conn_errors), (1, 1));
    // The faulty session is reclaimed; the healthy one disconnected
    // cleanly — nothing leaks.
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
}
