//! The chaos soak: a fleet of clients trains through an event loop
//! whose connections inject scripted kills and delays, every client
//! reconnects with the v1.1 `Resume` handshake, and the acceptance bar
//! is *bit-identity* — each survivor's loss curve and final adapter
//! weights must equal a fault-free run of the same fleet, float for
//! float.
//!
//! The chaos script is deterministic from one seed (CI pins it via
//! `MENOS_CHAOS_SEED`; see `ChaosOptions::from_env`), so a failure
//! reproduces locally by exporting the same seed.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ProtocolError, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{
    drive_client, event_channel_listener, ChannelDialer, ChaosListener, ChaosOptions, ClientId,
    ClientMessage, EventLoopOptions, EventLoopStats, MessageHandler, RetryPolicy, ServerEventLoop,
    ServerMessage, SplitClient, SplitSpec, Transport,
};

/// Soak scale: 32 clients × 40 steps, the acceptance numbers.
const N: u64 = 32;
const STEPS: usize = 40;
const SEED: u64 = 4300;

/// A deliberately micro model: the soak's subject is the session
/// layer, not the math, and 32 clients × 40 steps × 2 runs must fit a
/// debug-profile CI budget. Determinism claims are size-independent.
fn micro_setup() -> (String, ModelConfig, Arc<Mutex<menos::tensor::ParamStore>>) {
    let text = wiki_corpus(43, 3_000);
    let vocab = Vocab::from_text(&text);
    let mut config = ModelConfig::tiny_opt(vocab.size());
    config.hidden = 32;
    config.layers = 2;
    config.heads = 2;
    config.intermediate = 64;
    let mut rng = seeded_rng(43, "chaos-soak");
    let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));
    (text, config, base)
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
    ft.batch_size = 1;
    ft.seq_len = 8;
    let ds = TokenDataset::new(vocab.encode(text), 8, k);
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

type CurveBits = Vec<(usize, u32)>;
/// Adapter weights as exact bit patterns, keyed and ordered by name.
type AdapterBits = Vec<(String, Vec<u32>)>;

fn curve_bits(curve: &LossCurve) -> CurveBits {
    curve
        .points()
        .iter()
        .map(|&(s, l)| (s, l.to_bits()))
        .collect()
}

fn adapter_bits(client: &SplitClient) -> AdapterBits {
    let mut out: AdapterBits = client
        .adapter_params()
        .iter()
        .map(|(name, t)| {
            (
                name.clone(),
                t.to_vec().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The fault-free reference: the same fleet, same seeds, no chaos, no
/// retries needed.
fn reference_fleet(
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> Vec<(CurveBits, AdapterBits)> {
    let handler = make_server(config, base);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        handler.clone(),
        EventLoopOptions {
            accept_limit: N as usize,
            ..EventLoopOptions::default()
        },
    );
    let loop_thread = std::thread::spawn(move || event_loop.run());
    let results = run_drivers(dialer, text, config, base, |client, dialer| {
        drive_client(client, |_| dialer.dial(), STEPS, &RetryPolicy::none())
            .expect("fault-free fleet")
    });
    loop_thread.join().expect("loop thread");
    assert_eq!(handler.lock().unwrap().active_clients(), 0);
    results
}

/// Spawns one driver thread per client and collects (curve, adapters)
/// in client order.
fn run_drivers<F>(
    dialer: ChannelDialer,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
    drive: F,
) -> Vec<(CurveBits, AdapterBits)>
where
    F: Fn(&mut SplitClient, &ChannelDialer) -> LossCurve + Send + Sync + 'static,
{
    let drive = Arc::new(drive);
    let mut drivers = Vec::new();
    for k in 0..N {
        let mut client = make_client(k, text, config, base);
        let dialer = dialer.clone();
        let drive = drive.clone();
        drivers.push(std::thread::spawn(move || {
            let curve = drive(&mut client, &dialer);
            (curve_bits(&curve), adapter_bits(&client))
        }));
    }
    drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect()
}

/// The tentpole assertion: N clients × K steps through scripted kills,
/// queue hangups, and reply delays; every client reconnects and
/// resumes; curves and final adapter weights are bit-identical to the
/// fault-free reference; nothing leaks.
#[test]
fn chaos_soak_is_bit_identical_to_a_fault_free_run() {
    let (text, config, base) = micro_setup();
    let reference = reference_fleet(&text, &config, &base);
    for (curve, _) in &reference {
        assert_eq!(curve.len(), STEPS);
    }

    let handler = make_server(&config, &base);
    let (dialer, listener) = event_channel_listener();
    let chaos = ChaosListener::new(listener, ChaosOptions::from_env());
    let event_loop = ServerEventLoop::new(
        chaos,
        handler.clone(),
        // Reconnects make the total connection count seed-dependent;
        // the shutdown flag, raised after every driver finishes, ends
        // the loop instead of an accept quota. The io_timeout arms the
        // only detector a `Partition` draw leaves working: the link
        // goes silent with no FIN, so the loop must evict on deadline
        // and the client must time out and resume.
        EventLoopOptions {
            io_timeout: Some(Duration::from_millis(400)),
            ..EventLoopOptions::default()
        },
    );
    let shutdown = event_loop.shutdown_handle();
    let loop_thread = std::thread::spawn(move || event_loop.run());

    let survivors = run_drivers(dialer, &text, &config, &base, |client, dialer| {
        let policy = RetryPolicy {
            retries: 8,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            seed: client.id().0,
        };
        drive_client(
            client,
            |_| {
                // The transport deadline is the client half of
                // partition detection: a blackholed reply must surface
                // as a retryable Timeout, never block forever.
                let mut t = dialer.dial()?;
                t.set_deadline(Some(Duration::from_secs(2)))?;
                Ok(t)
            },
            STEPS,
            &policy,
        )
        .expect("every client overcomes its fault budget")
    });
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    let (_h, stats): (_, EventLoopStats) = loop_thread.join().expect("loop thread");

    assert_eq!(survivors, reference, "chaos run diverged from fault-free");

    // The soak must actually have exercised the fault machinery: every
    // client's first incarnations draw a fault, and kills dominate the
    // plan space, so resumes are guaranteed at this fleet size.
    assert!(stats.resumed > 0, "no client ever resumed: {stats:?}");
    assert!(
        stats.conn_errors > 0,
        "no connection ever failed: {stats:?}"
    );

    // Nothing leaks: live sessions drained at disconnect, quarantined
    // ones (if any final-message race parked one) reaped by the TTL.
    let mut handler = handler.lock().unwrap();
    assert_eq!(handler.active_clients(), 0);
    handler.expire_idle(Duration::from_millis(0));
    assert_eq!(handler.quarantined_clients(), 0);
    assert_eq!(handler.reserved_bytes(), 0);
}

/// Kill-the-server chaos: a real `menos` server *process* is
/// SIGKILLed mid-run with durable snapshots on, restarted from the
/// latest snapshot, and every client re-attaches through the `Resume`
/// handshake — loss curves and final adapter weights bit-identical to
/// a fault-free run of the same fleet, across three model seeds.
#[cfg(unix)]
mod kill_the_server {
    use super::*;
    use std::io::BufRead;
    use std::net::SocketAddr;
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};
    use std::sync::RwLock;
    use std::time::Instant;

    use menos::core::ServerState;
    use menos::split::TcpTransport;

    /// Restart-soak scale: small enough for a debug CI budget, large
    /// enough that the kill always lands mid-training.
    const KILL_N: u64 = 4;
    const KILL_STEPS: usize = 60;

    /// A `menos server` subprocess with durable snapshots, plus what
    /// its startup banner reported.
    struct ServerProc {
        child: Child,
        addr: SocketAddr,
        restored: usize,
        /// Keeps the stdout pipe drained for the process's lifetime so
        /// late prints can never block (or break) the server.
        _drain: std::thread::JoinHandle<()>,
    }

    impl ServerProc {
        fn spawn(model_seed: u64, snap_dir: &Path) -> ServerProc {
            let mut child = Command::new(env!("CARGO_BIN_EXE_menos"))
                .args([
                    "server",
                    "--port",
                    "0",
                    "--micro-model",
                    "--max-clients",
                    "1024",
                    "--snapshot-every",
                    "0",
                    "--model-seed",
                    &model_seed.to_string(),
                ])
                .arg("--snapshot-dir")
                .arg(snap_dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn menos server");
            let stdout = child.stdout.take().expect("piped stdout");
            let mut reader = std::io::BufReader::new(stdout);
            let mut restored = 0usize;
            let mut line = String::new();
            let addr = loop {
                line.clear();
                if reader.read_line(&mut line).expect("server stdout") == 0 {
                    panic!("server exited before announcing its address");
                }
                if let Some(rest) = line.strip_prefix("restored ") {
                    restored = rest
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                        .expect("restored count");
                }
                if let Some(rest) = line.split("server on ").nth(1) {
                    let bound: SocketAddr = rest
                        .split_whitespace()
                        .next()
                        .and_then(|a| a.parse().ok())
                        .expect("bound address");
                    // The server binds 0.0.0.0; dial loopback.
                    break SocketAddr::from(([127, 0, 0, 1], bound.port()));
                }
            };
            let drain = std::thread::spawn(move || {
                let mut sink = String::new();
                while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                    sink.clear();
                }
            });
            ServerProc {
                child,
                addr,
                restored,
                _drain: drain,
            }
        }

        /// SIGKILL — no shutdown hook runs; recovery must come from
        /// the last durable snapshot alone.
        fn kill(mut self) {
            self.child.kill().expect("kill server");
            self.child.wait().expect("reap server");
        }
    }

    fn scratch_dir(model_seed: u64, label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "menos-kill-{model_seed}-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The fleet's shared setup, matching what the subprocess derives
    /// from `--micro-model --model-seed S`: same corpus, same config,
    /// and the same base parameters (`seeded_rng(S, "base-model")` is
    /// the registry's derivation).
    fn kill_setup(model_seed: u64) -> (String, ModelConfig, Arc<Mutex<menos::tensor::ParamStore>>) {
        let text = wiki_corpus(model_seed, 3_000);
        let vocab = Vocab::from_text(&text);
        let mut config = ModelConfig::tiny_opt(vocab.size());
        config.hidden = 32;
        config.layers = 2;
        config.heads = 2;
        config.intermediate = 64;
        let mut rng = seeded_rng(model_seed, "base-model");
        let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));
        (text, config, base)
    }

    /// Starts one resumable driver thread per client, each dialing
    /// whatever address the shared slot currently holds — after the
    /// restart the slot points at the new server and the retry loop's
    /// redial lands there.
    fn start_fleet(
        addr: &Arc<RwLock<SocketAddr>>,
        text: &str,
        config: &ModelConfig,
        base: &Arc<Mutex<menos::tensor::ParamStore>>,
    ) -> Vec<std::thread::JoinHandle<(CurveBits, AdapterBits)>> {
        (0..KILL_N)
            .map(|k| {
                let mut client = make_client(k, text, config, base);
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let policy = RetryPolicy {
                        retries: 60,
                        backoff: Duration::from_millis(25),
                        max_backoff: Duration::from_millis(200),
                        seed: client.id().0,
                    };
                    let curve = drive_client(
                        &mut client,
                        |_| TcpTransport::connect(*addr.read().unwrap()),
                        KILL_STEPS,
                        &policy,
                    )
                    .expect("client finishes across the restart");
                    (curve_bits(&curve), adapter_bits(&client))
                })
            })
            .collect()
    }

    fn join_fleet(
        fleet: Vec<std::thread::JoinHandle<(CurveBits, AdapterBits)>>,
    ) -> Vec<(CurveBits, AdapterBits)> {
        fleet
            .into_iter()
            .map(|d| d.join().expect("driver thread"))
            .collect()
    }

    /// Polls the durable snapshot until every client's session is in
    /// it — the signal that the whole fleet is connected and training,
    /// so a kill now lands mid-run for everyone. Reads race the
    /// atomic rename harmlessly: either complete file parses, and a
    /// torn read fails the CRC and is retried.
    fn wait_until_fleet_snapshotted(snap_dir: &Path) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(bytes) = std::fs::read(snap_dir.join("server.snap")) {
                if let Ok(state) = ServerState::from_bytes(&bytes) {
                    if state.sessions.len() >= KILL_N as usize {
                        return;
                    }
                }
            }
            assert!(
                Instant::now() < deadline,
                "fleet never appeared in the snapshot"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn sigkill_restart_is_bit_identical_to_a_fault_free_run() {
        for model_seed in [43u64, 44, 45] {
            let (text, config, base) = kill_setup(model_seed);

            // The fault-free reference: same fleet, same durable
            // snapshotting (persistence must not perturb training),
            // no kill.
            let ref_dir = scratch_dir(model_seed, "ref");
            let server = ServerProc::spawn(model_seed, &ref_dir);
            assert_eq!(server.restored, 0, "fresh dir restores nothing");
            let addr = Arc::new(RwLock::new(server.addr));
            let reference = join_fleet(start_fleet(&addr, &text, &config, &base));
            server.kill();
            for (curve, _) in &reference {
                assert_eq!(curve.len(), KILL_STEPS);
            }

            // The chaos run: SIGKILL once the whole fleet is mid-run,
            // restart from the snapshot, clients resume and finish.
            let dir = scratch_dir(model_seed, "kill");
            let first = ServerProc::spawn(model_seed, &dir);
            assert_eq!(first.restored, 0);
            let addr = Arc::new(RwLock::new(first.addr));
            let fleet = start_fleet(&addr, &text, &config, &base);
            wait_until_fleet_snapshotted(&dir);
            std::thread::sleep(Duration::from_millis(200));
            first.kill();
            let second = ServerProc::spawn(model_seed, &dir);
            assert_eq!(
                second.restored, KILL_N as usize,
                "every mid-run session restores from the snapshot (seed {model_seed})"
            );
            *addr.write().unwrap() = second.addr;
            let survivors = join_fleet(fleet);
            second.kill();

            assert_eq!(
                survivors, reference,
                "restart run diverged from fault-free (seed {model_seed})"
            );

            let _ = std::fs::remove_dir_all(&ref_dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The fault matrix, one kind at a time: every budgeted incarnation of
/// every client is dealt the *same* fault
/// (`ChaosListener::with_forced_fault`), so each kind's recovery path
/// is exercised in isolation instead of hoping the seeded plan covers
/// it. Latency faults must be absorbed with zero reconnects; lossy
/// faults must be rejected server-side (typed errors, sessions
/// quarantined) and healed through `Resume` — and either way the
/// curves and final adapter weights stay bit-identical to fault-free.
mod fault_matrix {
    use super::*;
    use menos::split::Fault;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Matrix scale: six kinds × (1 reference + 6 chaos runs) must fit
    /// a debug CI budget; the recovery machinery is scale-independent.
    const M: u64 = 4;
    const MSTEPS: usize = 10;

    fn matrix_run(
        text: &str,
        config: &ModelConfig,
        base: &Arc<Mutex<menos::tensor::ParamStore>>,
        fault: Option<Fault>,
        options: EventLoopOptions,
        deadline: Option<Duration>,
    ) -> (Vec<(CurveBits, AdapterBits)>, EventLoopStats) {
        let handler = make_server(config, base);
        let (dialer, listener) = event_channel_listener();
        let shutdown: Arc<AtomicBool>;
        let loop_thread = if let Some(fault) = fault {
            let chaos = ChaosListener::with_forced_fault(listener, ChaosOptions::default(), fault);
            let event_loop = ServerEventLoop::new(chaos, handler.clone(), options);
            shutdown = event_loop.shutdown_handle();
            std::thread::spawn(move || event_loop.run().1)
        } else {
            let event_loop = ServerEventLoop::new(listener, handler.clone(), options);
            shutdown = event_loop.shutdown_handle();
            std::thread::spawn(move || event_loop.run().1)
        };
        let mut drivers = Vec::new();
        for k in 0..M {
            let mut client = make_client(k, text, config, base);
            let dialer = dialer.clone();
            drivers.push(std::thread::spawn(move || {
                let policy = RetryPolicy {
                    retries: 8,
                    backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(20),
                    seed: client.id().0,
                };
                let curve = drive_client(
                    &mut client,
                    |_| {
                        let mut t = dialer.dial()?;
                        t.set_deadline(deadline)?;
                        Ok(t)
                    },
                    MSTEPS,
                    &policy,
                )
                .expect("every client overcomes a single forced fault kind");
                (curve_bits(&curve), adapter_bits(&client))
            }));
        }
        let results = drivers
            .into_iter()
            .map(|d| d.join().expect("driver thread"))
            .collect();
        shutdown.store(true, Ordering::Relaxed);
        let stats = loop_thread.join().expect("loop thread");
        (results, stats)
    }

    #[test]
    fn every_fault_kind_preserves_bit_identity() {
        let (text, config, base) = micro_setup();
        let (reference, _) = matrix_run(
            &text,
            &config,
            &base,
            None,
            EventLoopOptions::default(),
            None,
        );
        for (curve, _) in &reference {
            assert_eq!(curve.len(), MSTEPS);
        }
        let lossy = true; // the connection dies; recovery is a Resume
        let latency = false; // absorbed in place, no reconnect at all
        for (fault, kind) in [
            (Fault::KillRecvAfter(2), lossy),
            (Fault::KillQueueAfter(2), lossy),
            (Fault::HoldReplies(2), latency),
            (Fault::DelayFrames(2), latency),
            (Fault::DuplicateFrame(2), lossy),
            (Fault::CorruptBody(2), lossy),
        ] {
            let (survivors, stats) = matrix_run(
                &text,
                &config,
                &base,
                Some(fault),
                EventLoopOptions::default(),
                None,
            );
            assert_eq!(survivors, reference, "{fault:?} diverged from fault-free");
            if kind {
                assert!(
                    stats.conn_errors > 0,
                    "{fault:?} must be rejected server-side: {stats:?}"
                );
                assert!(
                    stats.resumed > 0,
                    "{fault:?} recovery must go through Resume: {stats:?}"
                );
            } else {
                assert_eq!(
                    stats.conn_errors, 0,
                    "{fault:?} is pure latency, no connection may fail: {stats:?}"
                );
                assert_eq!(
                    stats.resumed, 0,
                    "{fault:?} must be absorbed without a reconnect: {stats:?}"
                );
            }
        }
    }

    /// The partition fault in isolation: after the nth message the
    /// link goes silent with **no FIN in either direction**, so
    /// neither side ever sees a clean close. Recovery must run
    /// entirely on deadlines — the loop's `io_timeout` evicts the
    /// silent session into quarantine, and the client's transport
    /// deadline turns the blackholed reply into a retryable `Timeout`
    /// that redials and resumes. Bit-identity still holds, and the
    /// stats prove detection came from deadline expiry.
    #[test]
    fn partition_is_detected_by_deadline_expiry_not_clean_closes() {
        let (text, config, base) = micro_setup();
        let (reference, _) = matrix_run(
            &text,
            &config,
            &base,
            None,
            EventLoopOptions::default(),
            None,
        );
        for (curve, _) in &reference {
            assert_eq!(curve.len(), MSTEPS);
        }
        let (survivors, stats) = matrix_run(
            &text,
            &config,
            &base,
            Some(Fault::Partition(2)),
            EventLoopOptions {
                // Shorter than the client deadline below, so by the
                // time a partitioned client redials, its session is
                // already quarantined and the Resume lands first try.
                io_timeout: Some(Duration::from_millis(300)),
                ..EventLoopOptions::default()
            },
            Some(Duration::from_secs(1)),
        );
        assert_eq!(survivors, reference, "Partition diverged from fault-free");
        assert!(
            stats.evicted > 0,
            "detection must come from the io_timeout deadline: {stats:?}"
        );
        assert!(
            stats.resumed > 0,
            "recovery must go through Resume: {stats:?}"
        );
    }

    /// Snapshot-disk faults: an ENOSPC-style failure of the atomic
    /// snapshot write (injected by squatting a *directory* on the tmp
    /// path, which fails `File::create` even for root) must degrade
    /// durability only — training continues, `snapshot_errors` accrue,
    /// and the last good `server.snap` is byte-for-byte untouched. A
    /// torn tmp file left by a crash is likewise invisible to readers.
    #[test]
    fn snapshot_disk_faults_degrade_durability_not_service() {
        use menos::split::SnapshotPolicy;

        let dir = std::env::temp_dir().join(format!("menos-snapfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (text, config, base) = micro_setup();

        // Phase 1, healthy disk: one short run leaves a good snapshot.
        let handler = make_server(&config, &base);
        let (dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        )
        .with_snapshots(SnapshotPolicy::durable(&dir));
        let loop_thread = std::thread::spawn(move || event_loop.run().1);
        let mut client = make_client(0, &text, &config, &base);
        drive_client(&mut client, |_| dialer.dial(), 2, &RetryPolicy::none()).expect("healthy run");
        let stats = loop_thread.join().expect("loop thread");
        assert!(stats.snapshots > 0, "{stats:?}");
        assert_eq!(stats.snapshot_errors, 0, "{stats:?}");
        let last_good = SnapshotPolicy::read(&dir).expect("snapshot written");

        // Phase 2, disk fault: every atomic write now fails mid-flight.
        std::fs::create_dir_all(dir.join("server.snap.tmp")).expect("jam the tmp path");
        let handler = make_server(&config, &base);
        let (dialer, listener) = event_channel_listener();
        let event_loop = ServerEventLoop::new(
            listener,
            handler,
            EventLoopOptions {
                accept_limit: 1,
                ..EventLoopOptions::default()
            },
        )
        .with_snapshots(SnapshotPolicy::durable(&dir));
        let loop_thread = std::thread::spawn(move || event_loop.run().1);
        let mut client = make_client(0, &text, &config, &base);
        let curve = drive_client(&mut client, |_| dialer.dial(), 4, &RetryPolicy::none())
            .expect("training survives ENOSPC");
        assert_eq!(curve.points().len(), 4);
        let stats = loop_thread.join().expect("loop thread");
        assert_eq!(stats.snapshots, 0, "no write can succeed: {stats:?}");
        assert!(
            stats.snapshot_errors > 0,
            "faults must be counted: {stats:?}"
        );
        assert_eq!(
            SnapshotPolicy::read(&dir).expect("last good survives"),
            last_good,
            "a failed write must never damage the last good snapshot"
        );

        // A torn tmp file (crash mid-write) is ignored by readers: only
        // the atomically renamed server.snap is ever consulted.
        std::fs::remove_dir_all(dir.join("server.snap.tmp")).expect("unjam");
        std::fs::write(dir.join("server.snap.tmp"), b"torn partial write").expect("torn tmp");
        assert_eq!(
            SnapshotPolicy::read(&dir).expect("snapshot still reads"),
            last_good
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A stale epoch — a zombie client resuming with credentials from
/// before its last reconnect — is rejected with the typed error and
/// does *not* consume the quarantined state: the rightful owner can
/// still resume afterwards.
#[test]
fn stale_epoch_resume_is_rejected_with_a_typed_error() {
    let (text, config, base) = micro_setup();
    let server = make_server(&config, &base);
    let client = make_client(0, &text, &config, &base);
    let mut server = server.lock().unwrap();
    server
        .handle(ClientMessage::Connect {
            client: client.id(),
            ft: client.ft_config().clone(),
            split: client.split(),
            epoch: 1,
            codecs: 0,
        })
        .expect("connect");

    // The connection dies; the session is quarantined, not dropped.
    server.connection_lost(client.id());
    assert_eq!(server.active_clients(), 0);
    assert_eq!(server.quarantined_clients(), 1);

    let err = server
        .handle(ClientMessage::Resume {
            client: client.id(),
            epoch: 7,
            last_step: 0,
        })
        .expect_err("wrong epoch must be rejected");
    assert!(
        matches!(
            err,
            ProtocolError::StaleEpoch {
                expected: 1,
                got: 7,
                ..
            }
        ),
        "{err}"
    );
    // Rejection keeps the state: the real owner still resumes, and the
    // server proves it by bumping the epoch past the stale one.
    assert_eq!(server.quarantined_clients(), 1);
    let reply = server
        .handle(ClientMessage::Resume {
            client: client.id(),
            epoch: 1,
            last_step: 0,
        })
        .expect("rightful resume")
        .expect("resume replies");
    match reply {
        ServerMessage::Resumed {
            epoch, server_step, ..
        } => {
            assert_eq!(epoch, 2, "resume bumps the epoch");
            assert_eq!(server_step, 0);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    assert_eq!(server.active_clients(), 1);
    assert_eq!(server.quarantined_clients(), 0);
}

/// Server-side deadlines end to end: a client that goes silent is
/// evicted on `io_timeout` (session quarantined, reservation freed),
/// the quarantine is reaped on `max_session_idle`, and a too-late
/// `Resume` is answered with an `Evicted(IdleExpired)` notice that the
/// retry driver surfaces as a terminal typed error.
#[test]
fn silent_clients_are_evicted_and_expired_resumes_get_a_terminal_notice() {
    let (text, config, base) = micro_setup();
    let handler = make_server(&config, &base);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        handler.clone(),
        EventLoopOptions {
            io_timeout: Some(Duration::from_millis(150)),
            max_session_idle: Some(Duration::from_millis(200)),
            ..EventLoopOptions::default()
        },
    );
    let shutdown = event_loop.shutdown_handle();
    let loop_thread = std::thread::spawn(move || event_loop.run());

    // Connect, then fall silent while holding the connection open.
    let mut client = make_client(0, &text, &config, &base);
    let mut transport = dialer.dial().expect("dial");
    transport
        .send(&ClientMessage::Connect {
            client: client.id(),
            ft: client.ft_config().clone(),
            split: client.split(),
            epoch: client.epoch(),
            codecs: 0,
        })
        .expect("send connect");
    match transport.recv().expect("ready") {
        ServerMessage::Ready { .. } => {}
        other => panic!("expected Ready, got {other:?}"),
    }
    let reserved = handler.lock().unwrap().reserved_bytes();
    assert!(reserved > 0);

    // Silence past the deadline: the server evicts (best-effort notice
    // on the still-open pipe) and quarantines.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match transport.recv() {
            Ok(ServerMessage::Evicted { code, .. }) => {
                assert_eq!(format!("{code:?}"), "Timeout");
                break;
            }
            Ok(other) => panic!("expected Evicted, got {other:?}"),
            Err(ProtocolError::Disconnected) => break, // notice raced the drop
            Err(ProtocolError::Timeout) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server never evicted the silent client"
                );
            }
            Err(e) => panic!("unexpected transport error: {e}"),
        }
    }
    // Wait out the quarantine TTL, then try to resume: too late.
    std::thread::sleep(Duration::from_millis(600));
    let policy = RetryPolicy {
        retries: 2,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        seed: 0,
    };
    // First a fresh-connect driver path would succeed, so resume
    // manually to prove the expiry: the parked state is gone.
    let mut late = dialer.dial().expect("redial");
    late.send(&ClientMessage::Resume {
        client: client.id(),
        epoch: client.epoch(),
        last_step: 0,
    })
    .expect("send resume");
    match late.recv() {
        Ok(ServerMessage::Evicted { code, .. }) => {
            assert_eq!(format!("{code:?}"), "IdleExpired");
        }
        Ok(other) => panic!("expected Evicted notice, got {other:?}"),
        // The loop drops the conn right after the notice; losing the
        // race to the drop is acceptable.
        Err(ProtocolError::Disconnected) => {}
        Err(e) => panic!("unexpected transport error: {e}"),
    }

    // A fresh Connect (epoch reset by a new client instance) still
    // works — expiry never wedges an id — and the retry driver
    // finishes a short run despite the hostile timeouts.
    let curve =
        drive_client(&mut client, |_| dialer.dial(), 2, &policy).expect("fresh run after expiry");
    assert_eq!(curve.points().len(), 2);

    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    let (_h, stats) = loop_thread.join().expect("loop thread");
    assert!(stats.evicted >= 1, "{stats:?}");
    assert!(stats.expired >= 1, "{stats:?}");

    let mut handler = handler.lock().unwrap();
    assert_eq!(handler.active_clients(), 0);
    handler.expire_idle(Duration::from_millis(0));
    assert_eq!(handler.quarantined_clients(), 0);
    assert_eq!(handler.reserved_bytes(), 0);
}
