//! The failover soak (PROTOCOL.md §9): a fleet coordinator supervises
//! four real `menos server` *processes*, places 64 clients across them
//! with v1.4 `Redirect`s, and one backend is SIGKILLed mid-run. The
//! coordinator must rule it dead by missed heartbeats, re-home its
//! sessions onto the survivors from its durable snapshot through the
//! `ImportSession` gate, and steer the orphaned clients back via their
//! `Resume` — and the acceptance bar is the house standard: every
//! client completes, with loss curves and final adapter weights
//! **bit-identical** to an undisturbed single-server run of the same
//! fleet, across three model seeds.
//!
//! A companion test pins the pre-v1.4 story: an old client dialing the
//! coordinator observes a prompt typed answer (`Busy`, which it
//! understands, or a `Redirect` frame its decoder rejects with
//! `UnknownKind` — a clean close), never a hang.

#![cfg(unix)]

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use menos::adapters::FineTuneConfig;
use menos::core::ServerState;
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::fleet::{BackendSpec, FleetCoordinator, FleetOptions, PlacementPolicy};
use menos::models::{CausalLm, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{
    drive_client, run_tcp_client, ClientId, ClientMessage, MessageKind, RetryPolicy, ServerMessage,
    SplitClient, SplitSpec, TcpTransport, Transport,
};

/// Soak scale, per the acceptance spec: 4 backends × 64 clients, with
/// the micro model keeping a debug-profile CI budget honest. Steps are
/// few, but the kill lands while every victim is mid-run (the test
/// waits for all of them to appear in the durable snapshot first).
const BACKENDS: usize = 4;
const CLIENTS: u64 = 64;
const STEPS: usize = 20;

type CurveBits = Vec<(usize, u32)>;
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

/// The shared setup both sides derive from `--micro-model
/// --model-seed S`: same corpus, same config, and the same base
/// parameters (`seeded_rng(S, "base-model")` is the registry's
/// derivation).
fn fleet_setup(model_seed: u64) -> (String, ModelConfig, Arc<Mutex<menos::tensor::ParamStore>>) {
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

/// A `menos server` subprocess with durable snapshots on — the same
/// spawn-and-banner-parse pattern as the restart soak
/// (`tests/chaos_soak.rs::kill_the_server`).
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    snap_dir: PathBuf,
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
                // Heartbeat probes and migration imports each cost one
                // accept; the budget must outlive the whole soak.
                "--accept-limit",
                "100000",
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
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).expect("server stdout") == 0 {
                panic!("server exited before announcing its address");
            }
            if let Some(rest) = line.split("server on ").nth(1) {
                let bound: SocketAddr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("bound address");
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
            snap_dir: snap_dir.to_path_buf(),
            _drain: drain,
        }
    }

    fn spec(&self) -> BackendSpec {
        BackendSpec {
            addr: self.addr.to_string(),
            snapshot_dir: self.snap_dir.clone(),
        }
    }

    /// SIGKILL — no shutdown hook runs; migration must come from the
    /// last durable snapshot alone.
    fn kill(mut self) {
        self.child.kill().expect("kill server");
        self.child.wait().expect("reap server");
    }
}

fn scratch_dir(model_seed: u64, label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "menos-failover-{model_seed}-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn join_fleet(
    drivers: Vec<std::thread::JoinHandle<(u64, CurveBits, AdapterBits)>>,
) -> Vec<(u64, CurveBits, AdapterBits)> {
    let mut out: Vec<_> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    out.sort_by_key(|(k, _, _)| *k);
    out
}

/// The undisturbed reference: the same 64 clients against ONE backend,
/// no coordinator, no kill. Placement and migration must be invisible
/// to training, so the fleet run has to reproduce these bits exactly.
fn single_server_reference(
    model_seed: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
) -> Vec<(u64, CurveBits, AdapterBits)> {
    let dir = scratch_dir(model_seed, "ref");
    let server = ServerProc::spawn(model_seed, &dir);
    let addr = server.addr;
    let drivers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let mut client = make_client(k, text, config, base);
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    retries: 10,
                    backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(100),
                    seed: k,
                };
                let curve =
                    drive_client(&mut client, |_| TcpTransport::connect(addr), STEPS, &policy)
                        .expect("reference client finishes");
                (k, curve_bits(&curve), adapter_bits(&client))
            })
        })
        .collect();
    let results = join_fleet(drivers);
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
    results
}

/// Polls the victim's durable snapshot until every session the
/// coordinator placed there has dispatched at least once — the signal
/// that a SIGKILL now lands mid-run for all of them. Torn reads race
/// the atomic rename harmlessly: a partial file fails the CRC and the
/// poll retries.
fn wait_until_snapshotted(snap_dir: &Path, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(bytes) = std::fs::read(snap_dir.join("server.snap")) {
            if let Ok(state) = ServerState::from_bytes(&bytes) {
                if state.sessions.len() >= want {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "victim's sessions never all reached its snapshot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigkilled_backend_fails_over_bit_identically_across_seeds() {
    for model_seed in [43u64, 44, 45] {
        let (text, config, base) = fleet_setup(model_seed);
        let reference = single_server_reference(model_seed, &text, &config, &base);

        // The fleet under test: 4 backends, round-robin placement.
        let dirs: Vec<PathBuf> = (0..BACKENDS)
            .map(|i| scratch_dir(model_seed, &format!("b{i}")))
            .collect();
        let mut servers: Vec<Option<ServerProc>> = dirs
            .iter()
            .map(|d| Some(ServerProc::spawn(model_seed, d)))
            .collect();
        let specs: Vec<BackendSpec> = servers.iter().map(|s| s.as_ref().unwrap().spec()).collect();
        let coordinator = FleetCoordinator::spawn(
            "127.0.0.1:0",
            specs,
            FleetOptions {
                policy: PlacementPolicy::RoundRobin,
                // Generous detection window: this test shares one
                // noisy core with 4 debug-build backends (and, in a
                // full-suite run, the rest of the workspace), where a
                // healthy-but-starved backend can easily stall past an
                // aggressive probe deadline. A SIGKILLed victim still
                // fails every probe instantly (connection refused), so
                // real death is ruled in ~max_missed x interval; the
                // slack only guards against false positives.
                heartbeat_interval: Duration::from_millis(150),
                max_missed: 6,
                probe_timeout: Duration::from_secs(2),
                capacity_per_server: CLIENTS as usize,
                ..FleetOptions::default()
            },
        )
        .expect("spawn coordinator");
        let coord_addr = coordinator.addr().to_string();

        let drivers: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let mut client = make_client(k, &text, &config, &base);
                let coord_addr = coord_addr.clone();
                std::thread::spawn(move || {
                    // Generous budget: the detection window (6 missed
                    // 150ms heartbeats plus probe timeouts) is paid in
                    // dead redirects; the migration window itself is
                    // free (`Busy` costs nothing).
                    let policy = RetryPolicy {
                        retries: 200,
                        backoff: Duration::from_millis(10),
                        max_backoff: Duration::from_millis(100),
                        seed: k,
                    };
                    let curve = run_tcp_client(coord_addr.as_str(), &mut client, STEPS, &policy)
                        .expect("fleet client finishes across the failover");
                    (k, curve_bits(&curve), adapter_bits(&client))
                })
            })
            .collect();

        // Wait until the whole fleet is placed, then until every
        // session on the victim has reached its durable snapshot.
        let placed_deadline = Instant::now() + Duration::from_secs(60);
        while (0..CLIENTS).any(|k| coordinator.placement_of(ClientId(k)).is_none()) {
            assert!(
                Instant::now() < placed_deadline,
                "coordinator never placed the whole fleet"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let victim = 0usize;
        let victims: Vec<u64> = (0..CLIENTS)
            .filter(|&k| coordinator.placement_of(ClientId(k)) == Some(victim))
            .collect();
        assert!(
            !victims.is_empty(),
            "round-robin left the victim backend empty"
        );
        wait_until_snapshotted(&dirs[victim], victims.len());
        std::thread::sleep(Duration::from_millis(100));
        servers[victim].take().unwrap().kill();

        let survivors = join_fleet(drivers);
        let stats = coordinator.stats();

        // The coordinator saw the death and moved the sessions.
        let alive = coordinator.alive();
        assert!(!alive[victim], "victim never ruled dead");
        assert!(
            alive.iter().skip(1).all(|&a| a),
            "a survivor was wrongly ruled dead: {alive:?}"
        );
        assert!(stats.heartbeats_missed > 0, "{stats:?}");
        assert_eq!(stats.failovers, 1, "{stats:?}");
        assert!(stats.sessions_migrated > 0, "{stats:?}");
        assert_eq!(stats.migrations_failed, 0, "{stats:?}");
        assert!(
            stats.redirects_sent >= CLIENTS,
            "every client was placed at least once: {stats:?}"
        );
        assert_eq!(stats.per_server[victim].failovers, 1);
        assert!(stats.per_server[victim].sessions_migrated > 0);
        // The orphans were re-placed on survivors, none back on the
        // corpse.
        for &k in &victims {
            let home = coordinator.placement_of(ClientId(k)).unwrap();
            assert_ne!(home, victim, "client {k} still homed on the corpse");
        }

        // The house standard: a whole-server death is invisible in the
        // training artifacts.
        assert_eq!(
            survivors, reference,
            "failover run diverged from the undisturbed single-server run (seed {model_seed})"
        );

        coordinator.shutdown();
        for server in servers.into_iter().flatten() {
            server.kill();
        }
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// §9.6 back-compat: a pre-v1.4 client dialing a coordinator always
/// gets a *prompt* typed control frame. `Busy` (v1.3) it understands
/// outright; a `Redirect` frame is rejected by its decoder with
/// `UnknownKind(23)` — a clean, deterministic close (pinned at the
/// codec layer in `codec::tests::unknown_kind_rejected`). What it must
/// never observe is a hang, so every reply here is read under a short
/// transport deadline.
#[test]
fn a_pre_v1_4_client_observes_busy_or_a_clean_close_never_a_hang() {
    let (_, config, _) = fleet_setup(43);
    let ft = {
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = 1;
        ft.seq_len = 8;
        ft
    };
    let connect = |client: u64| ClientMessage::Connect {
        client: ClientId(client),
        ft: ft.clone(),
        split: SplitSpec::paper(),
        epoch: 1,
        codecs: 0,
    };

    // A full fleet (capacity 0) answers with v1.3 `Busy` — fully
    // intelligible to the old client. No live backend is needed: the
    // shed happens before placement.
    let dir = scratch_dir(43, "prev14-busy");
    let busy_coord = FleetCoordinator::spawn(
        "127.0.0.1:0",
        vec![BackendSpec {
            addr: "127.0.0.1:1".into(),
            snapshot_dir: dir.clone(),
        }],
        FleetOptions {
            capacity_per_server: 0,
            // Keep the health thread from ruling on the fake backend
            // while the assertion runs.
            heartbeat_interval: Duration::from_secs(5),
            ..FleetOptions::default()
        },
    )
    .expect("spawn coordinator");
    let started = Instant::now();
    let mut t = TcpTransport::connect(busy_coord.addr()).expect("dial coordinator");
    t.set_deadline(Some(Duration::from_secs(2))).unwrap();
    t.send(&connect(7)).expect("send Connect");
    let reply = t.recv().expect("a prompt reply, not a hang");
    assert!(
        matches!(reply, ServerMessage::Busy { .. }),
        "full fleet must shed with Busy: {reply:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(2));
    busy_coord.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // A fleet with room answers with `Redirect` — kind 23, outside
    // the pre-v1.4 decode range, so the old decoder's verdict is the
    // typed `UnknownKind` error, not silence.
    let dir = scratch_dir(43, "prev14-redirect");
    let backend = ServerProc::spawn(43, &dir);
    let coord = FleetCoordinator::spawn(
        "127.0.0.1:0",
        vec![backend.spec()],
        FleetOptions {
            heartbeat_interval: Duration::from_secs(5),
            ..FleetOptions::default()
        },
    )
    .expect("spawn coordinator");
    let started = Instant::now();
    let mut t = TcpTransport::connect(coord.addr()).expect("dial coordinator");
    t.set_deadline(Some(Duration::from_secs(2))).unwrap();
    t.send(&connect(8)).expect("send Connect");
    let reply = t.recv().expect("a prompt reply, not a hang");
    assert!(started.elapsed() < Duration::from_secs(2));
    assert!(
        matches!(reply, ServerMessage::Redirect { .. }),
        "a placement steers: {reply:?}"
    );
    assert!(
        MessageKind::Redirect as u8 > MessageKind::Busy as u8,
        "Redirect is a post-v1.3 kind: an old decoder rejects it as UnknownKind"
    );
    coord.shutdown();
    backend.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
