//! TCP framing for the split fine-tuning protocol.
//!
//! This module contains **no protocol logic**. The client side is a
//! blocking [`Transport`] over `std::net::TcpStream`, driven by
//! [`drive_client`] ([`run_tcp_client`] is the shorthand). The server
//! side is a nonblocking connection and listener for the
//! [`ServerEventLoop`], wrapped up as [`TcpEventServer`]. Message bytes
//! come from the unified codec ([`crate::codec`]) — the same state
//! machine every other transport drives.
//!
//! Robustness: each frame header is validated (version, magic,
//! declared length vs a configurable cap) before any payload
//! allocation, client connections carry read/write deadlines, and a
//! failing server connection hands its session to the handler's
//! lost-connection path — other clients keep training.

use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use menos_data::LossCurve;
use menos_net::{read_frame_bytes, FrameAccumulator, WriteQueue, DEFAULT_MAX_FRAME};

use crate::client::SplitClient;
use crate::event_loop::{
    BatchHandler, EventConn, EventListener, EventLoopOptions, EventLoopStats, ServerEventLoop,
    SnapshotPolicy,
};
use crate::message::{ClientMessage, ServerMessage};
use crate::protocol::{ProtocolError, Transport, WireMessage};
use crate::retry::{drive_client, RetryPolicy};

/// Tuning knobs for TCP endpoints.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Largest payload a peer may declare (frames above this are
    /// rejected before allocation). A *protocol* limit: both ends must
    /// agree on it.
    pub max_frame: usize,
    /// Per-operation read/write deadline (`None` blocks forever).
    pub io_timeout: Option<Duration>,
    /// Per-session reassembly staging cap for the nonblocking path
    /// (`None` = header + `max_frame`). A *deployment* memory knob:
    /// lowering it bounds what N slow-dripping sessions can pin in
    /// server memory, independent of the protocol frame limit.
    pub max_staged: Option<usize>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            max_frame: DEFAULT_MAX_FRAME,
            io_timeout: Some(Duration::from_secs(30)),
            max_staged: None,
        }
    }
}

/// A [`Transport`] over one TCP stream. The client side is
/// `TcpTransport<ClientMessage, ServerMessage>`; the server side is
/// the mirror image.
pub struct TcpTransport<Tx, Rx> {
    stream: TcpStream,
    max_frame: usize,
    _marker: PhantomData<fn(Tx) -> Rx>,
}

impl TcpTransport<ClientMessage, ServerMessage> {
    /// Connects a client endpoint to a listening server.
    ///
    /// # Errors
    ///
    /// Fails if the address does not resolve or the connection is
    /// refused.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, TcpOptions::default())
    }
}

impl<Tx: WireMessage, Rx: WireMessage> TcpTransport<Tx, Rx> {
    /// Wraps an accepted or connected stream.
    ///
    /// # Errors
    ///
    /// Fails if socket options cannot be applied.
    pub fn from_stream(stream: TcpStream, options: TcpOptions) -> Result<Self, ProtocolError> {
        stream.set_nodelay(true)?;
        let mut transport = TcpTransport {
            stream,
            max_frame: options.max_frame,
            _marker: PhantomData,
        };
        transport.set_deadline(options.io_timeout)?;
        Ok(transport)
    }
}

impl<Tx: WireMessage, Rx: WireMessage> Transport for TcpTransport<Tx, Rx> {
    type Tx = Tx;
    type Rx = Rx;

    fn send(&mut self, msg: &Tx) -> Result<(), ProtocolError> {
        use std::io::Write;
        // Header and body go out in one vectored write; the tensor
        // body is the encoder's buffer shared by reference, so no
        // contiguous frame copy is ever built.
        let (header, body) = msg.to_wire_parts();
        menos_net::write_frame_vectored(&mut self.stream, &header, &body)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Rx, ProtocolError> {
        let frame = read_frame_bytes(&mut self.stream, self.max_frame)?;
        Ok(Rx::from_wire(&frame, self.max_frame)?)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ProtocolError> {
        self.stream.set_read_timeout(deadline)?;
        self.stream.set_write_timeout(deadline)?;
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Nonblocking TCP for the event-driven server
// ----------------------------------------------------------------------

/// One nonblocking TCP connection as seen by the event loop: a
/// [`FrameAccumulator`] reassembles inbound fragments into the exact
/// frames the blocking reader would produce, and a [`WriteQueue`]
/// resumes outbound frames wherever the socket stopped accepting
/// bytes — even mid-header.
pub struct TcpEventConn {
    stream: TcpStream,
    acc: FrameAccumulator,
    writes: WriteQueue,
    max_frame: usize,
}

impl TcpEventConn {
    /// Wraps an accepted stream, switching it to nonblocking mode.
    ///
    /// # Errors
    ///
    /// Fails if socket options cannot be applied.
    pub fn from_stream(stream: TcpStream, options: TcpOptions) -> Result<Self, ProtocolError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut acc = FrameAccumulator::new(options.max_frame);
        if let Some(cap) = options.max_staged {
            acc = acc.with_staged_cap(cap);
        }
        Ok(TcpEventConn {
            stream,
            acc,
            writes: WriteQueue::new(),
            max_frame: options.max_frame,
        })
    }
}

impl EventConn for TcpEventConn {
    fn poll_recv(&mut self, out: &mut Vec<ClientMessage>) -> Result<(), ProtocolError> {
        use std::io::Read;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: surface buffered messages now, the
                    // disconnect on the next sweep.
                    return if out.is_empty() {
                        Err(ProtocolError::Disconnected)
                    } else {
                        Ok(())
                    };
                }
                Ok(n) => {
                    for frame in self.acc.push(&buf[..n])? {
                        out.push(ClientMessage::from_wire(&frame, self.max_frame)?);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn queue(&mut self, msg: &ServerMessage) -> Result<(), ProtocolError> {
        let (header, body) = msg.to_wire_parts();
        self.writes.push_frame(header, body);
        self.flush().map(|_| ())
    }

    fn flush(&mut self) -> Result<bool, ProtocolError> {
        // write_to swallows WouldBlock (returns Ok(false)); any error
        // it surfaces is fatal to the connection.
        Ok(self.writes.write_to(&mut self.stream)?)
    }

    fn has_queued_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    fn queued_write_bytes(&self) -> u64 {
        self.writes.queued_bytes() as u64
    }
}

/// A nonblocking accept source feeding [`TcpEventConn`]s to a
/// [`ServerEventLoop`].
pub struct TcpEventListener {
    listener: TcpListener,
    options: TcpOptions,
    addr: std::net::SocketAddr,
}

impl TcpEventListener {
    /// Binds to `addr` (port 0 for ephemeral) in nonblocking mode.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, options: TcpOptions) -> Result<Self, ProtocolError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpEventListener {
            listener,
            options,
            addr,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl EventListener for TcpEventListener {
    type Conn = TcpEventConn;

    fn poll_accept(&mut self) -> Result<Option<TcpEventConn>, ProtocolError> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(TcpEventConn::from_stream(stream, self.options)?)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// The TCP server: ONE thread runs a [`ServerEventLoop`] over a
/// nonblocking listener, serving every client and batching their ready
/// messages into single server steps. The handler needs no
/// `Arc<Mutex<_>>` — the loop owns it.
pub struct TcpEventServer<H> {
    addr: std::net::SocketAddr,
    handle: Option<JoinHandle<(H, EventLoopStats)>>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
}

impl<H> TcpEventServer<H>
where
    H: BatchHandler + Send + 'static,
{
    /// Binds to `addr` and starts the loop thread. `options` bounds
    /// the run ([`EventLoopOptions::accept_limit`] connections are
    /// served before the loop exits); `tcp` sets per-connection frame
    /// caps.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        handler: H,
        options: EventLoopOptions,
        tcp: TcpOptions,
    ) -> Result<TcpEventServer<H>, ProtocolError> {
        Self::spawn_inner(addr, handler, options, tcp, None)
    }

    /// [`TcpEventServer::spawn`] with durable-state snapshots: the
    /// loop persists the handler's state per `policy` (see
    /// [`SnapshotPolicy`] for the cadence and the atomic-write
    /// guarantee), including a final snapshot at shutdown.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn spawn_with_snapshots(
        addr: impl ToSocketAddrs,
        handler: H,
        options: EventLoopOptions,
        tcp: TcpOptions,
        policy: SnapshotPolicy,
    ) -> Result<TcpEventServer<H>, ProtocolError> {
        Self::spawn_inner(addr, handler, options, tcp, Some(policy))
    }

    fn spawn_inner(
        addr: impl ToSocketAddrs,
        handler: H,
        options: EventLoopOptions,
        tcp: TcpOptions,
        policy: Option<SnapshotPolicy>,
    ) -> Result<TcpEventServer<H>, ProtocolError> {
        let listener = TcpEventListener::bind(addr, tcp)?;
        let addr = listener.addr();
        let mut event_loop = ServerEventLoop::new(listener, handler, options);
        if let Some(policy) = policy {
            event_loop = event_loop.with_snapshots(policy);
        }
        let shutdown = event_loop.shutdown_handle();
        let handle = std::thread::spawn(move || event_loop.run());
        Ok(TcpEventServer {
            addr,
            handle: Some(handle),
            shutdown,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Waits for the loop to finish, returning the handler and the
    /// run's counters.
    pub fn join(mut self) -> Option<(H, EventLoopStats)> {
        self.handle.take().and_then(|h| h.join().ok())
    }

    /// Stops the loop at its next sweep and waits for it: every live
    /// session gets a best-effort `Evicted(Shutdown)` notice and goes
    /// through the handler's lost-connection path. The listener is
    /// closed by the time this returns, so new dials are refused.
    pub fn shutdown(self) -> Option<(H, EventLoopStats)> {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.join()
    }
}

impl<H> Drop for TcpEventServer<H> {
    fn drop(&mut self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Runs `steps` split fine-tuning iterations against a TCP server,
/// returning the loss curve: [`drive_client`] dialing `addr` with
/// [`TcpTransport::connect`]. `addr` may be a plain server or a fleet
/// coordinator — a v1.4 `Redirect` (PROTOCOL.md §9) is chased to the
/// named backend, and a fault there walks the client back to `addr`
/// for re-placement. `policy` decides how many faults are survived
/// through the `Resume` handshake; [`RetryPolicy::none`] gives up on
/// the first.
///
/// # Errors
///
/// The first non-retryable [`ProtocolError`], or the last error once
/// `policy`'s retry budget is exhausted; the client's local state is
/// consistent up to the last completed step.
pub fn run_tcp_client(
    addr: impl ToSocketAddrs,
    client: &mut SplitClient,
    steps: usize,
    policy: &RetryPolicy,
) -> Result<LossCurve, ProtocolError> {
    drive_client(
        client,
        |route| match route {
            Some(route) => TcpTransport::connect(route),
            None => TcpTransport::connect(&addr),
        },
        steps,
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ForwardMode;
    use crate::message::ClientId;
    use crate::protocol::SessionHandler;
    use crate::server::ServerSession;
    use crate::spec::SplitSpec;
    use menos_adapters::FineTuneConfig;
    use menos_data::{wiki_corpus, TokenDataset, Vocab};
    use menos_models::{CausalLm, ModelConfig};
    use menos_sim::seeded_rng;

    fn pair(seed: u64) -> (SplitClient, ServerSession) {
        let text = wiki_corpus(31, 6000);
        let vocab = Vocab::from_text(&text);
        let cfg = ModelConfig::tiny_opt(vocab.size());
        let mut rng = seeded_rng(31, "tcp");
        let ps = menos_models::init_params(&cfg, &mut rng);
        let ds = TokenDataset::new(vocab.encode(&text), 16, seed);
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

    fn serve_one<H: BatchHandler + Send + 'static>(
        handler: H,
        tcp: TcpOptions,
    ) -> TcpEventServer<H> {
        let options = EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        };
        TcpEventServer::spawn("127.0.0.1:0", handler, options, tcp).expect("bind")
    }

    #[test]
    fn client_trains_over_a_real_socket() {
        let (mut client, session) = pair(500);
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        let server = serve_one(handler, TcpOptions::default());
        let curve = run_tcp_client(server.addr(), &mut client, 4, &RetryPolicy::none())
            .expect("tcp training");
        assert_eq!(curve.points().len(), 4);
        assert!(
            curve.final_loss().unwrap() < curve.points()[0].1 + 0.05,
            "{:?}",
            curve.points()
        );
        let (handler, stats) = server.join().expect("loop finished");
        // Clean disconnect released the session.
        assert!(handler.session().is_none());
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn hostile_length_prefix_cannot_oom_the_server() {
        use std::io::{Read, Write};
        let (_client, session) = pair(501);
        let handler = SessionHandler::new(session, ForwardMode::NoGradReforward);
        // Tight cap so the test proves the check, not the allocator.
        let options = TcpOptions {
            max_frame: 1 << 20,
            io_timeout: Some(Duration::from_secs(5)),
            max_staged: None,
        };
        let server = serve_one(handler, options);
        let mut socket = TcpStream::connect(server.addr()).expect("connect");
        // A header declaring a 4 GiB payload. The server must reject it
        // from the header alone and close the connection — never
        // allocate.
        socket
            .write_all(&menos_net::encode_frame_header(2, 0, u32::MAX))
            .expect("write hostile header");
        let mut buf = [0u8; 1];
        // Read returns 0 (EOF) once the server drops the connection.
        let n = socket.read(&mut buf).expect("read");
        assert_eq!(n, 0, "server must close on oversize declaration");
        let (_handler, stats) = server.join().expect("loop finished");
        assert_eq!(stats.conn_errors, 1);
    }

    #[test]
    fn client_trains_through_a_redirecting_coordinator() {
        /// A one-backend coordinator shim: control messages get a
        /// v1.4 `Redirect` at the real server, nothing else is legal.
        struct RedirectHandler {
            target: String,
        }

        impl crate::protocol::MessageHandler for RedirectHandler {
            fn handle(
                &mut self,
                msg: ClientMessage,
            ) -> Result<Option<ServerMessage>, ProtocolError> {
                match msg {
                    ClientMessage::Connect { client, .. }
                    | ClientMessage::Resume { client, .. } => Ok(Some(ServerMessage::Redirect {
                        client,
                        addr: self.target.clone(),
                        retry_after_ms: 0,
                    })),
                    other => Err(ProtocolError::Unexpected(format!(
                        "coordinator got {other:?}"
                    ))),
                }
            }

            fn connection_lost(&mut self, _client: ClientId) {}
        }

        impl BatchHandler for RedirectHandler {}

        let (mut client, session) = pair(502);
        let backend = serve_one(
            SessionHandler::new(session, ForwardMode::NoGradReforward),
            TcpOptions::default(),
        );
        let coordinator = serve_one(
            RedirectHandler {
                target: backend.addr().to_string(),
            },
            TcpOptions::default(),
        );

        // No retry budget: a redirect is placement, not a fault.
        let curve = run_tcp_client(coordinator.addr(), &mut client, 4, &RetryPolicy::none())
            .expect("client trains through the redirect");
        assert_eq!(curve.points().len(), 4);
        let (backend_handler, _) = backend.join().expect("backend finished");
        coordinator.join().expect("coordinator finished");
        assert!(backend_handler.session().is_none());
    }

    #[test]
    fn tcp_transport_surfaces_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let _held = std::thread::spawn(move || listener.accept());
        let mut t = TcpTransport::connect(addr).expect("connect");
        t.set_deadline(Some(Duration::from_millis(50))).unwrap();
        let err = t.recv().unwrap_err();
        assert!(matches!(err, ProtocolError::Timeout), "{err}");
    }
}
