//! `solo_tcp` and `pair_tcp`: lock-step clients over loopback TCP to a
//! `TcpEventServer` running `MenosServer` behind the benchmark's
//! pass-through handler.
//!
//! One generator thread drives every connection phase by phase: all
//! clients compute, then all send, then all receive. With two clients
//! both messages of a phase reach the server back to back, so the event
//! loop can stack them into one `handle_batch` group.

use std::sync::Arc;
use std::time::{Duration, Instant};

use menos_core::{ServerMode, ServerSpec};
use menos_net::Codec;
use menos_split::{
    ClientId, ClientMessage, EventLoopOptions, EventLoopStats, ProtocolError, ServerMessage,
    SplitClient, SplitSpec, TcpEventServer, TcpOptions, TcpTransport, Transport,
};

use crate::report::{Measured, Unit};
use crate::stats::vm_hwm_mb;
use crate::trace::{self, TraceClock, Tracer};
use crate::world::{
    data_seeds, finish, front, loss_final, tail, unexpected, wire_len, Finished, Model, Oracle,
    Served, ServerTrace, RECV, RT_ACT, RT_GRAD, SEND, STEP,
};
use crate::{Args, HARD_LIMIT, LOSS_TAIL};

/// Untimed steps each client takes during set-up, so lazy
/// initialisation and first-touch allocation stay out of the
/// measured interval.
const WARMUP_STEPS: usize = 2;
/// Extra sessions each set-up opens and closes only to time the
/// `Connect` → `Ready` handshake, so `admit_wait_ms_p50` rests on more
/// than one or two samples.
const ADMIT_PROBES: usize = 8;

type ClientTransport = TcpTransport<ClientMessage, ServerMessage>;

fn pe(e: ProtocolError) -> String {
    e.to_string()
}

/// One client and its connection.
struct Conn {
    client: SplitClient,
    data_seed: u64,
    codec: Codec,
    transport: ClientTransport,
    tracer: Tracer,
    wire: u64,
}

/// One lock-step split step on every connection, phase by phase.
/// Returns each connection's step start.
fn step_all(conns: &mut [Conn]) -> Result<Vec<Instant>, ProtocolError> {
    let mut starts = Vec::with_capacity(conns.len());
    let mut roots = Vec::with_capacity(conns.len());
    let mut msgs = Vec::with_capacity(conns.len());
    for c in conns.iter_mut() {
        starts.push(Instant::now());
        c.tracer
            .set_id(c.client.id().0, c.client.steps_completed() as u64);
        roots.push(c.tracer.enter(STEP));
        msgs.push(front(&mut c.client, &mut c.tracer));
    }
    let replies = exchange(conns, &msgs, RT_ACT)?;
    let mut msgs = Vec::with_capacity(conns.len());
    for (c, reply) in conns.iter_mut().zip(replies) {
        msgs.push(tail(&mut c.client, &mut c.tracer, reply)?);
    }
    let replies = exchange(conns, &msgs, RT_GRAD)?;
    for ((c, reply), root) in conns.iter_mut().zip(replies).zip(roots) {
        finish(&mut c.client, &mut c.tracer, reply)?;
        c.tracer.exit(root);
    }
    Ok(starts)
}

/// Sends every connection's message, then receives every reply; a
/// round-trip span per connection covers its send and its receive.
fn exchange(
    conns: &mut [Conn],
    msgs: &[ClientMessage],
    name: &'static str,
) -> Result<Vec<ServerMessage>, ProtocolError> {
    let mut trips = Vec::with_capacity(conns.len());
    for (c, msg) in conns.iter_mut().zip(msgs) {
        trips.push(c.tracer.enter(name));
        let s = c.tracer.enter(SEND);
        let sent = c.transport.send(msg);
        c.tracer.exit(s);
        sent?;
        c.wire += wire_len(msg);
    }
    let mut replies = Vec::with_capacity(conns.len());
    for (c, trip) in conns.iter_mut().zip(trips) {
        let s = c.tracer.enter(RECV);
        let reply = c.transport.recv();
        c.tracer.exit(s);
        c.tracer.exit(trip);
        let reply = reply?;
        c.wire += wire_len(&reply);
        replies.push(reply);
    }
    Ok(replies)
}

/// Sends `connect` and waits for `Ready`, returning the negotiated
/// codec and the wait in milliseconds.
fn handshake(
    transport: &mut ClientTransport,
    connect: &ClientMessage,
) -> Result<(Codec, f64), String> {
    let t = Instant::now();
    transport.send(connect).map_err(pe)?;
    match transport.recv().map_err(pe)? {
        ServerMessage::Ready { codec, .. } => Ok((codec, t.elapsed().as_secs_f64() * 1e3)),
        other => Err(pe(unexpected("Ready", &other))),
    }
}

/// A server with its connected, warmed-up clients.
struct World {
    model: Model,
    server: TcpEventServer<Served>,
    conns: Vec<Conn>,
}

impl World {
    fn build(
        seeds: &[u64],
        codec: Codec,
        clock: &Arc<TraceClock>,
        admit_wait_ms: &mut Vec<f64>,
    ) -> Result<World, String> {
        let model = Model::new();
        let spec = ServerSpec::v100(ServerMode::menos());
        let pool = spec.total_gpu_bytes();
        let served = Served::new(model.server(spec), pool, clock.clone());
        let options = EventLoopOptions {
            accept_limit: seeds.len() + ADMIT_PROBES,
            ..EventLoopOptions::default()
        };
        let server =
            TcpEventServer::spawn(("127.0.0.1", 0), served, options, TcpOptions::default())
                .map_err(pe)?;
        // Probes go first and one at a time: each waits for the server
        // to close its connection, so probes never count as live
        // beside the measured clients.
        let codecs = if codec == Codec::F32Raw {
            0
        } else {
            codec.flag()
        };
        for k in 0..ADMIT_PROBES {
            let client = ClientId(u64::MAX - k as u64);
            let mut transport = TcpTransport::connect(server.addr()).map_err(pe)?;
            let connect = ClientMessage::Connect {
                client,
                ft: model.ft.clone(),
                split: SplitSpec::paper(),
                epoch: 1,
                codecs,
            };
            admit_wait_ms.push(handshake(&mut transport, &connect)?.1);
            transport
                .send(&ClientMessage::Disconnect { client })
                .map_err(pe)?;
            match transport.recv() {
                Err(ProtocolError::Disconnected) => {}
                other => return Err(format!("probe {client} after Disconnect: {other:?}")),
            }
        }
        let mut conns = Vec::with_capacity(seeds.len());
        for &data_seed in seeds {
            let mut client = model.client(data_seed, data_seed, codec);
            let mut transport = TcpTransport::connect(server.addr()).map_err(pe)?;
            let (got, wait_ms) = handshake(&mut transport, &Model::connect_msg(&client))?;
            client.adopt_codec(got);
            admit_wait_ms.push(wait_ms);
            if client.codec() != codec {
                return Err(format!("negotiated {} instead of {codec}", client.codec()));
            }
            conns.push(Conn {
                client,
                data_seed,
                codec,
                transport,
                tracer: Tracer::new(clock.clone()),
                wire: 0,
            });
        }
        for _ in 0..WARMUP_STEPS {
            step_all(&mut conns).map_err(pe)?;
        }
        for c in &mut conns {
            c.wire = 0;
        }
        Ok(World {
            model,
            server,
            conns,
        })
    }

    /// Disconnects every client and waits for the loop to finish.
    fn teardown(mut self) -> Result<(ServerTrace, EventLoopStats, Vec<Conn>, Model), String> {
        for c in &mut self.conns {
            let id = c.client.id();
            c.transport
                .send(&ClientMessage::Disconnect { client: id })
                .map_err(pe)?;
        }
        let (mut served, stats) = self.server.join().ok_or("server loop panicked")?;
        let sessions = (self.conns.len() + ADMIT_PROBES) as u64;
        if stats.conn_errors > 0 || stats.served != sessions {
            return Err(format!(
                "event loop served {} of {sessions} sessions with {} connection errors",
                stats.served, stats.conn_errors
            ));
        }
        Ok((served.take(), stats, self.conns, self.model))
    }
}

/// Runs lock-step rounds until the measured interval is over and the
/// clients together hold enough step samples.
fn drive(
    conns: &mut [Conn],
    t0: Instant,
    args: &Args,
    clock: &TraceClock,
    m: &mut Measured,
) -> Result<(), String> {
    while t0.elapsed() < args.seconds || m.step_ms.len() < args.min_steps {
        if t0.elapsed() >= HARD_LIMIT {
            return Err(format!(
                "fewer than {} steps in {HARD_LIMIT:?}",
                args.min_steps
            ));
        }
        let traced = clock.tracing_now();
        let starts = step_all(conns).map_err(pe)?;
        let done = t0.elapsed().as_secs_f64();
        for start in starts {
            let dur = start.elapsed().as_secs_f64();
            m.step_ms.push(dur * 1e3);
            m.completions_s.push(done);
            m.units.push(Unit {
                dur_s: dur,
                steps: 1,
                traced,
            });
        }
    }
    m.steps = m.step_ms.len() as u64;
    Ok(())
}

/// Traced time inside a measured interval of length `total`.
fn traced_time(total: Duration) -> u64 {
    let w = trace::WINDOW.as_nanos() as u64;
    let t = total.as_nanos() as u64;
    let full = t / w;
    (full / 2) * w + if full % 2 == 1 { t % w } else { 0 }
}

/// Runs `clients` lock-step clients negotiating `codec`.
pub fn run(args: &Args, clients: usize, codec: Codec) -> Result<Measured, String> {
    let clock = TraceClock::new(args.trace);
    let seeds = data_seeds(args.seed, clients);
    let mut m = Measured::default();
    let mut world = None;
    for rep in 0..args.setup_reps {
        let t = if rep == 0 {
            args.process_start
        } else {
            Instant::now()
        };
        let w = World::build(&seeds, codec, &clock, &mut m.admit_wait_ms)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < args.setup_reps {
            let (server_trace, ..) = w.teardown()?;
            m.absorb_server(server_trace);
        } else {
            world = Some(w);
        }
    }
    let mut w = world.expect("at least one set-up");

    let t0 = clock.start_timing();
    m.timing_start_ns = clock.ns_of(t0);
    menos_tensor::pool::reset_stats();
    drive(&mut w.conns, t0, args, &clock, &mut m)?;
    let elapsed = t0.elapsed();
    m.elapsed_s = elapsed.as_secs_f64();
    m.pool = Some(menos_tensor::pool::stats());
    m.rss_peak_mb = vm_hwm_mb();
    if args.trace {
        m.traced_wall_ns = traced_time(elapsed);
    }

    let (server_trace, stats, conns, model) = w.teardown()?;
    let loop_steps: u64 = conns
        .iter()
        .map(|c| c.client.steps_completed() as u64)
        .sum();
    m.event_loop = Some((stats, loop_steps));
    m.sessions_live_peak = stats.max_live_sessions as f64;
    m.sessions = conns.len() as u64;
    let mut oracle = Oracle::new(&model);
    let mut curves = Vec::new();
    for mut c in conns {
        m.wire_bytes += c.wire;
        trace::merge(&mut m.spans, c.tracer.take());
        oracle.check(&Finished::of(&c.client, c.data_seed, c.codec))?;
        curves.push(c.client.curve().clone());
    }
    m.absorb_server(server_trace);
    m.loss_final = loss_final(&curves, LOSS_TAIL);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_time_counts_odd_windows() {
        let w = trace::WINDOW;
        assert_eq!(traced_time(w / 2), 0);
        assert_eq!(traced_time(w + w / 2), (w / 2).as_nanos() as u64);
        assert_eq!(traced_time(w * 4), (w * 2).as_nanos() as u64);
    }
}
