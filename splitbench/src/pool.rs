//! `pool_admit`: cohorts of sessions arriving together at a
//! `MenosServer` whose simulated GPU pool holds only a few of them,
//! driven from one thread with no transport and no event loop.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use menos_core::{ServerMode, ServerSpec};
use menos_net::Codec;
use menos_split::{
    BatchHandler, ClientId, ClientMessage, MessageHandler, ProtocolError, ServerMessage,
    SplitClient,
};

use crate::report::{Measured, Unit};
use crate::stats::vm_hwm_mb;
use crate::trace::{self, TraceClock, Tracer};
use crate::world::{
    data_seeds, finish, front, loss_final, tail, unexpected, wire_len, Finished, Model, Oracle,
    Served, ROUND,
};
use crate::{Args, HARD_LIMIT, LOSS_TAIL};

/// The simulated pool. At b4×s32 a session's profiled backward demand
/// `m_b` is about 1.8 MB, so the live-reservation sum admits four
/// sessions; accounting that charges less per session admits more.
pub const POOL_BYTES: u64 = 8 << 20;
/// Sessions arriving together.
pub const COHORT: usize = 24;
/// Steps each session runs before it disconnects.
pub const SESSION_STEPS: usize = 4;
/// Untimed steps a throwaway session takes during set-up, so lazy
/// initialisation and first-touch allocation stay out of the measured
/// rounds, as in the TCP workloads.
const WARMUP_STEPS: usize = 2;

fn pe(e: ProtocolError) -> String {
    e.to_string()
}

struct Session {
    client: SplitClient,
    data_seed: u64,
    first_try: Option<Instant>,
}

fn cohort(model: &Model, seeds: &[u64]) -> Vec<Session> {
    seeds
        .iter()
        .map(|&data_seed| Session {
            client: model.client(data_seed, data_seed, Codec::F32Raw),
            data_seed,
            first_try: None,
        })
        .collect()
}

/// Takes the reply addressed to each of `ids`, in order.
fn replies_for(
    ids: &[ClientId],
    out: Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)>,
) -> Result<Vec<ServerMessage>, String> {
    let mut by_client: HashMap<ClientId, _> = out.into_iter().collect();
    ids.iter()
        .map(|id| match by_client.remove(id) {
            Some(Ok(Some(reply))) => Ok(reply),
            Some(Ok(None)) => Err(format!("{id}: no reply to a tensor message")),
            Some(Err(e)) => Err(format!("{id}: {e}")),
            None => Err(format!("{id}: missing from the batch result")),
        })
        .collect()
}

/// Connects one throwaway session, steps it [`WARMUP_STEPS`] times and
/// disconnects it.
fn warm_up(model: &Model, served: &mut Served, tr: &mut Tracer) -> Result<(), String> {
    let mut client = model.client(u64::MAX, 0, Codec::F32Raw);
    let id = [client.id()];
    match served.handle(Model::connect_msg(&client)) {
        Ok(Some(ServerMessage::Ready { .. })) => {}
        other => return Err(format!("warm-up Connect: {other:?}")),
    }
    for _ in 0..WARMUP_STEPS {
        let msg = front(&mut client, tr);
        let reply = replies_for(&id, served.handle_batch(vec![msg]))?.remove(0);
        let msg = tail(&mut client, tr, reply).map_err(pe)?;
        let reply = replies_for(&id, served.handle_batch(vec![msg]))?.remove(0);
        finish(&mut client, tr, reply).map_err(pe)?;
    }
    match served.handle(ClientMessage::Disconnect { client: id[0] }) {
        Ok(None) => Ok(()),
        other => Err(format!("warm-up Disconnect: {other:?}")),
    }
}

/// Drives one cohort until every session has run its steps and left.
/// Returns the time spent in rounds.
fn run_cohort(
    mut pending: Vec<Session>,
    served: &mut Served,
    tr: &mut Tracer,
    m: &mut Measured,
    done: &mut Vec<Finished>,
) -> Result<Duration, String> {
    let mut live: Vec<Session> = Vec::new();
    let mut busy = Duration::ZERO;
    let measured_before = m.elapsed_s;
    m.sessions += pending.len() as u64;
    while !pending.is_empty() || !live.is_empty() {
        let traced = tr.clock().tracing_now();
        let round_start = Instant::now();
        let root = tr.enter(ROUND);

        // Arrivals: every waiting session asks; sheds retry next round.
        let mut waiting = Vec::with_capacity(pending.len());
        for mut s in pending {
            let first = *s.first_try.get_or_insert_with(Instant::now);
            match served.handle(Model::connect_msg(&s.client)) {
                Ok(Some(ServerMessage::Ready { codec, .. })) => {
                    s.client.adopt_codec(codec);
                    m.admit_wait_ms.push(first.elapsed().as_secs_f64() * 1e3);
                    live.push(s);
                }
                Err(ProtocolError::Busy { .. }) => {
                    m.sheds += 1;
                    waiting.push(s);
                }
                Ok(other) => {
                    return Err(match other {
                        Some(msg) => pe(unexpected("Ready", &msg)),
                        None => "Connect got no reply".into(),
                    })
                }
                Err(e) => return Err(format!("Connect: {e}")),
            }
        }
        pending = waiting;
        let reserved = served.inner.reserved_bytes();
        if reserved > POOL_BYTES {
            return Err(format!(
                "reserved {reserved} B exceeds the {POOL_BYTES} B pool"
            ));
        }
        if live.is_empty() {
            return Err("the pool admitted no session".into());
        }
        m.sessions_live_peak = m.sessions_live_peak.max(live.len() as f64);

        // One stacked ready-set per protocol direction.
        let mut starts = Vec::with_capacity(live.len());
        let mut msgs = Vec::with_capacity(live.len());
        for s in &mut live {
            starts.push(Instant::now());
            msgs.push(front(&mut s.client, tr));
        }
        m.wire_bytes += msgs.iter().map(wire_len).sum::<u64>();
        let ids: Vec<ClientId> = live.iter().map(|s| s.client.id()).collect();
        let replies = replies_for(&ids, served.handle_batch(msgs))?;
        m.wire_bytes += replies.iter().map(wire_len).sum::<u64>();
        let mut msgs = Vec::with_capacity(live.len());
        for (s, reply) in live.iter_mut().zip(replies) {
            msgs.push(tail(&mut s.client, tr, reply).map_err(pe)?);
        }
        m.wire_bytes += msgs.iter().map(wire_len).sum::<u64>();
        let replies = replies_for(&ids, served.handle_batch(msgs))?;
        m.wire_bytes += replies.iter().map(wire_len).sum::<u64>();
        for ((s, reply), start) in live.iter_mut().zip(replies).zip(starts) {
            finish(&mut s.client, tr, reply).map_err(pe)?;
            m.step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let stepped = live.len() as u64;
        m.steps += stepped;
        let done_at = measured_before + (busy + round_start.elapsed()).as_secs_f64();
        m.completions_s
            .extend(std::iter::repeat_n(done_at, live.len()));

        // Departures.
        let mut staying = Vec::with_capacity(live.len());
        for s in live {
            if s.client.steps_completed() < SESSION_STEPS {
                staying.push(s);
                continue;
            }
            let client = s.client.id();
            match served.handle(ClientMessage::Disconnect { client }) {
                Ok(None) => done.push(Finished::of(&s.client, s.data_seed, Codec::F32Raw)),
                other => return Err(format!("{client} Disconnect: {other:?}")),
            }
        }
        live = staying;

        tr.exit(root);
        let dur = round_start.elapsed();
        busy += dur;
        if traced {
            m.traced_wall_ns += dur.as_nanos() as u64;
        }
        m.units.push(Unit {
            dur_s: dur.as_secs_f64(),
            steps: stepped,
            traced,
        });
    }
    if served.inner.active_clients() != 0 || served.inner.reserved_bytes() != 0 {
        return Err("sessions or reservations outlived their cohort".into());
    }
    Ok(busy)
}

pub fn run(args: &Args) -> Result<Measured, String> {
    let clock = TraceClock::new(args.trace);
    let seeds = data_seeds(args.seed, COHORT);
    let spec = ServerSpec {
        gpus: 1,
        gpu_capacity: POOL_BYTES,
        ..ServerSpec::v100(ServerMode::menos())
    };
    let mut m = Measured::default();
    let mut tr = Tracer::new(clock.clone());
    let mut world = None;
    for rep in 0..args.setup_reps {
        let t = if rep == 0 {
            args.process_start
        } else {
            Instant::now()
        };
        let model = Model::new();
        let mut served = Served::new(model.server(spec.clone()), POOL_BYTES, clock.clone());
        warm_up(&model, &mut served, &mut tr)?;
        let first = cohort(&model, &seeds);
        m.setup_s.push(t.elapsed().as_secs_f64());
        world = Some((model, served, first));
    }
    let (model, mut served, first) = world.expect("at least one set-up");

    let t0 = clock.start_timing();
    m.timing_start_ns = clock.ns_of(t0);
    menos_tensor::pool::reset_stats();
    let need = args.min_steps;
    let mut done = Vec::new();
    let mut next = Some(first);
    loop {
        // Later cohorts are built outside the measured time: client
        // construction is not server work.
        let arrivals = next.take().unwrap_or_else(|| cohort(&model, &seeds));
        m.elapsed_s += run_cohort(arrivals, &mut served, &mut tr, &mut m, &mut done)?.as_secs_f64();
        if m.elapsed_s >= args.seconds.as_secs_f64() && m.step_ms.len() >= need {
            break;
        }
        if t0.elapsed() >= HARD_LIMIT {
            return Err(format!("fewer than {need} steps in {HARD_LIMIT:?}"));
        }
    }
    m.pool = Some(menos_tensor::pool::stats());
    m.rss_peak_mb = vm_hwm_mb();

    trace::merge(&mut m.spans, tr.take());
    m.absorb_server(served.take());
    let mut oracle = Oracle::new(&model);
    for f in &done {
        oracle.check(f)?;
    }
    if done.len() as u64 != m.sessions {
        return Err(format!(
            "{} of {} sessions completed",
            done.len(),
            m.sessions
        ));
    }
    m.loss_final = loss_final(done.iter().map(|f| &f.curve), LOSS_TAIL);
    Ok(m)
}
