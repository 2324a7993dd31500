//! What a workload measured, and the metrics derived from it.

use std::collections::HashMap;

use menos_split::EventLoopStats;
use menos_tensor::pool::PoolStats;

use crate::stats::{block_rate, mean, median, tail_percentile};
use crate::trace::{merge, self_times, Span};
use crate::world::{
    Admission, BatchRec, ServerTrace, BATCH, DECODE, ENCODE_ACT, ENCODE_GRAD, FRONT_BWD, FRONT_FWD,
    HANDLE, HANDLE_CONNECT, RT_ACT, RT_GRAD, TAIL_BWD,
};

/// One timed unit of work (a client step, or a round of stacked steps)
/// and whether it started in a traced window.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub dur_s: f64,
    pub steps: u64,
    pub traced: bool,
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up, the first from process start.
    pub setup_s: Vec<f64>,
    /// Length of the measured interval.
    pub elapsed_s: f64,
    /// Steps completed in the measured interval, over all clients.
    pub steps: u64,
    /// Wall time of each measured step.
    pub step_ms: Vec<f64>,
    /// Completion time of each measured step, in seconds since the
    /// measured interval began.
    pub completions_s: Vec<f64>,
    pub units: Vec<Unit>,
    /// Tensor-frame bytes, both ways, of the measured steps.
    pub wire_bytes: u64,
    pub loss_final: f64,
    pub sessions_live_peak: f64,
    /// First `Connect` to `Ready`, per admitted session.
    pub admit_wait_ms: Vec<f64>,
    pub rss_peak_mb: f64,
    /// Sessions started.
    pub sessions: u64,
    /// `Busy` replies to `Connect`.
    pub sheds: u64,
    /// Pool counters over the measured interval.
    pub pool: Option<PoolStats>,
    /// Event-loop counters and the steps that loop served.
    pub event_loop: Option<(EventLoopStats, u64)>,
    /// Trace-clock time at which measuring began; earlier spans are
    /// set-up.
    pub timing_start_ns: u64,
    /// Traced wall time inside the measured interval.
    pub traced_wall_ns: u64,
    pub spans: Vec<Span>,
    pub batches: Vec<BatchRec>,
    pub admissions: Vec<Admission>,
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

impl Measured {
    /// Adds a server handler's trace, re-basing its batch records.
    pub fn absorb_server(&mut self, t: ServerTrace) {
        let base = self.spans.len();
        merge(&mut self.spans, t.spans);
        self.batches.extend(t.batches.into_iter().map(|mut b| {
            b.span += base;
            b
        }));
        self.admissions.extend(t.admissions);
    }

    /// Sessions plus steps: what `failed` and `fail_ratio` count against.
    pub fn attempted(&self) -> u64 {
        self.sessions + self.steps
    }

    /// The end-to-end metrics (measured with tracing off).
    ///
    /// # Errors
    ///
    /// When a percentile lacks the samples to be reported.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let steps = self.steps.max(1) as f64;
        Ok(vec![
            (
                "steps_per_s",
                block_rate(&self.completions_s).ok_or("too few steps for a rate")?,
                "1/s",
            ),
            (
                "step_ms_p50",
                median(&self.step_ms).ok_or("no steps")?,
                "ms",
            ),
            ("step_ms_p95", tail_percentile(&self.step_ms, 0.95)?, "ms"),
            ("wire_bytes_per_step", self.wire_bytes as f64 / steps, "B"),
            ("loss_final", self.loss_final, "nats"),
            ("sessions_live_peak", self.sessions_live_peak, "count"),
            (
                "admit_wait_ms_p50",
                median(&self.admit_wait_ms).ok_or("no admissions")?,
                "ms",
            ),
            ("rss_peak_mb", self.rss_peak_mb, "MiB"),
            ("setup_s", median(&self.setup_s).ok_or("no set-up")?, "s"),
        ])
    }

    /// The per-layer metrics (from the traced windows of a traced run).
    /// A layer the workload bypasses reports 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t0 = self.timing_start_ns;
        let selfs = self_times(&self.spans);
        let timed = |i: usize| self.spans[i].start_ns >= t0;
        let self_ns = |names: &[&str]| -> Vec<f64> {
            (0..self.spans.len())
                .filter(|&i| timed(i) && names.contains(&self.spans[i].name))
                .map(|i| selfs[i] as f64)
                .collect()
        };
        let traced_steps = self_ns(&[FRONT_BWD]).len().max(1) as f64;
        let per_step_us = |names: &[&str]| self_ns(names).iter().sum::<f64>() / traced_steps / 1e3;

        let batches: Vec<&BatchRec> = self.batches.iter().filter(|b| timed(b.span)).collect();
        let per_msg_ms = |grads: bool| {
            let (ns, msgs) = batches
                .iter()
                .filter(|b| b.members.iter().all(|m| m.1 == grads))
                .fold((0.0, 0usize), |(ns, n), b| {
                    (ns + self.spans[b.span].dur_ns() as f64, n + b.members.len())
                });
            ns / msgs.max(1) as f64 / 1e6
        };
        let msgs: usize = batches.iter().map(|b| b.members.len()).sum();
        let handler_ns: f64 = self_ns(&[BATCH, HANDLE, HANDLE_CONNECT]).iter().sum();
        let connect_ns: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == HANDLE_CONNECT)
            .map(|s| s.dur_ns() as f64)
            .collect();
        let peak = self
            .admissions
            .iter()
            .max_by_key(|a| a.live_sessions)
            .copied();
        let (sweeps_per_step, max_batch) = self.event_loop.map_or((0.0, 0.0), |(st, steps)| {
            (st.sweeps as f64 / steps.max(1) as f64, st.max_batch as f64)
        });
        let pool = self.pool.unwrap_or(PoolStats {
            hits: 0,
            misses: 0,
            recycled: 0,
            dropped: 0,
            bytes_copied: 0,
        });
        vec![
            (
                "client.front_fwd_ms",
                mean(&self_ns(&[FRONT_FWD])) / 1e6,
                "ms",
            ),
            (
                "client.tail_bwd_ms",
                mean(&self_ns(&[TAIL_BWD])) / 1e6,
                "ms",
            ),
            (
                "client.front_bwd_ms",
                mean(&self_ns(&[FRONT_BWD])) / 1e6,
                "ms",
            ),
            (
                "codec.encode_us",
                per_step_us(&[ENCODE_ACT, ENCODE_GRAD]),
                "us",
            ),
            ("codec.decode_us", per_step_us(&[DECODE]), "us"),
            ("server.fwd_ms_per_msg", per_msg_ms(false), "ms"),
            ("server.bwd_ms_per_msg", per_msg_ms(true), "ms"),
            (
                "server.msgs_per_batch",
                msgs as f64 / batches.len().max(1) as f64,
                "count",
            ),
            (
                "server.busy_share",
                handler_ns / self.traced_wall_ns.max(1) as f64,
                "ratio",
            ),
            ("server.connect_us", mean(&connect_ns) / 1e3, "us"),
            (
                "admit.sheds_per_session",
                self.sheds as f64 / self.sessions.max(1) as f64,
                "count",
            ),
            (
                "admit.reserved_bytes_per_session",
                peak.map_or(0.0, |a| {
                    a.reserved_bytes as f64 / a.live_sessions.max(1) as f64
                }),
                "B",
            ),
            (
                "admit.utilization_peak_pct",
                self.admissions
                    .iter()
                    .map(|a| a.utilization_pct)
                    .fold(0.0, f64::max),
                "%",
            ),
            ("loop.overhead_ms", self.loop_overhead_ms(), "ms"),
            ("loop.sweeps_per_step", sweeps_per_step, "count"),
            ("loop.max_batch", max_batch, "count"),
            ("pool.hit_rate", pool.hit_rate(), "ratio"),
            (
                "pool.bytes_copied_per_step",
                pool.bytes_copied as f64 / self.steps.max(1) as f64,
                "B",
            ),
            ("trace.overhead_pct", self.trace_overhead_pct(), "%"),
            ("trace.step_ms", self.traced_step_ms(), "ms"),
        ]
    }

    /// Mean per step of (client round trip − handler time of the batch
    /// that carried the message), summed over a step's two round trips.
    /// A batch carries a round trip's message when it lists the client
    /// with the same direction and runs inside the round trip.
    fn loop_overhead_ms(&self) -> f64 {
        let mut per_step: HashMap<(u64, u64), (u32, f64)> = HashMap::new();
        for rt in self
            .spans
            .iter()
            .filter(|s| s.start_ns >= self.timing_start_ns)
        {
            let grads = match rt.name {
                RT_ACT => false,
                RT_GRAD => true,
                _ => continue,
            };
            let carried = self.batches.iter().find(|b| {
                let s = &self.spans[b.span];
                s.start_ns >= rt.start_ns
                    && s.end_ns <= rt.end_ns
                    && b.members.contains(&(rt.client, grads))
            });
            if let Some(b) = carried {
                let e = per_step.entry((rt.client, rt.step)).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += (rt.dur_ns() - self.spans[b.span].dur_ns()) as f64;
            }
        }
        let whole: Vec<f64> = per_step
            .values()
            .filter(|(n, _)| *n == 2)
            .map(|(_, ns)| ns / 1e6)
            .collect();
        mean(&whole)
    }

    /// Cost of tracing: the traced windows' time per step over the
    /// untraced windows', as a percentage above 1.
    fn trace_overhead_pct(&self) -> f64 {
        let per_step = |traced: bool| {
            let (s, n) = self
                .units
                .iter()
                .filter(|u| u.traced == traced)
                .fold((0.0, 0u64), |(s, n), u| (s + u.dur_s, n + u.steps));
            s / n.max(1) as f64
        };
        let untraced = per_step(false);
        if untraced == 0.0 {
            return 0.0;
        }
        (per_step(true) / untraced - 1.0) * 100.0
    }

    /// Mean traced step: front-forward start to front-backward end of
    /// each `(client, step)` under one recorded root span (a TCP step or
    /// a `pool_admit` round). Ids repeat when a cohort re-arrives; the
    /// root keeps the two ends of one step together.
    fn traced_step_ms(&self) -> f64 {
        type Ends = (Option<u64>, Option<u64>);
        let mut bounds: HashMap<(usize, u64, u64), Ends> = HashMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.start_ns >= self.timing_start_ns)
        {
            let Some(root) = s.parent else { continue };
            let e = bounds.entry((root, s.client, s.step)).or_default();
            match s.name {
                FRONT_FWD => e.0 = Some(s.start_ns),
                FRONT_BWD => e.1 = Some(s.end_ns),
                _ => {}
            }
        }
        let steps: Vec<f64> = bounds
            .values()
            .filter_map(|&(a, z)| Some((z? - a?) as f64 / 1e6))
            .collect();
        mean(&steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ROUND;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, client: u64, step: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            client,
            step,
        }
    }

    #[test]
    fn loop_overhead_subtracts_the_carrying_batch() {
        let mut m = Measured {
            spans: vec![
                span(RT_ACT, 100, 200, 7, 0),
                span(RT_GRAD, 300, 500, 7, 0),
                span(BATCH, 120, 180, 7, 0),
                span(BATCH, 320, 470, 7, 0),
                // A batch of another client inside the round trip is
                // not this message's batch.
                span(BATCH, 110, 115, 8, 0),
            ],
            ..Measured::default()
        };
        m.batches = vec![
            BatchRec {
                span: 2,
                members: vec![(7, false)],
            },
            BatchRec {
                span: 3,
                members: vec![(7, true)],
            },
            BatchRec {
                span: 4,
                members: vec![(8, false)],
            },
        ];
        // (100 - 60) + (200 - 150) = 90 ns.
        assert!((m.loop_overhead_ms() - 90e-6).abs() < 1e-12);
    }

    #[test]
    fn traced_step_pairs_ends_under_one_root_only() {
        let child = |name, start_ns, end_ns, parent| Span {
            parent: Some(parent),
            ..span(name, start_ns, end_ns, 3, 0)
        };
        let m = Measured {
            spans: vec![
                span(ROUND, 0, 100, 0, 0),
                child(FRONT_FWD, 10, 20, 0),
                child(FRONT_BWD, 80, 90, 0),
                // The same (client, step) id re-arrives in a later round
                // whose front forward went untraced: no pair.
                span(ROUND, 1000, 1100, 0, 0),
                child(FRONT_BWD, 1080, 1090, 3),
            ],
            ..Measured::default()
        };
        assert!((m.traced_step_ms() - 80e-6).abs() < 1e-12);
    }

    #[test]
    fn trace_overhead_compares_time_per_step() {
        let m = Measured {
            units: vec![
                Unit {
                    dur_s: 1.0,
                    steps: 10,
                    traced: false,
                },
                Unit {
                    dur_s: 1.1,
                    steps: 10,
                    traced: true,
                },
            ],
            ..Measured::default()
        };
        assert!((m.trace_overhead_pct() - 10.0).abs() < 1e-9);
    }
}
