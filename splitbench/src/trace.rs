//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every thread owns one [`Tracer`]; nothing is shared while a run is
//! measured. A disabled tracer is a pure pass-through: [`Tracer::enter`]
//! returns `None` after one branch and [`Tracer::exit`] ignores it.
//! Whether a tracer records is decided by the shared [`TraceClock`]:
//! never in an untraced run, and in a traced run during set-up and in
//! every other [`WINDOW`] of the measured interval, so the untraced
//! windows in between give the same-run rate that prices the tracing.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Length of one traced or untraced window of a traced run.
pub const WINDOW: Duration = Duration::from_millis(500);

/// One recorded call: `name` ran from `start_ns` to `end_ns` (nanoseconds
/// since the run's epoch) on behalf of `(client, step)`, inside the span
/// at index `parent` of the same tracer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub client: u64,
    pub step: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared time base and trace schedule of one run.
#[derive(Debug)]
pub struct TraceClock {
    epoch: Instant,
    traced_run: bool,
    timing_start: OnceLock<Instant>,
}

impl TraceClock {
    pub fn new(traced_run: bool) -> Arc<Self> {
        Arc::new(TraceClock {
            epoch: Instant::now(),
            traced_run,
            timing_start: OnceLock::new(),
        })
    }

    /// Marks the start of the measured interval (first call wins).
    pub fn start_timing(&self) -> Instant {
        *self.timing_start.get_or_init(Instant::now)
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to nanoseconds since the run's epoch.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// True while spans should be recorded.
    pub fn tracing_now(&self) -> bool {
        self.traced_run
            && match self.timing_start.get() {
                None => true,
                Some(t0) => window_is_traced(t0.elapsed()),
            }
    }
}

/// Odd windows of the measured interval are traced, even ones are not.
pub fn window_is_traced(since_timing_start: Duration) -> bool {
    (since_timing_start.as_nanos() / WINDOW.as_nanos()) % 2 == 1
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    clock: Arc<TraceClock>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    client: u64,
    step: u64,
}

/// Token returned by [`Tracer::enter`]; `None` when nothing was recorded.
pub type Entered = Option<usize>;

impl Tracer {
    pub fn new(clock: Arc<TraceClock>) -> Self {
        Tracer {
            clock,
            spans: Vec::new(),
            stack: Vec::new(),
            client: 0,
            step: 0,
        }
    }

    pub fn clock(&self) -> &Arc<TraceClock> {
        &self.clock
    }

    /// Sets the `(client, step)` id that later spans carry.
    pub fn set_id(&mut self, client: u64, step: u64) {
        self.client = client;
        self.step = step;
    }

    /// Opens a span if the clock says this moment is traced.
    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.clock.tracing_now() {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            client: self.client,
            step: self.step,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes the span `entered` opened (a no-op for `None`).
    pub fn exit(&mut self, entered: Entered) {
        if let Some(idx) = entered {
            self.spans[idx].end_ns = self.clock.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Hands over the recorded spans.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "open spans at take");
        std::mem::take(&mut self.spans)
    }
}

/// Appends `more` (one tracer's spans) to `all`, re-basing parent links.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            client: 0,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // and 90..120 sticks out past the parent's end.
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let st = self_times(&spans);
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(st, vec![40, 30, 30, 30]);
    }

    #[test]
    fn self_time_of_nested_spans_only_subtracts_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("mid", 20, 80, Some(0)),
            span("leaf", 30, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn covered_handles_touching_and_disjoint_intervals() {
        assert_eq!(covered_ns(vec![(0, 10), (10, 20), (30, 35)], 0, 100), 25);
        assert_eq!(covered_ns(vec![(50, 60)], 0, 40), 0);
        assert_eq!(covered_ns(Vec::new(), 0, 40), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let clock = TraceClock::new(false);
        let mut t = Tracer::new(clock);
        let e = t.enter("x");
        assert!(e.is_none());
        t.exit(e);
        assert!(t.take().is_empty());
    }

    #[test]
    fn traced_run_records_nested_spans_with_ids() {
        let clock = TraceClock::new(true);
        let mut t = Tracer::new(clock);
        t.set_id(3, 7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].client, spans[1].step), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut all = vec![span("a", 0, 1, None)];
        merge(
            &mut all,
            vec![span("b", 0, 2, None), span("c", 0, 1, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn windows_alternate() {
        assert!(!window_is_traced(Duration::ZERO));
        assert!(window_is_traced(WINDOW));
        assert!(!window_is_traced(WINDOW * 2 + Duration::from_millis(1)));
    }
}
