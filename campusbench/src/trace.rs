//! The traced run's span recorder and per-packet timing shims.
//!
//! Spans are recorded only here, in the benchmark, around calls into the
//! program's public functions. Each span has a name, a start and end
//! (nanoseconds since the recorder was made), its parent span and the run
//! id. Spans stay in memory and are written out once, when the run ends.
//!
//! Per-packet callbacks would drown the recorder at one span per packet,
//! so they go through [`TimedHooks`] and [`TimedFilter`]: each callback
//! kind accumulates busy time and a call count, and lands as one
//! aggregate span per run under the span that was open when the shim
//! was created.

use campuslab::netsim::{
    Commands, Dir, DropReason, FilterAction, LinkId, NodeId, Packet, PacketFilter, SimDuration,
    SimHooks, SimTime,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub count: u64,
    /// Time the span actually covers: `end - start` for an ordinary span,
    /// the summed callback time for an aggregate one.
    pub busy_ns: u64,
}

/// In-memory span recorder with an open-span stack.
pub struct Recorder {
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            count: 1,
            busy_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            let s = &mut self.spans[top];
            s.end_ns = end_ns;
            s.busy_ns = end_ns - s.start_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].busy_ns as f64 / 1e9
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Fold a shim's per-callback-kind totals into aggregate child spans
    /// of `parent`, stamped with the parent's interval.
    pub fn absorb(&mut self, parent: usize, prefix: &str, calls: &[(&str, CallStat)]) {
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for (kind, stat) in calls {
            if stat.count == 0 {
                continue;
            }
            self.spans.push(Span {
                name: format!("{prefix}.{kind}"),
                start_ns,
                end_ns,
                parent: Some(parent),
                run_id: self.run_id,
                count: stat.count,
                busy_ns: stat.ns,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span duration minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(covered)
    }

    /// All spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{},\"count\":{},\"busy_ns\":{},\"self_ns\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run_id,
                s.count,
                s.busy_ns,
                self.self_ns(id)
            ));
        }
        out
    }
}

/// Time `f`, as a span when a recorder is given.
pub fn span<T>(rec: Option<&mut Recorder>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    match rec {
        Some(rec) => rec.time(name, f),
        None => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        }
    }
}

/// Accumulated time and calls of one callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    pub count: u64,
    pub ns: u64,
}

impl CallStat {
    fn add(&mut self, since: Instant) {
        self.count += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// A [`SimHooks`] wrapper timing every callback of the wrapped hooks.
pub struct TimedHooks<H> {
    pub inner: H,
    pub tap: CallStat,
    pub deliver: CallStat,
    pub drop: CallStat,
    pub timer: CallStat,
}

impl<H: SimHooks> TimedHooks<H> {
    pub fn new(inner: H) -> Self {
        TimedHooks {
            inner,
            tap: CallStat::default(),
            deliver: CallStat::default(),
            drop: CallStat::default(),
            timer: CallStat::default(),
        }
    }

    /// Per-kind totals, for [`Recorder::absorb`].
    pub fn calls(&self) -> [(&'static str, CallStat); 4] {
        [
            ("on_tap", self.tap),
            ("on_deliver", self.deliver),
            ("on_drop", self.drop),
            ("on_timer", self.timer),
        ]
    }

    /// Seconds spent inside the wrapped hooks, all kinds together.
    pub fn busy_s(&self) -> f64 {
        self.calls().iter().map(|(_, c)| c.ns).sum::<u64>() as f64 / 1e9
    }
}

impl<H: SimHooks> SimHooks for TimedHooks<H> {
    fn on_tap(
        &mut self,
        now: SimTime,
        link: LinkId,
        dir: Dir,
        packet: &Packet,
        cmds: &mut Commands,
    ) {
        let t = Instant::now();
        self.inner.on_tap(now, link, dir, packet, cmds);
        self.tap.add(t);
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        latency: SimDuration,
        cmds: &mut Commands,
    ) {
        let t = Instant::now();
        self.inner.on_deliver(now, node, packet, latency, cmds);
        self.deliver.add(t);
    }

    fn on_drop(&mut self, now: SimTime, reason: DropReason, packet: &Packet, cmds: &mut Commands) {
        let t = Instant::now();
        self.inner.on_drop(now, reason, packet, cmds);
        self.drop.add(t);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        let t = Instant::now();
        self.inner.on_timer(now, token, cmds);
        self.timer.add(t);
    }

    fn is_null(&self) -> bool {
        self.inner.is_null()
    }
}

/// Shared counters a [`TimedFilter`] reports into after it has been
/// moved into the network.
#[derive(Debug, Default)]
pub struct FilterClock {
    count: AtomicU64,
    ns: AtomicU64,
}

impl FilterClock {
    pub fn stat(&self) -> CallStat {
        CallStat {
            count: self.count.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// A [`PacketFilter`] wrapper timing every `decide` of the wrapped filter.
pub struct TimedFilter {
    inner: Box<dyn PacketFilter>,
    clock: Arc<FilterClock>,
}

impl TimedFilter {
    pub fn new(inner: Box<dyn PacketFilter>) -> (Box<Self>, Arc<FilterClock>) {
        let clock = Arc::new(FilterClock::default());
        (
            Box::new(TimedFilter {
                inner,
                clock: clock.clone(),
            }),
            clock,
        )
    }
}

impl PacketFilter for TimedFilter {
    fn decide(&mut self, now: SimTime, packet: &Packet) -> FilterAction {
        let t = Instant::now();
        let action = self.inner.decide(now, packet);
        self.clock.count.fetch_add(1, Ordering::Relaxed);
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
