//! The closed-loop runner shared by every workload: set up, iterate for
//! the requested seconds, check outputs, and report.
//!
//! A workload has a fixed set of seeded inputs. A run drives whole
//! passes over all of them, so every commit is scored on the same inputs
//! however fast it is, and stops before a pass that would end after the
//! requested seconds.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced
//! run (`--trace 1`) alternates untraced and traced passes, reports
//! the per-layer metrics from the traced ones, and the tracing overhead
//! as traced minus untraced for every end-to-end metric.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Seconds of set-ups per run, at least, so that a set-up of a few tens
/// of milliseconds is repeated often enough to read steadily.
const SETUP_MIN_S: f64 = 2.0;
/// Untraced passes a run makes however short `--seconds` is, so that
/// every input is checked against a rerun of itself.
const MIN_PASSES: usize = 2;

/// How big a run's inputs are. `Tiny` exists for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Output checks. Each check is one operation output compared against
/// what it must be; `error_rate = failed / attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for stderr.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// The first run of an input records the digest of its rendered
    /// outputs in `slot`; every later run of that input must reproduce
    /// it. Slots hold digests, not text, so that outputs kept for the
    /// check do not fragment the heap whose peak the benchmark reports.
    pub fn replay(&mut self, slot: &mut Option<u64>, what: &str, rendered: &str) {
        let mut h = DefaultHasher::new();
        rendered.hash(&mut h);
        let got = h.finish();
        let want = *slot.get_or_insert(got);
        self.check(want == got, || {
            let head: String = rendered.chars().take(300).collect();
            format!("{what} differs from its first run; now: {head}")
        });
    }
}

/// Per-layer samples from traced iterations; each metric reports the
/// median of its samples.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        self.samples.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }
}

/// What one iteration did: the seconds its timed calls took and the work
/// items it completed.
#[derive(Debug, Clone, Copy)]
pub struct Iter {
    pub secs: f64,
    pub items: f64,
}

/// Each input's fastest iteration over a run's passes.
#[derive(Debug)]
struct Best {
    secs: Vec<f64>,
    items: Vec<f64>,
}

impl Best {
    fn new(inputs: usize) -> Self {
        Best {
            secs: vec![f64::INFINITY; inputs],
            items: vec![0.0; inputs],
        }
    }

    fn add(&mut self, input: usize, it: Iter) {
        self.secs[input] = self.secs[input].min(it.secs);
        self.items[input] = it.items;
    }

    /// All inputs' items over the sum of their best times. On a shared
    /// host interference only ever slows an iteration down (the same
    /// query swings by 1.8x within a minute), so an input's best time is
    /// the steadiest estimate of the program's own speed on it.
    fn items_per_s(&self) -> f64 {
        self.items.iter().sum::<f64>() / self.secs.iter().sum::<f64>().max(1e-9)
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Build the run's inputs from the seed. Everything here counts as
    /// set-up; spans go to `rec` in a traced set-up.
    fn setup(seed: u64, scale: Scale, rec: Option<&mut Recorder>, layers: &mut Layers) -> Self;

    /// The number of inputs in one pass; a pass drives them in order.
    fn inputs(&self) -> usize;

    /// One closed-loop iteration on `input` through the program's public
    /// entry points. Only the program calls are timed; checks run after.
    fn iterate(&mut self, input: usize, checks: &mut Checks) -> Iter;

    /// The same work composed from the public pieces the entry points
    /// call, with spans around each layer and timing shims on the
    /// per-packet callbacks. Its outputs are checked against the
    /// untraced runs of the same input.
    fn iterate_traced(
        &mut self,
        input: usize,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Iter;

    /// End-of-run work for a traced run (solo replays and the like).
    fn finish_traced(&mut self, _rec: &mut Recorder, _layers: &mut Layers, _checks: &mut Checks) {}

    /// End-of-run checks, outside any timing.
    fn finish(&mut self, _checks: &mut Checks) {}
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    pub checks: Checks,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans: String,
    /// Every plain (untraced) iteration, in order.
    pub iterations: Vec<Iter>,
    /// Whole passes over the inputs (untraced ones in a traced run).
    pub passes: usize,
    /// When set-up ended and when the first timed operation started,
    /// relative to the start of the run.
    pub setup_end: Duration,
    pub first_op: Duration,
}

fn set_up<W: Workload>(seed: u64, scale: Scale) -> (W, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(seed, scale, None, &mut Layers::default()));
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Run `W` in whole passes for at most `seconds` (at least `MIN_PASSES`
/// untraced passes, or one of each kind when traced).
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Report {
    let begin = Instant::now();
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let (mut w, setup_s) = set_up::<W>(seed, scale);
    let mut rec = Recorder::new(seed);

    let mut traced_setup_s = 0.0;
    let mut rss_before_trace = None;
    if traced {
        drop(w);
        let id = rec.open("setup");
        w = W::setup(seed, scale, Some(&mut rec), &mut layers);
        traced_setup_s = rec.close(id);
    }
    let setup_end = begin.elapsed();

    let inputs = w.inputs();
    let min_passes = if traced { 1 } else { MIN_PASSES };
    let (mut plain, mut with_trace) = (Best::new(inputs), Best::new(inputs));
    let mut items: Vec<Option<f64>> = vec![None; inputs];
    let mut same_items = |input: usize, it: Iter, checks: &mut Checks| {
        let want = *items[input].get_or_insert(it.items);
        checks.check(want == it.items, || {
            format!(
                "input {input} completed {} items, first run {want}",
                it.items
            )
        });
        it
    };
    let mut iterations = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    let first_op = begin.elapsed();
    loop {
        for input in 0..inputs {
            let it = same_items(input, w.iterate(input, &mut checks), &mut checks);
            plain.add(input, it);
            iterations.push(it);
        }
        if traced {
            // Steady-state memory is reached after one plain pass;
            // growth from here on is the recorder's.
            rss_before_trace.get_or_insert_with(peak_rss_mb);
            for input in 0..inputs {
                let id = rec.open("iteration");
                let it = w.iterate_traced(input, &mut rec, &mut layers, &mut checks);
                rec.close(id);
                with_trace.add(input, same_items(input, it, &mut checks));
            }
        }
        passes += 1;
        // Stop before a pass that would end after `seconds`.
        let elapsed = secs(start);
        if passes >= min_passes && elapsed + elapsed / passes as f64 > seconds {
            break;
        }
    }
    if traced {
        w.finish_traced(&mut rec, &mut layers, &mut checks);
    }
    w.finish(&mut checks);

    let mut metrics = Vec::new();
    if traced {
        for m in PER_LAYER {
            let v = match m.name {
                "overhead.setup_s" => traced_setup_s - setup_s,
                "overhead.items_per_s" => plain.items_per_s() - with_trace.items_per_s(),
                "overhead.peak_rss_mb" => peak_rss_mb() - rss_before_trace.unwrap_or(0.0),
                "process.peak_rss_mb" => peak_rss_mb(),
                name => layers.median(name).unwrap_or(0.0),
            };
            metrics.push((m.name.to_string(), v, m.unit.to_string()));
        }
    } else {
        for m in END_TO_END {
            let v = match m.name {
                "setup_s" => setup_s,
                "items_per_s" => plain.items_per_s(),
                other => unreachable!("unhandled end-to-end metric {other}"),
            };
            metrics.push((m.name.to_string(), v, m.unit.to_string()));
        }
    }
    for (name, v, _) in &metrics {
        checks.check(v.is_finite(), || format!("metric {name} is not finite"));
    }
    Report {
        checks,
        metrics,
        spans: if traced {
            rec.to_json_lines()
        } else {
            String::new()
        },
        iterations,
        passes,
        setup_end,
        first_op,
    }
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Process peak resident set in MB, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
