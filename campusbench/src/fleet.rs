//! `tenant_fleet`: the campus as a shared testbed. A cast of 26 tenants
//! from the TenantPlaza palette — probes, capture tenants, Defend
//! tenants, Guarded tenants whose wildcard candidate must never be enforced,
//! chaos neighbours, two TCAM hogs that force a second admission round,
//! and one infeasible tenant that must get a typed rejection — is
//! submitted to a fresh plaza and run to completion on the worker pool.
//! Every tenant's workload seed derives from the run seed and the fleet
//! number; tenant traffic leaves out the Pareto-sized bulk classes, so
//! tenants differ by their job, not by one giant transfer. One iteration
//! is one fleet; the inputs are `FLEETS` seeded fleets, because the
//! heaviest tenant sets a fleet's makespan. Work items are completed
//! tenants.

use crate::gen::{derive, without_bulk};
use crate::harness::{Checks, Iter, Layers, Scale, Workload};
use crate::trace::{span, Recorder};
use campuslab::control::{run_development_loop, DevLoopConfig, RolloutEventKind};
use campuslab::dataplane::{
    Action, AdmissionDecision, PipelineProgram, ResourceError, TableEntry, TernaryMatch,
    FIELD_ORDER,
};
use campuslab::features::{window_dataset, LabelMode, WindowConfig};
use campuslab::ml::{DecisionTree, TreeConfig};
use campuslab::netsim::{Campus, ChaosPlan, SimDuration, SimTime};
use campuslab::plaza::{Plaza, PlazaConfig, PlazaReport, TenantJob, TenantSlice, TenantSpec};
use campuslab::testbed::{collect, Scenario};
use std::time::Instant;

/// TCAM entries a hog reserves: two cannot share the default switch.
const HOG_TCAM: usize = 12_500;
/// Distinct seeded fleets: the inputs of one pass.
pub const FLEETS: usize = 12;

/// A wildcard drop rule — "block everything" — that a guarded tenant's
/// guard must never enforce.
fn wildcard_drop() -> PipelineProgram {
    let matches = [TernaryMatch::ANY; FIELD_ORDER.len()];
    PipelineProgram::new(
        "warden-wildcard",
        vec![TableEntry {
            matches,
            action: Action::Drop,
            priority: 9,
            confidence: 0.5,
        }],
    )
}

pub struct Fleet {
    casts: Vec<Vec<TenantSpec>>,
    /// Name of the tenant that must be rejected.
    infeasible: String,
    /// Digest of each tenant's fingerprint (by fleet, then cast
    /// position) the first time it ran; reruns must reproduce them.
    first: Vec<Vec<Option<u64>>>,
    /// The last traced fleet and its plaza wall time, for the parallel
    /// speed-up.
    last_traced: Option<(usize, f64)>,
}

/// The cast, in submission order. Hogs come after every regular tenant
/// (strict FIFO: a queued hog blocks everyone behind it) and the
/// infeasible tenant comes last.
fn cast(
    seed: u64,
    fleet: usize,
    scale: Scale,
    program: &PipelineProgram,
    model: &DecisionTree,
) -> Vec<TenantSpec> {
    let tenant = |name: String, i: u64| {
        let mut spec = TenantSpec::probe(name);
        spec.scenario.campus.seed = derive(seed, &[40, fleet as u64, i]);
        spec.scenario.workload.seed = derive(seed, &[41, fleet as u64, i]);
        without_bulk(&mut spec.scenario.workload.mix);
        if scale == Scale::Tiny {
            spec.scenario.workload.duration = SimDuration::from_secs(2);
        }
        spec
    };
    let armed = |mut spec: TenantSpec, job: TenantJob| {
        spec.program = program.clone();
        spec.window_model = Some(model.clone());
        spec.job = job;
        spec
    };
    let (probes, capture, defend, guarded, chaos, hogs) = if scale == Scale::Tiny {
        (2, 1, 1, 1, 1, 2)
    } else {
        (12, 3, 4, 2, 2, 2)
    };
    let mut i = 0u64;
    let mut next = |prefix: &str, n: usize| {
        (0..n)
            .map(|k| {
                i += 1;
                tenant(format!("{prefix}{k}"), i)
            })
            .collect::<Vec<_>>()
    };
    let mut out = next("probe", probes);
    out.extend(next("capture", capture).into_iter().map(|mut s| {
        s.capture = true;
        s
    }));
    out.extend(
        next("defend", defend)
            .into_iter()
            .map(|s| armed(s, TenantJob::Defend)),
    );
    out.extend(next("guarded", guarded).into_iter().map(|s| {
        armed(
            s,
            TenantJob::Guarded {
                submissions: vec![(SimTime::from_secs(1), wildcard_drop())],
            },
        )
    }));
    out.extend(next("chaos", chaos).into_iter().map(|mut s| {
        let campus = Campus::build(s.scenario.campus.clone());
        let mut plan = ChaosPlan::new();
        plan.link_flap(
            campus.border_link,
            SimTime::from_millis(600),
            SimTime::from_millis(1400),
        );
        s.chaos = Some(plan);
        s
    }));
    out.extend(next("hog", hogs).into_iter().map(|mut s| {
        s.reserved_tcam = HOG_TCAM;
        s
    }));
    out.extend(next("monster", 1).into_iter().map(|mut s| {
        s.reserved_tcam = 1_000_000;
        s
    }));
    out
}

impl Fleet {
    /// The replay slot of tenant `name` in fleet `fleet`.
    fn slot(&mut self, fleet: usize, name: &str) -> &mut Option<u64> {
        let i = self.casts[fleet]
            .iter()
            .position(|s| s.name == name)
            .expect("every outcome belongs to the cast");
        &mut self.first[fleet][i]
    }

    fn check(
        &mut self,
        fleet: usize,
        decisions: &[AdmissionDecision],
        report: &PlazaReport,
        checks: &mut Checks,
    ) -> f64 {
        for (spec, decision) in self.casts[fleet].iter().zip(decisions) {
            let name = &spec.name;
            if *name == self.infeasible {
                checks.check(
                    matches!(
                        decision,
                        AdmissionDecision::Rejected(ResourceError::ProgramTooLarge { .. })
                    ),
                    || format!("{name} should be rejected as too large, got {decision:?}"),
                );
                checks.check(report.outcome(name).is_none(), || {
                    format!("rejected {name} ran")
                });
            } else {
                checks.check(report.outcome(name).is_some(), || {
                    format!("admitted {name} never finished")
                });
            }
        }
        checks.check(report.rounds >= 2, || {
            format!("hogs should force a second round, got {}", report.rounds)
        });
        // A wildcard drop must never be enforced. It is usually vetoed in
        // shadow; on light seeds the shadow stage may still be gathering
        // evidence when the slice ends, which is safe too.
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.name.starts_with("guarded"))
        {
            let enforced = o.events.iter().any(|e| {
                matches!(
                    e.kind,
                    RolloutEventKind::EnteredCanary
                        | RolloutEventKind::EnteredFull
                        | RolloutEventKind::Committed
                )
            });
            checks.check(!enforced, || {
                format!("{} enforced the wildcard candidate: {:?}", o.name, o.events)
            });
        }
        for o in &report.outcomes {
            let slot = self.slot(fleet, &o.name);
            checks.replay(slot, &format!("tenant {}", o.name), &o.fingerprint());
        }
        report.outcomes.len() as f64
    }
}

impl Workload for Fleet {
    fn setup(seed: u64, scale: Scale, rec: Option<&mut Recorder>, _layers: &mut Layers) -> Self {
        // The Defend and Guarded tenants deploy one vetted program and
        // window model, developed on the compact scenario as it ships (the
        // same for every seed: tenants, not the program, vary by seed).
        let ((program, model), _) = span(rec, "setup.develop", || {
            let mut scenario = Scenario::small();
            without_bulk(&mut scenario.workload.mix);
            let data = collect(&scenario);
            let dev = run_development_loop(&data.packets, &DevLoopConfig::default());
            let wd = window_dataset(
                &data.packets,
                WindowConfig {
                    window_ns: 1_000_000_000,
                    min_packets: 5,
                },
                LabelMode::BinaryAttack,
            );
            (dev.program, DecisionTree::fit(&wd, TreeConfig::shallow(4)))
        });
        let casts: Vec<Vec<TenantSpec>> = (0..FLEETS)
            .map(|f| cast(seed, f, scale, &program, &model))
            .collect();
        let infeasible = casts[0].last().expect("non-empty cast").name.clone();
        let cast_len = casts[0].len();
        Fleet {
            casts,
            infeasible,
            first: vec![vec![None; cast_len]; FLEETS],
            last_traced: None,
        }
    }

    fn inputs(&self) -> usize {
        self.casts.len()
    }

    fn iterate(&mut self, fleet: usize, checks: &mut Checks) -> Iter {
        let specs = self.casts[fleet].clone();
        let t = Instant::now();
        let mut plaza = Plaza::new(PlazaConfig::default());
        let decisions: Vec<AdmissionDecision> =
            specs.into_iter().map(|s| plaza.submit(s)).collect();
        let report = plaza.run();
        let secs = t.elapsed().as_secs_f64();
        let items = self.check(fleet, &decisions, &report, checks);
        Iter { secs, items }
    }

    fn iterate_traced(
        &mut self,
        fleet: usize,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Iter {
        let specs = self.casts[fleet].clone();
        let t = Instant::now();
        let mut plaza = Plaza::new(PlazaConfig::default());
        let (decisions, admit_s) = rec.time("plaza.submit", || {
            specs
                .into_iter()
                .map(|s| plaza.submit(s))
                .collect::<Vec<_>>()
        });
        let (report, run_s) = rec.time("plaza.run", || plaza.run());
        let secs = t.elapsed().as_secs_f64();
        layers.push("dataplane.admit_s", admit_s);
        layers.push("plaza.run_s", run_s);
        layers.push("plaza.rounds", report.rounds as f64);
        layers.push("plaza.queued", report.obs.queued() as f64);
        layers.push("plaza.rejected", report.obs.rejected() as f64);
        self.last_traced = Some((fleet, run_s));
        let items = self.check(fleet, &decisions, &report, checks);
        Iter { secs, items }
    }

    /// Every admitted tenant of the last traced fleet once more, alone:
    /// its slice time, and its bytes against the co-scheduled run's.
    fn finish_traced(&mut self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) {
        let cfg = PlazaConfig::default();
        let (mut sum, mut max, mut sim_s, mut injected) = (0.0f64, 0.0f64, 0.0, 0u64);
        let Some((fleet, plaza_s)) = self.last_traced else {
            return;
        };
        for i in 0..self.casts[fleet].len() {
            let spec = self.casts[fleet][i].clone();
            if spec.name == self.infeasible {
                continue;
            }
            let name = spec.name.clone();
            let id = rec.open(format!("plaza.slice.{name}"));
            let mut slice = TenantSlice::build(spec, &cfg.switch, cfg.window, cfg.settle);
            let ((), run_s) = rec.time("netsim.run", || slice.run_to_completion());
            let outcome = slice.finish();
            let slice_s = rec.close(id);
            sum += slice_s;
            max = max.max(slice_s);
            sim_s += run_s;
            injected += outcome.net.injected;
            let slot = &mut self.first[fleet][i];
            checks.replay(slot, &format!("{name} run solo"), &outcome.fingerprint());
        }
        layers.push("plaza.slice_s_sum", sum);
        layers.push("plaza.slice_s_max", max);
        layers.push("plaza.parallel_speedup", sum / plaza_s.max(1e-9));
        layers.push("netsim.run_s", sim_s);
        layers.push("netsim.ns_per_pkt", sim_s * 1e9 / injected.max(1) as f64);
    }
}
