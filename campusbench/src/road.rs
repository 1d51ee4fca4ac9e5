//! `road_to_deployment`: the campus as testbed, the paper's four-step
//! road. A compact amplification scenario (the `Scenario::small` shape,
//! seeded, without the Pareto-sized bulk classes) is collected; the development loop runs once per teacher
//! (forest, GBT, MLP); the window model is trained; the forest-distilled
//! program is road-tested at the controller placement (detect, then
//! install) and preinstalled in the border switch; and the deployment
//! gate decides on both. The switch deployment must pass the gate. The
//! controller placement's verdict is reported, not required: when the
//! attack starts mid-window the detector fires one window later and
//! suppression lands near 72%, under the gate's 80%. One iteration is the whole road; the inputs are
//! `ROADS` seeded attack days on the compact scenario's campus.
//! Work items are roads driven: the learning steps dominate and their
//! cost follows the balanced training set, not the packet count.

use crate::compose;
use crate::gen::{derive, without_bulk};
use crate::harness::{Checks, Iter, Layers, Scale, Workload};
use crate::trace::{span, Recorder};
use campuslab::capture::PacketRecord;
use campuslab::control::{run_development_loop, DevLoopConfig, Placement, TeacherKind};
use campuslab::dataplane::{compile_tree, PipelineProgram};
use campuslab::features::{packet_dataset, window_dataset, LabelMode, WindowConfig};
use campuslab::ml::{
    fidelity, Classifier, DecisionTree, ForestConfig, GbtConfig, GradientBoostedTrees, Mlp,
    MlpConfig, Normalizer, RandomForest, TreeConfig,
};
use campuslab::netsim::{Campus, SimDuration};
use campuslab::testbed::{
    build_schedule, collect, deployment_decision, road_test, CollectedData, GateCriteria,
    RoadTestConfig, RoadTestOutcome, Scenario,
};
use campuslab::xai::distill;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Distinct seeded scenarios: the inputs of one pass.
pub const ROADS: usize = 4;

const WINDOW: WindowConfig = WindowConfig {
    window_ns: 1_000_000_000,
    min_packets: 5,
};

/// The three teachers, in road order; the forest's program is deployed.
fn teachers() -> [(&'static str, TeacherKind); 3] {
    [
        ("forest", TeacherKind::Forest(ForestConfig::default())),
        ("gbt", TeacherKind::Gbt(GbtConfig::default())),
        (
            "mlp",
            TeacherKind::Mlp(MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            }),
        ),
    ]
}

/// What one development loop must reproduce.
struct Dev {
    program: PipelineProgram,
    fidelity: f64,
    student_nodes: usize,
}

fn dev_signature(name: &str, d: &Dev) -> String {
    format!(
        "{name}: program {:?} fidelity {:?} student nodes {}",
        d.program, d.fidelity, d.student_nodes
    )
}

fn road_signature(o: &RoadTestOutcome) -> String {
    format!(
        "net {:?} filter {:?} ttm {:?} mitigations {:?} giveups {}",
        o.net,
        o.filter,
        o.time_to_mitigation,
        o.mitigations
            .iter()
            .map(|m| (m.victim, m.installed_at, m.attempts))
            .collect::<Vec<_>>(),
        o.giveups.len()
    )
}

pub struct Road {
    scenarios: Vec<Scenario>,
    /// Each scenario's outputs the first time it ran; reruns must match.
    first: Vec<Option<u64>>,
}

impl Road {
    /// Checks shared by both iteration paths.
    fn check(
        &mut self,
        road: usize,
        data: &CollectedData,
        devs: &[(&str, Dev)],
        controlled: &RoadTestOutcome,
        switched: &RoadTestOutcome,
        checks: &mut Checks,
    ) {
        let mut sig = vec![format!(
            "collect net {:?} packets {}",
            data.net,
            data.packets.len()
        )];
        sig.extend(devs.iter().map(|(n, d)| dev_signature(n, d)));
        sig.push(road_signature(controlled));
        sig.push(road_signature(switched));
        sig.push(format!(
            "controller gate {:?}",
            deployment_decision(controlled, GateCriteria::default())
        ));
        checks.replay(&mut self.first[road], "road outputs", &sig.join("\n"));
        let decision = deployment_decision(switched, GateCriteria::default());
        checks.check(decision.approved, || {
            format!(
                "deployment gate rejected the switch: {:?}",
                decision.reasons
            )
        });
    }

    /// The forest program preinstalled in the border switch.
    fn road_test_switch(&self, road: usize, program: PipelineProgram) -> RoadTestOutcome {
        road_test(
            &self.scenarios[road],
            program,
            None,
            RoadTestConfig {
                placement: Placement::Switch,
                ..RoadTestConfig::default()
            },
        )
    }
}

fn window_model(packets: &[PacketRecord]) -> DecisionTree {
    DecisionTree::fit(
        &window_dataset(packets, WINDOW, LabelMode::BinaryAttack),
        TreeConfig::shallow(4),
    )
}

/// An MLP behind its input normalizer, as the development loop wraps it.
struct NormalizedMlp {
    norm: Normalizer,
    model: Mlp,
}

impl Classifier for NormalizedMlp {
    fn n_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.model.predict_proba(&self.norm.transform_row(row))
    }
}

/// Per-layer seconds of one traced development loop.
#[derive(Default)]
struct DevTimes {
    dataset: f64,
    distill: f64,
    compile: f64,
}

/// [`run_development_loop`], recomposed from its public steps with a span
/// around each.
fn devloop_traced(
    name: &str,
    records: &[PacketRecord],
    cfg: &DevLoopConfig,
    rec: &mut Recorder,
    layers: &mut Layers,
    times: &mut DevTimes,
) -> Dev {
    let span_id = rec.open(format!("control.devloop.{name}"));
    let (data, dataset_s) = rec.time("features.dataset", || {
        packet_dataset(records, cfg.label_mode)
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut train, test) = data.split_by_order(cfg.train_frac);
    if let Some(ratio) = cfg.balance_ratio {
        train = train.balance(ratio, &mut rng);
    }
    let (teacher, fit_s): (Box<dyn Classifier + Send>, f64) =
        rec.time(format!("ml.fit.{name}"), || match cfg.teacher {
            TeacherKind::Forest(f) => {
                Box::new(RandomForest::fit(&train, f)) as Box<dyn Classifier + Send>
            }
            TeacherKind::Gbt(g) => Box::new(GradientBoostedTrees::fit(&train, g)),
            TeacherKind::Mlp(m) => {
                let norm = Normalizer::fit(&train);
                let model = Mlp::fit(&norm.transform(&train), m);
                Box::new(NormalizedMlp { norm, model })
            }
        });
    let ((student, report), distill_s) = rec.time("xai.distill", || {
        distill(teacher.as_ref(), &train, cfg.distill)
    });
    let ((program, _), compile_s) = rec.time("dataplane.compile", || {
        compile_tree(
            &student,
            cfg.compile,
            format!(
                "distilled-depth{}-gate{:.2}",
                report.student_depth, cfg.compile.confidence_gate
            ),
        )
    });
    let fid = fidelity(teacher.as_ref(), &student, &test);
    rec.close(span_id);
    times.dataset += dataset_s;
    times.distill += distill_s;
    times.compile += compile_s;
    layers.push(
        match name {
            "forest" => "ml.fit_s.forest",
            "gbt" => "ml.fit_s.gbt",
            _ => "ml.fit_s.mlp",
        },
        fit_s,
    );
    if name == "forest" {
        layers.push("xai.student_nodes", student.n_nodes() as f64);
        layers.push("xai.fidelity", fid);
        layers.push("dataplane.tcam_entries", program.n_entries() as f64);
    }
    Dev {
        program,
        fidelity: fid,
        student_nodes: student.n_nodes(),
    }
}

impl Workload for Road {
    fn setup(seed: u64, scale: Scale, rec: Option<&mut Recorder>, _layers: &mut Layers) -> Self {
        let scenarios: Vec<Scenario> = (0..ROADS)
            .map(|r| {
                let mut scenario = Scenario::small();
                scenario.workload.seed = derive(seed, &[31, r as u64]);
                without_bulk(&mut scenario.workload.mix);
                if scale == Scale::Tiny {
                    scenario.workload.duration = SimDuration::from_secs(4);
                }
                scenario
            })
            .collect();
        // Build the testbed once per scenario to confirm each carries its
        // attack before any road is driven.
        let (attacks, _) = span(rec, "traffic.generate", || {
            scenarios
                .iter()
                .map(|sc| {
                    let (schedule, victim, start) =
                        build_schedule(&Campus::build(sc.campus.clone()), sc);
                    victim.is_some() && start.is_some() && !schedule.is_empty()
                })
                .collect::<Vec<_>>()
        });
        assert!(
            attacks.iter().all(|&a| a),
            "a road scenario lost its attack"
        );
        Road {
            scenarios,
            first: vec![None; ROADS],
        }
    }

    fn inputs(&self) -> usize {
        self.scenarios.len()
    }

    fn iterate(&mut self, road: usize, checks: &mut Checks) -> Iter {
        let t = Instant::now();
        let data = collect(&self.scenarios[road]);
        let devs: Vec<(&str, Dev)> = teachers()
            .into_iter()
            .map(|(name, teacher)| {
                let r = run_development_loop(
                    &data.packets,
                    &DevLoopConfig {
                        teacher,
                        ..DevLoopConfig::default()
                    },
                );
                let student_nodes = r.student.n_nodes();
                (
                    name,
                    Dev {
                        program: r.program,
                        fidelity: r.fidelity,
                        student_nodes,
                    },
                )
            })
            .collect();
        let model = window_model(&data.packets);
        let controlled = road_test(
            &self.scenarios[road],
            devs[0].1.program.clone(),
            Some(Box::new(model)),
            RoadTestConfig {
                placement: Placement::Controller,
                ..RoadTestConfig::default()
            },
        );
        let switched = self.road_test_switch(road, devs[0].1.program.clone());
        let secs = t.elapsed().as_secs_f64();
        self.check(road, &data, &devs, &controlled, &switched, checks);
        Iter { secs, items: 1.0 }
    }

    fn iterate_traced(
        &mut self,
        road: usize,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Iter {
        let t = Instant::now();
        let data = compose::collect(&self.scenarios[road], rec, layers);
        let mut dev_s = 0.0;
        let mut times = DevTimes::default();
        let devs: Vec<(&str, Dev)> = teachers()
            .into_iter()
            .map(|(name, teacher)| {
                let t = Instant::now();
                let cfg = DevLoopConfig {
                    teacher,
                    ..DevLoopConfig::default()
                };
                let d = devloop_traced(name, &data.packets, &cfg, rec, layers, &mut times);
                dev_s += t.elapsed().as_secs_f64();
                (name, d)
            })
            .collect();
        layers.push("control.devloop_s", dev_s);
        let (wd, wd_s) = rec.time("features.window_dataset", || {
            window_dataset(&data.packets, WINDOW, LabelMode::BinaryAttack)
        });
        let (model, wfit_s) = rec.time("ml.fit.window", || {
            DecisionTree::fit(&wd, TreeConfig::shallow(4))
        });
        layers.push("ml.fit_s.window", wfit_s);
        let outcome = compose::road_test(
            &self.scenarios[road],
            devs[0].1.program.clone(),
            Box::new(model),
            RoadTestConfig {
                placement: Placement::Controller,
                ..RoadTestConfig::default()
            },
            rec,
            layers,
        );
        let (switched, _) = rec.time("testbed.road_test.switch", || {
            self.road_test_switch(road, devs[0].1.program.clone())
        });
        let secs = t.elapsed().as_secs_f64();
        layers.push("features.dataset_s", times.dataset + wd_s);
        layers.push("xai.distill_s", times.distill);
        layers.push("dataplane.compile_s", times.compile);
        layers.push(
            "control.ttm_ms",
            outcome
                .time_to_mitigation
                .map_or(f64::NAN, |d| d.as_nanos() as f64 / 1e6),
        );
        layers.push(
            "control.install_success_ratio",
            outcome.mitigations.len() as f64 / outcome.install_attempts().max(1) as f64,
        );
        layers.push("dataplane.suppression", outcome.suppression());
        layers.push(
            "dataplane.collateral_pkts",
            outcome.benign_packets_dropped as f64,
        );
        let approved = deployment_decision(&outcome, GateCriteria::default()).approved;
        layers.push("control.gate_approved", if approved { 1.0 } else { 0.0 });
        self.check(road, &data, &devs, &outcome, &switched, checks);
        Iter { secs, items: 1.0 }
    }
}
