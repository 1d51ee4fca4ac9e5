//! Self-tests of the benchmark itself. Run with
//! `cargo test --release --manifest-path campusbench/Cargo.toml`.

use campusbench::compose;
use campusbench::gen::{derive, ConsoleGen, PERIOD, RECORDS_PER_TAP_SEC, TAPS};
use campusbench::harness::{peak_rss_mb, run, Layers, Report, Scale, Workload};
use campusbench::metrics::{END_TO_END, PER_LAYER};
use campusbench::trace::Recorder;
use campusbench::{campus_day::CampusDay, fleet::Fleet, road::Road, store_console::StoreConsole};
use campuslab::control::{run_development_loop, DevLoopConfig, Placement};
use campuslab::features::{window_dataset, LabelMode, WindowConfig};
use campuslab::ml::{DecisionTree, TreeConfig};
use campuslab::testbed::{collect, road_test, RoadTestConfig, Scenario};

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
}

fn emits_every_metric<W: Workload>() {
    let plain = run::<W>(5, 0.05, false, Scale::Tiny);
    assert!(
        plain.checks.failed == 0,
        "untraced checks failed: {:?}",
        plain.checks.notes
    );
    assert_eq!(
        names(&plain),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert!(
        plain
            .metrics
            .iter()
            .all(|(_, v, _)| v.is_finite() && *v > 0.0),
        "{:?}",
        plain.metrics
    );
    assert!(
        plain.setup_end <= plain.first_op,
        "set-up must end before the first timed operation"
    );

    let traced = run::<W>(5, 0.05, true, Scale::Tiny);
    assert!(
        traced.checks.failed == 0,
        "traced checks failed: {:?}",
        traced.checks.notes
    );
    assert_eq!(
        names(&traced),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert!(traced.metrics.iter().all(|(_, v, _)| v.is_finite()));
    assert!(!traced.spans.is_empty());
    assert!(traced.setup_end <= traced.first_op);
}

#[test]
fn campus_day_emits_every_metric() {
    emits_every_metric::<CampusDay>();
}

#[test]
fn store_console_emits_every_metric() {
    emits_every_metric::<StoreConsole>();
}

#[test]
fn road_to_deployment_emits_every_metric() {
    emits_every_metric::<Road>();
}

#[test]
fn tenant_fleet_emits_every_metric() {
    emits_every_metric::<Fleet>();
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for n in &all {
        assert!(!n.is_empty() && n.len() <= 64, "{n}");
        assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "duplicate metric names");
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde::json::parse(&text).expect("valid JSON");
    let text_of = |v: &serde::json::Value, k: &str| match v.get(k) {
        Some(serde::json::Value::Str(s)) => s.clone(),
        other => panic!("{k}: expected a string, got {other:?}"),
    };
    let items = |key: &str| {
        json.get(key)
            .expect(key)
            .as_array()
            .expect("a list")
            .to_vec()
    };
    let listed = |key: &str| -> Vec<(String, String, String)> {
        items(key)
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect()
    };
    let own = |v: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
        v.into_iter()
            .map(|(a, b, c)| (a.into(), b.into(), c.into()))
            .collect()
    };
    assert_eq!(
        listed("end_to_end"),
        own(END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect())
    );
    assert_eq!(
        listed("per_layer"),
        own(PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect())
    );
    let workloads: Vec<String> = items("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    assert_eq!(
        workloads,
        [
            "campus_day",
            "store_console",
            "road_to_deployment",
            "tenant_fleet"
        ]
    );
}

#[test]
fn console_generator_is_a_pure_function_of_its_seed() {
    let a = ConsoleGen::new(7, RECORDS_PER_TAP_SEC);
    let b = ConsoleGen::new(7, RECORDS_PER_TAP_SEC);
    let c = ConsoleGen::new(8, RECORDS_PER_TAP_SEC);
    for (tap, sec) in [(0, 0), (1, 5), (2, 99)] {
        let (x, y) = (a.batch(tap, sec), b.batch(tap, sec));
        assert_eq!(x.packets, y.packets);
        assert_eq!(x.flows, y.flows);
        assert_ne!(x.packets, c.batch(tap, sec).packets);
    }
    assert_eq!(a.host(0), b.host(0));
    // One period later the same records recur, moved forward in time.
    let (x, y) = (a.batch(1, 3), a.batch(1, 3 + PERIOD));
    let shift = PERIOD * 1_000_000_000;
    assert_eq!(x.packets.len(), y.packets.len());
    assert!(x
        .packets
        .iter()
        .zip(&y.packets)
        .all(|(p, q)| p.ts_ns + shift == q.ts_ns && p.src == q.src && p.dst_port == q.dst_port));
    assert_eq!(derive(1, &[2, 3]), derive(1, &[2, 3]));
    assert_ne!(derive(1, &[2, 3]), derive(1, &[3, 2]));
}

#[test]
fn console_taps_overlap_in_time_and_carry_attack_bursts() {
    let g = ConsoleGen::new(11, RECORDS_PER_TAP_SEC);
    let (a, b) = (g.batch(0, 3), g.batch(1, 3));
    let span = |p: &[campuslab::capture::PacketRecord]| {
        (
            p.iter().map(|r| r.ts_ns).min().unwrap(),
            p.iter().map(|r| r.ts_ns).max().unwrap(),
        )
    };
    let ((a0, a1), (b0, b1)) = (span(&a.packets), span(&b.packets));
    assert!(a0 < b1 && b0 < a1, "tap batches of one second must overlap");
    let (mut attack, mut total) = (0usize, 0usize);
    for sec in 0..200 {
        for tap in 0..TAPS {
            let p = g.batch(tap, sec).packets;
            assert!(
                p.iter().all(|r| r.ts_ns / 1_000_000_000 == sec),
                "a record of tap {tap} second {sec} lies outside that second"
            );
            attack += p.iter().filter(|r| r.label_attack != 0).count();
            total += p.len();
        }
    }
    let share = attack as f64 / total as f64;
    assert!((0.002..0.03).contains(&share), "attack share {share}");
}

#[test]
fn shim_wrapped_collect_equals_the_bare_entry_point() {
    let mut scenario = Scenario::small();
    scenario.workload.duration = campuslab::netsim::SimDuration::from_secs(3);
    let bare = collect(&scenario);
    let mut rec = Recorder::new(1);
    let traced = compose::collect(&scenario, &mut rec, &mut Layers::default());
    assert_eq!(format!("{:?}", bare.net), format!("{:?}", traced.net));
    assert_eq!(bare.packets, traced.packets);
    assert_eq!(bare.flows, traced.flows);
    assert_eq!(bare.dns, traced.dns);
    assert_eq!(format!("{:?}", bare.ring), format!("{:?}", traced.ring));
    // The per-packet shim folded into aggregate spans under netsim.run.
    let spans = rec.spans();
    let run = spans
        .iter()
        .position(|s| s.name == "netsim.run")
        .expect("run span");
    let tap = spans
        .iter()
        .find(|s| s.name == "capture.hooks.on_tap")
        .expect("tap span");
    assert_eq!(tap.parent, Some(run));
    assert!(tap.count > 0 && tap.busy_ns <= spans[run].busy_ns);
}

#[test]
fn shim_wrapped_road_test_equals_the_bare_entry_point() {
    let scenario = Scenario::small();
    let data = collect(&scenario);
    let dev = run_development_loop(&data.packets, &DevLoopConfig::default());
    let model = || {
        let wd = window_dataset(
            &data.packets,
            WindowConfig {
                window_ns: 1_000_000_000,
                min_packets: 5,
            },
            LabelMode::BinaryAttack,
        );
        DecisionTree::fit(&wd, TreeConfig::shallow(4))
    };
    let cfg = || RoadTestConfig {
        placement: Placement::Controller,
        ..RoadTestConfig::default()
    };
    let bare = road_test(
        &scenario,
        dev.program.clone(),
        Some(Box::new(model())),
        cfg(),
    );
    let mut rec = Recorder::new(1);
    let traced = compose::road_test(
        &scenario,
        dev.program.clone(),
        Box::new(model()),
        cfg(),
        &mut rec,
        &mut Layers::default(),
    );
    assert_eq!(format!("{:?}", bare.net), format!("{:?}", traced.net));
    assert_eq!(format!("{:?}", bare.filter), format!("{:?}", traced.filter));
    assert_eq!(bare.time_to_mitigation, traced.time_to_mitigation);
    assert_eq!(bare.mitigations.len(), traced.mitigations.len());
    assert!(rec
        .spans()
        .iter()
        .any(|s| s.name == "dataplane.filter.decide" && s.count > 0));
}

#[test]
fn peak_rss_comes_from_vmhwm() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap()
        .parse()
        .unwrap();
    let mb = peak_rss_mb();
    // VmHWM only grows, so a later read is at least the earlier one.
    assert!(mb >= kb / 1024.0 && mb > 0.0);
}

#[test]
fn readme_carries_the_metric_map() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    assert!(
        readme.contains(&campusbench::metrics::describe()),
        "README.md is out of date with --describe"
    );
}
