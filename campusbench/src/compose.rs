//! `collect` and `road_test` recomposed from the public pieces they call,
//! with a span around each layer call and timing shims on the
//! per-packet callbacks. The traced run checks that these reproduce the
//! entry points' outputs exactly.

use crate::harness::Layers;
use crate::trace::{Recorder, TimedFilter, TimedHooks};
use campuslab::capture::BorderTapHooks;
use campuslab::control::{BankFilter, MitigationController, MitigationControllerConfig, Placement};
use campuslab::dataplane::{FieldExtractor, PipelineProgram};
use campuslab::ml::Classifier;
use campuslab::netsim::{Campus, LinkId, Network, NodeId, SimHooks, SimTime};
use campuslab::testbed::{
    build_schedule, CollectedData, RoadTestConfig, RoadTestOutcome, RunObs, Scenario,
};
use std::net::Ipv4Addr;

/// A built campus with the scenario's schedule injected — what both
/// entry points set up before running.
struct Prepared {
    net: Network,
    border: NodeId,
    border_link: LinkId,
    scheduled: usize,
    victim: Option<Ipv4Addr>,
    attack_start: Option<SimTime>,
}

/// `layers` receives the build and generation times when given.
fn prepare(scenario: &Scenario, rec: &mut Recorder, layers: Option<&mut Layers>) -> Prepared {
    let (campus, build_s) = rec.time("netsim.build", || Campus::build(scenario.campus.clone()));
    let ((mut schedule, victim, attack_start), gen_s) =
        rec.time("traffic.generate", || build_schedule(&campus, scenario));
    let (border, border_link) = (campus.border, campus.border_link);
    let mut net = campus.net;
    let (_, inject_s) = rec.time("netsim.inject", || schedule.apply_to(&mut net));
    if let Some(layers) = layers {
        layers.push("traffic.generate_s", gen_s);
        layers.push("netsim.build_s", build_s + inject_s);
    }
    Prepared {
        net,
        border,
        border_link,
        scheduled: schedule.len(),
        victim,
        attack_start,
    }
}

/// Run the network under `hooks` inside a `netsim.run` span and fold the
/// shim's callback totals into it. Returns (run span id, run seconds).
fn run_net<H: SimHooks>(
    net: &mut Network,
    hooks: &mut TimedHooks<H>,
    prefix: &str,
    rec: &mut Recorder,
) -> (usize, f64) {
    let id = rec.open("netsim.run");
    net.run(hooks, None);
    let run_s = rec.close(id);
    rec.absorb(id, prefix, &hooks.calls());
    (id, run_s)
}

/// [`campuslab::testbed::collect`], traced.
pub fn collect(scenario: &Scenario, rec: &mut Recorder, layers: &mut Layers) -> CollectedData {
    let span = rec.open("testbed.collect");
    let p = prepare(scenario, rec, Some(&mut *layers));
    let mut net = p.net;
    let mut hooks = TimedHooks::new(BorderTapHooks::new(p.border_link, scenario.monitor.clone()));
    let (run_id, run_s) = run_net(&mut net, &mut hooks, "capture.hooks", rec);
    let m = &mut hooks.inner.monitor;
    let ((packets, flows, dns, rtts, ring, monitor), finish_s) = rec.time("capture.finish", || {
        m.finish();
        let ring = m.ring_stats();
        let monitor = m.stats;
        (
            m.take_packet_records(),
            m.take_flow_records(),
            m.take_dns_records(),
            m.take_rtt_records(),
            ring,
            monitor,
        )
    });
    let collect_s = rec.close(span);

    let end_ns = net.now().as_nanos();
    let stats = net.stats;
    let hook_s = hooks.busy_s();
    let observed = hooks.tap.count.max(1) as f64;
    let mut obs = RunObs::net_only(net.obs);
    obs.capture = Some(hooks.inner.monitor.obs);
    obs.tracer
        .record("collect[border-tap]".to_string(), 0, end_ns);
    layers.push("testbed.collect_s", collect_s);
    layers.push("netsim.run_s", run_s);
    layers.push("netsim.self_s", rec.self_ns(run_id) as f64 / 1e9);
    layers.push(
        "netsim.ns_per_pkt",
        run_s * 1e9 / stats.injected.max(1) as f64,
    );
    layers.push(
        "netsim.drop_ratio",
        stats.dropped_total() as f64 / stats.injected.max(1) as f64,
    );
    layers.push("capture.hook_s", hook_s + finish_s);
    layers.push("capture.ns_per_pkt", (hook_s + finish_s) * 1e9 / observed);
    layers.push("capture.records", packets.len() as f64);
    layers.push("capture.ring_loss_ratio", ring.loss_rate());
    CollectedData {
        packets,
        flows,
        dns,
        rtts,
        net: stats,
        ring,
        monitor,
        scheduled: p.scheduled,
        victim: p.victim,
        attack_start: p.attack_start,
        obs,
    }
}

/// [`campuslab::testbed::road_test`] at the controller placement, traced.
/// The returned outcome carries everything the benchmark compares; its
/// Observatory bundle is left empty.
pub fn road_test(
    scenario: &Scenario,
    program: PipelineProgram,
    window_model: Box<dyn Classifier + Send>,
    cfg: RoadTestConfig,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> RoadTestOutcome {
    assert!(
        matches!(cfg.placement, Placement::Controller),
        "traced road test is controller-placed"
    );
    let span = rec.open("testbed.road_test");
    let p = prepare(scenario, rec, None);
    let mut net = p.net;
    let extractor = FieldExtractor::new(scenario.campus.campus_prefix());
    let (bank, handle) = BankFilter::new(extractor);
    let (filter, clock) = TimedFilter::new(bank);
    net.install_filter(p.border, filter);
    let controller = MitigationController::new(
        MitigationControllerConfig {
            tap: p.border_link,
            placement: cfg.placement,
            gate: cfg.gate,
            window_ns: cfg.window_ns,
            min_packets: cfg.min_packets,
            program,
            install: cfg.install.clone(),
            tap_blackouts: cfg.tap_blackouts.clone(),
        },
        window_model,
        handle.clone(),
    );
    let mut hooks = TimedHooks::new(controller);
    let (run_id, _) = run_net(&mut net, &mut hooks, "control.hooks", rec);
    let filter_stat = clock.stat();
    rec.absorb(run_id, "dataplane.filter", &[("decide", filter_stat)]);
    let road_s = rec.close(span);

    let filter = handle.stats();
    let hook_s = hooks.busy_s();
    let controller = hooks.inner;
    let time_to_mitigation = match (p.attack_start, controller.events.first()) {
        (Some(start), Some(event)) => Some(event.installed_at - start),
        _ => None,
    };
    layers.push("testbed.road_test_s", road_s);
    layers.push("control.hook_s", hook_s);
    layers.push(
        "dataplane.filter_ns_per_pkt",
        filter_stat.ns as f64 / filter_stat.count.max(1) as f64,
    );
    RoadTestOutcome {
        placement: cfg.placement,
        filter,
        net: net.stats,
        mitigations: controller.events,
        giveups: controller.giveups,
        victim: p.victim,
        attack_start: p.attack_start,
        time_to_mitigation,
        attack_packets_passed: filter.passed_attack,
        benign_packets_dropped: filter.dropped_benign,
        obs: RunObs::net_only(net.obs),
    }
}
