//! Every metric the benchmark reports: name, unit, better direction, and
//! for per-layer metrics the end-to-end metric and workload it should
//! move. `BENCHMARK.json` lists the same names (a self-test holds the
//! two together), and `--describe` prints this map.

/// An end-to-end metric: what one closed-loop user of the workload sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        what: "input set-up (campus build, schedule or record generation, store warm-up), median of at least 9 set-ups lasting at least 2 s together",
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        what: "all inputs' work items over the sum of each input's fastest timed iteration: simulated packets (campus_day), records made queryable (store_console), roads driven (road_to_deployment), completed tenants (tenant_fleet)",
    },
];

/// A per-layer metric from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric(s) this layer metric should move.
    pub moves: &'static str,
    /// The workload(s) on which it should move them; elsewhere the
    /// prediction is no change.
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const CD: &str = "campus_day";
const SC: &str = "store_console";
const RD: &str = "road_to_deployment";
const TF: &str = "tenant_fleet";
const ITER: &str = "items_per_s";

pub const PER_LAYER: &[PerLayer] = &[
    pl(
        "traffic.generate_s",
        "s",
        "lower",
        "setup_s, items_per_s",
        CD,
    ),
    pl("netsim.build_s", "s", "lower", "setup_s, items_per_s", CD),
    pl(
        "netsim.run_s",
        "s",
        "lower",
        ITER,
        "campus_day, tenant_fleet",
    ),
    pl("netsim.self_s", "s", "lower", ITER, CD),
    pl(
        "netsim.ns_per_pkt",
        "ns",
        "lower",
        ITER,
        "campus_day, tenant_fleet",
    ),
    pl(
        "netsim.drop_ratio",
        "ratio",
        "lower",
        "none (must not change)",
        CD,
    ),
    pl("capture.hook_s", "s", "lower", ITER, CD),
    pl("capture.ns_per_pkt", "ns", "lower", ITER, CD),
    pl(
        "capture.records",
        "count",
        "higher",
        "none (must not change)",
        CD,
    ),
    pl(
        "capture.ring_loss_ratio",
        "ratio",
        "lower",
        "none (must stay 0)",
        CD,
    ),
    pl("privacy.scrub_s", "s", "lower", ITER, CD),
    pl("privacy.ns_per_record", "ns", "lower", ITER, CD),
    pl("datastore.ingest_s", "s", "lower", ITER, SC),
    pl("datastore.retain_s", "s", "lower", ITER, SC),
    pl("datastore.query_ms.host_hot", "ms", "lower", ITER, SC),
    pl("datastore.query_ms.host_cold", "ms", "lower", ITER, SC),
    pl("datastore.query_ms.host_window", "ms", "lower", ITER, SC),
    pl("datastore.query_ms.port_window", "ms", "lower", ITER, SC),
    pl("datastore.query_ms.malicious", "ms", "lower", ITER, SC),
    pl("datastore.query_ms.flow", "ms", "lower", ITER, SC),
    pl("datastore.query_p50_ms", "ms", "lower", ITER, SC),
    pl("datastore.query_p90_ms", "ms", "lower", ITER, SC),
    pl(
        "datastore.query_samples",
        "count",
        "higher",
        "none (sample count)",
        SC,
    ),
    pl("datastore.examined_per_hit", "ratio", "lower", ITER, SC),
    pl("datastore.pruned_ratio", "ratio", "higher", ITER, SC),
    pl("datastore.segments", "count", "lower", ITER, SC),
    pl(
        "datastore.bytes_per_record",
        "B",
        "lower",
        "process.peak_rss_mb",
        SC,
    ),
    pl("features.dataset_s", "s", "lower", ITER, RD),
    pl("ml.fit_s.forest", "s", "lower", ITER, RD),
    pl("ml.fit_s.gbt", "s", "lower", ITER, RD),
    pl("ml.fit_s.mlp", "s", "lower", ITER, RD),
    pl("ml.fit_s.window", "s", "lower", ITER, RD),
    pl("xai.distill_s", "s", "lower", ITER, RD),
    pl(
        "xai.student_nodes",
        "count",
        "lower",
        "none (must not change)",
        RD,
    ),
    pl(
        "xai.fidelity",
        "ratio",
        "higher",
        "none (deployment quality, must not worsen)",
        RD,
    ),
    pl("dataplane.compile_s", "s", "lower", ITER, RD),
    pl(
        "dataplane.tcam_entries",
        "count",
        "lower",
        "none (must not change)",
        RD,
    ),
    pl("dataplane.filter_ns_per_pkt", "ns", "lower", ITER, RD),
    pl("dataplane.admit_s", "s", "lower", ITER, TF),
    pl(
        "dataplane.suppression",
        "ratio",
        "higher",
        "none (deployment quality, must not worsen)",
        RD,
    ),
    pl(
        "dataplane.collateral_pkts",
        "count",
        "lower",
        "none (deployment quality, must not worsen)",
        RD,
    ),
    pl("control.devloop_s", "s", "lower", ITER, RD),
    pl("control.hook_s", "s", "lower", ITER, RD),
    pl(
        "control.install_success_ratio",
        "ratio",
        "higher",
        "none (landed / attempts)",
        RD,
    ),
    pl(
        "control.ttm_ms",
        "ms",
        "lower",
        "none (simulated, deployment quality)",
        RD,
    ),
    pl(
        "control.gate_approved",
        "ratio",
        "higher",
        "none (controller-placement gate verdict, deployment quality)",
        RD,
    ),
    pl("testbed.collect_s", "s", "lower", ITER, RD),
    pl("testbed.road_test_s", "s", "lower", ITER, RD),
    pl("plaza.run_s", "s", "lower", ITER, TF),
    pl("plaza.slice_s_sum", "s", "lower", ITER, TF),
    pl("plaza.slice_s_max", "s", "lower", ITER, TF),
    pl("plaza.parallel_speedup", "ratio", "higher", ITER, TF),
    pl("plaza.rounds", "count", "lower", ITER, TF),
    pl(
        "plaza.queued",
        "count",
        "lower",
        "none (must not change)",
        TF,
    ),
    pl(
        "plaza.rejected",
        "count",
        "lower",
        "none (must not change)",
        TF,
    ),
    pl(
        "process.peak_rss_mb",
        "MB",
        "lower",
        "none (process VmHWM, unbounded: it steps with allocator history)",
        "all",
    ),
    pl(
        "overhead.setup_s",
        "s",
        "lower",
        "tracing overhead on setup_s (traced - untraced)",
        "all",
    ),
    pl(
        "overhead.items_per_s",
        "1/s",
        "lower",
        "tracing overhead on items_per_s (untraced - traced)",
        "all",
    ),
    pl(
        "overhead.peak_rss_mb",
        "MB",
        "lower",
        "tracing overhead on process.peak_rss_mb (growth while tracing)",
        "all",
    ),
];

/// The map as a markdown table (`--describe`).
pub fn describe() -> String {
    let mut out = String::from("| metric | unit | better | what it is |\n|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | moves | on |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves, m.on
        ));
    }
    out
}
