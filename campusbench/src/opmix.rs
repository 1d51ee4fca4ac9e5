//! The operator query mix both datastore workloads run: a hot host's full
//! history, a cold host's full history, host + window, port + window,
//! recent malicious traffic, and a flow lookup.

use crate::gen::Rng;
use crate::harness::{secs, Checks, Layers};
use campuslab::datastore::{DataStore, FlowQuery, PacketQuery, QueryStats};
use std::net::IpAddr;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HostHot,
    HostCold,
    HostWindow,
    PortWindow,
    Malicious,
    Flow,
}

pub const KINDS: [Kind; 6] = [
    Kind::HostHot,
    Kind::HostCold,
    Kind::HostWindow,
    Kind::PortWindow,
    Kind::Malicious,
    Kind::Flow,
];

impl Kind {
    pub fn layer_metric(self) -> &'static str {
        match self {
            Kind::HostHot => "datastore.query_ms.host_hot",
            Kind::HostCold => "datastore.query_ms.host_cold",
            Kind::HostWindow => "datastore.query_ms.host_window",
            Kind::PortWindow => "datastore.query_ms.port_window",
            Kind::Malicious => "datastore.query_ms.malicious",
            Kind::Flow => "datastore.query_ms.flow",
        }
    }
}

/// What the operator asks about, drawn once per run from the seed.
#[derive(Debug, Clone)]
pub struct Targets {
    pub hot: IpAddr,
    pub cold: Vec<IpAddr>,
    /// Popularity-weighted host draws.
    pub hosts: Vec<IpAddr>,
    /// Popularity-weighted destination-port draws.
    pub ports: Vec<u16>,
    /// Short window for host/port lookups, longer one for malicious and
    /// flow lookups.
    pub short_ns: u64,
    pub long_ns: u64,
}

#[derive(Debug, Clone)]
pub enum Query {
    Packets(PacketQuery),
    Flows(FlowQuery),
}

impl Targets {
    /// One query of `kind` whose windows end at or before `now_ns`,
    /// placed by `rng` within `[from_ns, now_ns]`.
    pub fn query(&self, kind: Kind, rng: &mut Rng, from_ns: u64, now_ns: u64) -> Query {
        let pick = |rng: &mut Rng, len: u64| {
            let span = now_ns.saturating_sub(from_ns).saturating_sub(len);
            let start = from_ns + if span > 0 { rng.below(span) } else { 0 };
            (start, start + len)
        };
        let host = |rng: &mut Rng| self.hosts[rng.below(self.hosts.len() as u64) as usize];
        match kind {
            Kind::HostHot => Query::Packets(PacketQuery::for_host(self.hot)),
            Kind::HostCold => Query::Packets(PacketQuery::for_host(
                self.cold[rng.below(self.cold.len() as u64) as usize],
            )),
            Kind::HostWindow => {
                let (a, b) = pick(rng, self.short_ns);
                Query::Packets(PacketQuery::for_host(host(rng)).window(a, b))
            }
            Kind::PortWindow => {
                let (a, b) = pick(rng, self.short_ns);
                let port = self.ports[rng.below(self.ports.len() as u64) as usize];
                Query::Packets(PacketQuery::in_window(a, b).port(port))
            }
            Kind::Malicious => {
                let (a, b) = pick(rng, self.long_ns);
                Query::Packets(PacketQuery::in_window(a, b).malicious())
            }
            Kind::Flow => {
                let (a, b) = pick(rng, self.long_ns);
                Query::Flows(FlowQuery {
                    time_ns: Some(a..b),
                    host: Some(host(rng)),
                    ..FlowQuery::default()
                })
            }
        }
    }
}

/// One timed query: latency in seconds and its work counts.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub secs: f64,
    pub stats: QueryStats,
}

/// Run `q` through the index, time it, and check the answer is
/// well-formed: every hit matches, hits come in time order, and the
/// reported hit count agrees.
pub fn run(ds: &DataStore, q: &Query, checks: &mut Checks) -> Timed {
    match q {
        Query::Packets(pq) => {
            let t = Instant::now();
            let (hits, stats) = ds.query_packets_with_stats(pq);
            let secs = secs(t);
            let ok = hits.len() == stats.hits
                && hits.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns)
                && hits.iter().all(|r| pq.matches(r));
            checks.check(ok, || format!("malformed answer to {pq:?}"));
            Timed { secs, stats }
        }
        Query::Flows(fq) => {
            let t = Instant::now();
            let (hits, stats) = ds.query_flows_with_stats(fq);
            let secs = secs(t);
            let ok = hits.len() == stats.hits && hits.iter().all(|f| fq.matches(f));
            checks.check(ok, || format!("malformed answer to {fq:?}"));
            Timed { secs, stats }
        }
    }
}

/// The index answer must equal the full scan: same records, same order.
pub fn check_against_scan(ds: &DataStore, q: &Query, checks: &mut Checks) {
    match q {
        Query::Packets(pq) => {
            let indexed = ds.query_packets(pq);
            let scanned = ds.scan_packets(pq);
            checks.check(indexed == scanned, || {
                format!(
                    "query != scan for {pq:?}: {} vs {} hits",
                    indexed.len(),
                    scanned.len()
                )
            });
        }
        Query::Flows(fq) => {
            let indexed = ds.query_flows(fq);
            let scanned = ds.scan_flows(fq);
            checks.check(indexed == scanned, || {
                format!(
                    "query != scan for {fq:?}: {} vs {} hits",
                    indexed.len(),
                    scanned.len()
                )
            });
        }
    }
}

/// Running totals of a run's traced queries.
#[derive(Debug, Default)]
pub struct QueryTally {
    pub all_secs: Vec<f64>,
    pub examined: u64,
    pub hits: u64,
    pub pruned: u64,
    pub segments: u64,
}

impl QueryTally {
    pub fn add(&mut self, kind: Kind, t: Timed, layers: &mut Layers) {
        layers.push(kind.layer_metric(), t.secs * 1e3);
        self.all_secs.push(t.secs);
        self.examined += t.stats.records_examined as u64;
        self.hits += t.stats.hits as u64;
        self.pruned += t.stats.segments_pruned as u64;
        self.segments += t.stats.segments_total as u64;
    }

    /// Fold the run's totals into the run-level datastore metrics.
    pub fn report(&self, layers: &mut Layers) {
        if self.all_secs.is_empty() {
            return;
        }
        let ms: Vec<f64> = self.all_secs.iter().map(|s| s * 1e3).collect();
        layers.push("datastore.query_p50_ms", crate::harness::quantile(&ms, 0.5));
        layers.push("datastore.query_p90_ms", crate::harness::quantile(&ms, 0.9));
        layers.push("datastore.query_samples", ms.len() as f64);
        layers.push(
            "datastore.examined_per_hit",
            self.examined as f64 / self.hits.max(1) as f64,
        );
        layers.push(
            "datastore.pruned_ratio",
            self.pruned as f64 / self.segments.max(1) as f64,
        );
    }
}
