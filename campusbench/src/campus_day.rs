//! `campus_day`: the campus as data source. The default 192-host campus
//! runs ~30 simulated seconds of mixed traffic with every attack
//! campaign; the border tap's capture is scrubbed with the internal
//! research policy, landed in the store as per-second batches, and an
//! operator query mix runs over the day's store.
//!
//! One iteration is one campus day: `collect`, scrub, `build_store`,
//! query mix. The inputs are `DAYS` seeded days of the same campus, so a
//! run's rate is over several days rather than one day's traffic (day
//! sizes vary by a third with the seed). Work items are simulated
//! packets.

use crate::compose;
use crate::gen::{derive, Rng};
use crate::harness::{secs, Checks, Iter, Layers, Scale, Workload};
use crate::opmix::{self, QueryTally, Targets, KINDS};
use crate::trace::{span, Recorder};
use campuslab::capture::{Direction, MonitorConfig, PacketRecord, TcpFlags};
use campuslab::netsim::{Campus, CampusConfig, SimDuration};
use campuslab::privacy::{ScrubPolicy, Scrubber};
use campuslab::testbed::{
    build_schedule, build_store, collect, AttackScenario, CollectedData, Scenario,
};
use campuslab::traffic::WorkloadConfig;
use std::collections::HashMap;
use std::net::IpAddr;
use std::time::Instant;

/// Query-mix rounds (one query of every kind each) per campus day.
const ROUNDS: usize = 10;
/// Distinct seeded days: the inputs of one pass.
pub const DAYS: usize = 2;

pub struct CampusDay {
    seed: u64,
    /// One scenario per day: same campus, different traffic seed.
    days: Vec<Scenario>,
    scrubber: Scrubber,
    targets: Targets,
    day_ns: u64,
    /// Each day's simulated outputs the first time it ran; every rerun
    /// of that day (traced or not) must reproduce them.
    first: Vec<Option<u64>>,
}

fn scenario(seed: u64, day: usize, scale: Scale) -> Scenario {
    let secs = if scale == Scale::Tiny { 2 } else { 30 };
    Scenario {
        campus: CampusConfig::default(),
        workload: WorkloadConfig {
            duration: SimDuration::from_secs(secs),
            seed: derive(seed, &[11, day as u64]),
            ..WorkloadConfig::default()
        },
        attack: AttackScenario::Mixed,
        monitor: MonitorConfig::default(),
    }
}

/// Where `addr` lands after scrubbing, found by scrubbing a record that
/// carries it.
fn scrubbed_addr(s: &Scrubber, addr: IpAddr, port: u16) -> (IpAddr, u16) {
    let rec = PacketRecord {
        ts_ns: 0,
        direction: Direction::Inbound,
        src: addr,
        dst: addr,
        protocol: 17,
        src_port: port,
        dst_port: port,
        wire_len: 0,
        ttl: 0,
        tcp_flags: TcpFlags::default(),
        flow_id: 0,
        label_app: 0,
        label_attack: 0,
    };
    let r = s.scrub_packet(rec);
    (r.dst, r.dst_port)
}

/// Scrub every record the way the release path does.
fn scrub_all(s: &Scrubber, data: &mut CollectedData) {
    data.packets = std::mem::take(&mut data.packets)
        .into_iter()
        .map(|r| s.scrub_packet(r))
        .collect();
    data.flows = std::mem::take(&mut data.flows)
        .into_iter()
        .map(|f| s.scrub_flow(f))
        .collect();
    data.dns = std::mem::take(&mut data.dns)
        .into_iter()
        .map(|d| s.scrub_dns(d))
        .collect();
}

fn signature(d: &CollectedData) -> String {
    format!(
        "net {:?} ring {:?} packets {} flows {} dns {} scheduled {}",
        d.net,
        d.ring,
        d.packets.len(),
        d.flows.len(),
        d.dns.len(),
        d.scheduled
    )
}

impl CampusDay {
    /// Day `day`'s queries: `ROUNDS` of every kind, seeded by the run
    /// seed and the day.
    fn queries(&self, day: usize) -> Vec<(opmix::Kind, opmix::Query)> {
        let mut rng = Rng::new(derive(self.seed, &[12, day as u64]));
        (0..ROUNDS)
            .flat_map(|_| KINDS)
            .map(|k| (k, self.targets.query(k, &mut rng, 0, self.day_ns)))
            .collect()
    }

    /// Outputs every iteration must share, plus the premise that the
    /// border capture is lossless at campus scale.
    fn check_day(&mut self, day: usize, data: &CollectedData, checks: &mut Checks) {
        checks.replay(&mut self.first[day], "campus day outputs", &signature(data));
        checks.check(data.ring.dropped == 0, || {
            format!("ring dropped {}", data.ring.dropped)
        });
        checks.check(data.net.injected as usize == data.scheduled, || {
            "not everything scheduled entered".into()
        });
    }

    /// One sampled query of every kind against the full scan.
    fn check_scan(&self, day: usize, ds: &campuslab::datastore::DataStore, checks: &mut Checks) {
        let mut rng = Rng::new(derive(self.seed, &[13, day as u64]));
        for k in KINDS {
            opmix::check_against_scan(ds, &self.targets.query(k, &mut rng, 0, self.day_ns), checks);
        }
    }
}

impl Workload for CampusDay {
    fn setup(
        seed: u64,
        scale: Scale,
        mut rec: Option<&mut Recorder>,
        _layers: &mut Layers,
    ) -> Self {
        let days: Vec<Scenario> = (0..DAYS).map(|d| scenario(seed, d, scale)).collect();
        let scenario = &days[0];
        let (campus, _) = span(rec.as_deref_mut(), "netsim.build", || {
            Campus::build(scenario.campus.clone())
        });
        // The operator asks about the hosts and ports the border sees on
        // a reference day of the campus (the default traffic seed), so
        // set-up does the same work whatever the run seed.
        let reference = Scenario {
            workload: WorkloadConfig {
                duration: scenario.workload.duration,
                ..WorkloadConfig::default()
            },
            ..scenario.clone()
        };
        let prefix = scenario.campus.campus_prefix();
        let mut hosts: HashMap<IpAddr, u64> = HashMap::new();
        let mut ports: HashMap<u16, u64> = HashMap::new();
        let ((schedule, _, _), _) = span(rec, "traffic.generate", || {
            build_schedule(&campus, &reference)
        });
        for inj in schedule.iter() {
            let (src, dst) = (inj.packet.network.src(), inj.packet.network.dst());
            let inside = match (prefix.contains(src), prefix.contains(dst)) {
                (true, false) => src,
                (false, true) => dst,
                _ => continue,
            };
            *hosts.entry(inside).or_default() += 1;
            if let Some(p) = inj.packet.transport.dst_port() {
                *ports.entry(p).or_default() += 1;
            }
        }
        let mut ranked: Vec<(IpAddr, u64)> = hosts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut ports: Vec<(u16, u64)> = ports.into_iter().collect();
        ports.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ports.truncate(8);

        let scrubber = Scrubber::new(
            derive(seed, &[14]) as u128,
            ScrubPolicy::internal_research(),
        );
        let mut rng = Rng::new(derive(seed, &[15]));
        let total: u64 = ranked.iter().map(|h| h.1).sum();
        let weighted = |rng: &mut Rng| {
            let mut x = rng.below(total.max(1));
            for (h, c) in &ranked {
                if x < *c {
                    return *h;
                }
                x -= c;
            }
            ranked[0].0
        };
        let scrub = |a: IpAddr| scrubbed_addr(&scrubber, a, 0).0;
        let targets = Targets {
            hot: scrub(ranked[0].0),
            cold: ranked[ranked.len() * 3 / 4..]
                .iter()
                .map(|h| scrub(h.0))
                .collect(),
            hosts: (0..256).map(|_| scrub(weighted(&mut rng))).collect(),
            ports: ports
                .iter()
                .map(|(p, _)| scrubbed_addr(&scrubber, ranked[0].0, *p).1)
                .collect(),
            short_ns: 5_000_000_000,
            long_ns: 10_000_000_000,
        };
        let day_ns = scenario.workload.duration.as_nanos();
        CampusDay {
            seed,
            days,
            scrubber,
            targets,
            day_ns,
            first: vec![None; DAYS],
        }
    }

    fn inputs(&self) -> usize {
        self.days.len()
    }

    fn iterate(&mut self, day: usize, checks: &mut Checks) -> Iter {
        let t = Instant::now();
        let mut data = collect(&self.days[day]);
        scrub_all(&self.scrubber, &mut data);
        let ds = build_store(&data);
        let mut total = secs(t);
        for (_, q) in self.queries(day) {
            total += opmix::run(&ds, &q, checks).secs;
        }
        self.check_day(day, &data, checks);
        self.check_scan(day, &ds, checks);
        Iter {
            secs: total,
            items: data.net.injected as f64,
        }
    }

    fn iterate_traced(
        &mut self,
        day: usize,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Iter {
        let t = Instant::now();
        let mut data = compose::collect(&self.days[day], rec, layers);
        let (_, scrub_s) = rec.time("privacy.scrub", || scrub_all(&self.scrubber, &mut data));
        let (ds, ingest_s) = rec.time("datastore.ingest", || build_store(&data));
        let mut total = secs(t);
        let mut tally = QueryTally::default();
        for (kind, q) in self.queries(day) {
            let id = rec.open(kind.layer_metric());
            let timed = opmix::run(&ds, &q, checks);
            rec.close(id);
            total += timed.secs;
            tally.add(kind, timed, layers);
        }
        tally.report(layers);
        let records = data.packets.len() + data.flows.len() + data.dns.len();
        layers.push("privacy.scrub_s", scrub_s);
        layers.push(
            "privacy.ns_per_record",
            scrub_s * 1e9 / records.max(1) as f64,
        );
        layers.push("datastore.ingest_s", ingest_s);
        layers.push("datastore.segments", ds.packet_segment_count() as f64);
        layers.push(
            "datastore.bytes_per_record",
            ds.storage().approx_bytes as f64 / records.max(1) as f64,
        );
        self.check_day(day, &data, checks);
        self.check_scan(day, &ds, checks);
        Iter {
            secs: total,
            items: data.net.injected as f64,
        }
    }
}
