//! `store_console`: the data store alone, under an operator console. The
//! records come from the seeded [`ConsoleGen`] (three border taps whose
//! per-second batches cover the same second, so segments overlap in
//! time). Set-up fills a rolling retention window of a few million
//! records; each iteration is one console second: ingest that second's
//! batches, run one query of every kind, and enforce retention. Work
//! items are records made queryable.
//!
//! The inputs are the [`PERIOD`] places in the capture's period. The
//! retention window is a whole number of periods, so the console second
//! at place `i` of any pass sees the same store, moved forward in time,
//! and asks it for the same work.

use crate::gen::{derive, ConsoleGen, Rng, PERIOD, RECORDS_PER_TAP_SEC, TAPS};
use crate::harness::{secs, Checks, Iter, Layers, Scale, Workload};
use crate::opmix::{self, QueryTally, Targets, KINDS};
use crate::trace::{span, Recorder};
use campuslab::datastore::{DataStore, PacketQuery};
use std::time::Instant;

const SEC: u64 = 1_000_000_000;
/// History in the scan-checked replica store.
const CHECK_SECS: u64 = 10;

pub struct StoreConsole {
    seed: u64,
    gen: ConsoleGen,
    ds: DataStore,
    targets: Targets,
    /// Retention window, seconds.
    window: u64,
    /// The next capture second to ingest.
    next_sec: u64,
    /// The cutoff of the last `retain_since`.
    retained_from: u64,
    /// Each place's hit counts and store shape the first time it ran.
    first: Vec<Option<u64>>,
}

/// Land one capture second from every tap, in tap order.
fn ingest_second(gen: &ConsoleGen, ds: &mut DataStore, sec: u64) -> usize {
    let batches: Vec<_> = (0..TAPS).map(|tap| gen.batch(tap, sec)).collect();
    land(ds, batches)
}

fn land(ds: &mut DataStore, batches: Vec<crate::gen::TapBatch>) -> usize {
    let mut packets = Vec::with_capacity(batches.len());
    let mut records = 0;
    for b in batches {
        records += b.packets.len() + b.flows.len();
        packets.push(b.packets);
        ds.ingest_flows(b.flows);
    }
    ds.ingest_packet_batches(packets);
    records
}

impl StoreConsole {
    fn cutoff(&self) -> u64 {
        self.next_sec.saturating_sub(self.window) * SEC
    }

    /// Place `input`'s query of every kind over the retained history.
    fn queries(&self, input: usize) -> Vec<(opmix::Kind, opmix::Query)> {
        let mut rng = Rng::new(derive(self.seed, &[21, input as u64]));
        let (from, now) = (self.cutoff(), self.next_sec * SEC);
        KINDS
            .iter()
            .map(|&k| (k, self.targets.query(k, &mut rng, from, now)))
            .collect()
    }

    /// Take the next console second's batches off the generator
    /// (untimed); it must sit at place `input` of the period.
    fn next_input(&mut self, input: usize) -> Vec<crate::gen::TapBatch> {
        let sec = self.next_sec;
        assert_eq!(sec % PERIOD, input as u64, "console second out of step");
        self.next_sec += 1;
        (0..TAPS).map(|tap| self.gen.batch(tap, sec)).collect()
    }

    /// Every run of place `input` must land the same records, get the
    /// same hit counts and leave the same store behind.
    fn check_place(&mut self, input: usize, hits: &[usize], records: usize, checks: &mut Checks) {
        let s = self.ds.storage();
        let shape = format!(
            "records {records} hits {hits:?} stored {} + {} flows in {} segments",
            s.packet_records,
            s.flow_records,
            self.ds.packet_segment_count()
        );
        checks.replay(&mut self.first[input], "console second", &shape);
    }
}

impl Workload for StoreConsole {
    fn setup(seed: u64, scale: Scale, rec: Option<&mut Recorder>, _layers: &mut Layers) -> Self {
        // ~2.25M packet records in ~630 segments whose taps overlap in
        // time. The hot-host query costs about hits x segments, so a
        // shorter window of wider batches keeps the cliff while drawing
        // more generated records per period, which steadies the hot
        // host's share across seeds.
        let (per_tap_sec, window) = match scale {
            Scale::Full => (RECORDS_PER_TAP_SEC, 3 * PERIOD),
            Scale::Tiny => (300, 2 * PERIOD),
        };
        let gen = ConsoleGen::new(seed, per_tap_sec);
        let mut ds = DataStore::new();
        span(rec, "datastore.prefill", || {
            for sec in 0..window {
                ingest_second(&gen, &mut ds, sec);
            }
        });
        let mut rng = Rng::new(derive(seed, &[20]));
        let n = gen.campus_hosts();
        let targets = Targets {
            hot: gen.host(0),
            cold: (0..64)
                .map(|_| gen.host(n / 2 + rng.below((n / 2) as u64) as usize))
                .collect(),
            hosts: (0..256).map(|_| gen.sample_host(&mut rng)).collect(),
            ports: (0..64).map(|_| gen.sample_port(&mut rng)).collect(),
            short_ns: 10 * SEC,
            long_ns: 20 * SEC,
        };
        StoreConsole {
            seed,
            gen,
            ds,
            targets,
            window,
            next_sec: window,
            retained_from: 0,
            first: vec![None; PERIOD as usize],
        }
    }

    fn inputs(&self) -> usize {
        PERIOD as usize
    }

    fn iterate(&mut self, input: usize, checks: &mut Checks) -> Iter {
        let batches = self.next_input(input);
        let t = Instant::now();
        let records = land(&mut self.ds, batches);
        let mut total = secs(t);
        let mut hits = Vec::new();
        for (_, q) in self.queries(input) {
            let timed = opmix::run(&self.ds, &q, checks);
            total += timed.secs;
            hits.push(timed.stats.hits);
        }
        let cutoff = self.cutoff();
        let t = Instant::now();
        self.ds.retain_since(cutoff);
        total += secs(t);
        self.retained_from = cutoff;
        self.check_place(input, &hits, records, checks);
        Iter {
            secs: total,
            items: records as f64,
        }
    }

    fn iterate_traced(
        &mut self,
        input: usize,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Iter {
        let batches = self.next_input(input);
        let (records, ingest_s) = rec.time("datastore.ingest", || land(&mut self.ds, batches));
        layers.push("datastore.ingest_s", ingest_s);
        let mut total = ingest_s;
        let mut tally = QueryTally::default();
        let mut hits = Vec::new();
        for (kind, q) in self.queries(input) {
            let id = rec.open(kind.layer_metric());
            let timed = opmix::run(&self.ds, &q, checks);
            rec.close(id);
            total += timed.secs;
            hits.push(timed.stats.hits);
            tally.add(kind, timed, layers);
        }
        tally.report(layers);
        let cutoff = self.cutoff();
        let ((), retain_s) = rec.time("datastore.retain", || self.ds.retain_since(cutoff));
        layers.push("datastore.retain_s", retain_s);
        self.retained_from = cutoff;
        total += retain_s;
        let storage = self.ds.storage();
        let stored = storage.packet_records + storage.flow_records;
        layers.push("datastore.segments", self.ds.packet_segment_count() as f64);
        layers.push(
            "datastore.bytes_per_record",
            storage.approx_bytes as f64 / stored.max(1) as f64,
        );
        self.check_place(input, &hits, records, checks);
        Iter {
            secs: total,
            items: records as f64,
        }
    }

    fn finish(&mut self, checks: &mut Checks) {
        // The full store: the hot host's earliest history, index vs scan.
        let limited = PacketQuery {
            limit: Some(256),
            ..PacketQuery::for_host(self.targets.hot)
        };
        opmix::check_against_scan(&self.ds, &opmix::Query::Packets(limited), checks);
        // A replica of the most recent seconds, landed the same way
        // (same taps, same order), where a full scan is affordable: two
        // seeded queries of every kind, index vs scan.
        let mut replica = DataStore::new();
        let from = self.next_sec.saturating_sub(CHECK_SECS);
        for sec in from..self.next_sec {
            ingest_second(&self.gen, &mut replica, sec);
        }
        let mut rng = Rng::new(derive(self.seed, &[22]));
        for _ in 0..2 {
            for k in KINDS {
                let q = self
                    .targets
                    .query(k, &mut rng, from * SEC, self.next_sec * SEC);
                opmix::check_against_scan(&replica, &q, checks);
            }
        }
        // Retention kept exactly the window.
        let oldest = self
            .ds
            .iter_packets()
            .map(|r| r.ts_ns)
            .min()
            .unwrap_or(u64::MAX);
        let cutoff = self.retained_from;
        checks.check(oldest >= cutoff, || {
            format!("record at {oldest} survived retention cutoff {cutoff}")
        });
    }
}
