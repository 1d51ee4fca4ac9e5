//! Seeded input generators.
//!
//! Every generator here is a pure function of its seed: the same seed
//! gives byte-identical records, batches and query parameters, so two
//! runs of the benchmark (or two commits) see the same inputs.
//!
//! The `store_console` record stream comes from [`ConsoleGen`], not from
//! the simulator: Zipf-skewed campus hosts, external peers and service
//! ports, packets grouped into flows (with matching flow records), and
//! rare amplification bursts, captured at several border taps whose
//! per-second batches cover the same second — so consecutive batches
//! overlap in time, exactly as a multi-tap capture lands in the store.

use campuslab::capture::{Direction, FlowKey, FlowRecord, PacketRecord, TcpFlags};
use campuslab::traffic::{AppClass, AttackKind};
use std::net::{IpAddr, Ipv4Addr};

/// SplitMix64: tiny, fast, and good enough for workload synthesis.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derive an independent sub-seed from a seed and a stream of labels.
pub fn derive(seed: u64, labels: &[u64]) -> u64 {
    let mut r = Rng::new(seed ^ 0x5EED_CA4F_B3AC_0001);
    let mut h = r.next_u64();
    for &l in labels {
        r = Rng::new(h ^ l.wrapping_mul(0xA24B_AED4_963E_E407));
        h = r.next_u64();
    }
    h
}

/// Drop the application classes whose transfer sizes are Pareto-tailed
/// (video, backup) from a traffic mix. In a scenario of a few dozen
/// sessions one such draw decides the whole capture's size, so a seed
/// would swing the run's cost and memory by 2-5x; without them capture
/// size varies by about a tenth between seeds.
pub fn without_bulk(mix: &mut Vec<(AppClass, f64)>) {
    mix.retain(|(class, _)| !matches!(class, AppClass::Video | AppClass::Backup));
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Border taps; each lands one batch per capture second.
pub const TAPS: usize = 3;
/// Packet records per tap per second at full scale.
pub const RECORDS_PER_TAP_SEC: usize = 25_000;
const CAMPUS_HOSTS: usize = 4_096;
const EXTERNAL_HOSTS: usize = 16_384;
/// Zipf exponent for hosts, peers and ports.
const ZIPF_S: f64 = 1.0;
/// Burst size as a share of the tap-second's records. One tap-second in
/// ten carries a burst, so bursts make up ~1% of the records.
const BURST_SHARE: f64 = 0.1;
/// A burst starts in the first half of its second and lasts this long
/// (ns), so every record of a tap-second lies inside that second.
const BURST_SPAN_NS: u64 = 400_000_000;
/// The capture repeats with this period (seconds), shifted in time: the
/// records of second `s` are those of second `s % PERIOD`, moved forward
/// by whole periods. Every console second at the same place in the
/// period therefore asks the store for the same work.
pub const PERIOD: u64 = 10;

/// Service ports by popularity rank, with their application class and
/// transport protocol.
const SERVICES: &[(u16, AppClass, u8)] = &[
    (443, AppClass::Web, 6),
    (80, AppClass::Web, 6),
    (53, AppClass::Dns, 17),
    (3478, AppClass::Video, 17),
    (993, AppClass::Mail, 6),
    (22, AppClass::Ssh, 6),
    (123, AppClass::Ntp, 17),
    (25, AppClass::Mail, 6),
    (8080, AppClass::Web, 6),
    (445, AppClass::Backup, 6),
    (5222, AppClass::Web, 6),
    (1935, AppClass::Video, 6),
];

/// One tap-second of capture: packet records plus the flow records the
/// tap's flow meter closed over the same packets.
pub struct TapBatch {
    pub packets: Vec<PacketRecord>,
    pub flows: Vec<FlowRecord>,
}

/// The `store_console` record generator (see the module docs).
pub struct ConsoleGen {
    seed: u64,
    /// Campus hosts in popularity order (rank 0 is the hottest).
    campus: Vec<IpAddr>,
    external: Vec<IpAddr>,
    host_zipf: Zipf,
    ext_zipf: Zipf,
    port_zipf: Zipf,
    /// One period of capture, indexed by `second * TAPS + tap`.
    period: Vec<TapBatch>,
}

impl ConsoleGen {
    /// A generator landing `per_tap_sec` packet records per tap-second.
    pub fn new(seed: u64, per_tap_sec: usize) -> Self {
        let mut rng = Rng::new(derive(seed, &[0]));
        // Popularity is a seeded permutation of the address plan, so the
        // hot host moves with the seed.
        let mut campus: Vec<IpAddr> = (0..CAMPUS_HOSTS)
            .map(|i| IpAddr::V4(Ipv4Addr::new(10, 9, (i / 250) as u8, (i % 250 + 1) as u8)))
            .collect();
        let mut external: Vec<IpAddr> = (0..EXTERNAL_HOSTS)
            .map(|i| {
                IpAddr::V4(Ipv4Addr::new(
                    (20 + i / 65_536) as u8,
                    ((i / 256) % 256) as u8,
                    (i % 256) as u8,
                    7,
                ))
            })
            .collect();
        shuffle(&mut campus, &mut rng);
        shuffle(&mut external, &mut rng);
        let mut gen = ConsoleGen {
            seed,
            host_zipf: Zipf::new(CAMPUS_HOSTS, ZIPF_S),
            ext_zipf: Zipf::new(EXTERNAL_HOSTS, ZIPF_S),
            port_zipf: Zipf::new(SERVICES.len(), ZIPF_S),
            campus,
            external,
            period: Vec::new(),
        };
        let first_burst = rng.below(10);
        gen.period = (0..PERIOD * TAPS as u64)
            .map(|slot| {
                let burst = (slot + first_burst).is_multiple_of(10);
                gen.generate(slot as usize % TAPS, slot / TAPS as u64, per_tap_sec, burst)
            })
            .collect();
        gen
    }

    pub fn campus_hosts(&self) -> usize {
        self.campus.len()
    }

    /// Campus host by popularity rank.
    pub fn host(&self, rank: usize) -> IpAddr {
        self.campus[rank]
    }

    /// A campus host drawn by popularity.
    pub fn sample_host(&self, rng: &mut Rng) -> IpAddr {
        self.campus[self.host_zipf.sample(rng)]
    }

    /// A service port drawn by popularity.
    pub fn sample_port(&self, rng: &mut Rng) -> u16 {
        SERVICES[self.port_zipf.sample(rng)].0
    }

    /// The records tap `tap` captured during capture second `sec`: the
    /// period's batch for `sec % PERIOD`, moved forward to `sec`, with
    /// flow ids of its own. A pure function of `(seed, tap, sec)`.
    pub fn batch(&self, tap: usize, sec: u64) -> TapBatch {
        let pattern = &self.period[(sec % PERIOD) as usize * TAPS + tap];
        let shift = (sec - sec % PERIOD) * 1_000_000_000;
        let salt = derive(self.seed, &[3, sec]);
        let packets = pattern
            .packets
            .iter()
            .map(|r| PacketRecord {
                ts_ns: r.ts_ns + shift,
                flow_id: if r.flow_id == 0 { 0 } else { r.flow_id ^ salt },
                ..r.clone()
            })
            .collect();
        let flows = pattern
            .flows
            .iter()
            .map(|f| FlowRecord {
                first_ts_ns: f.first_ts_ns + shift,
                last_ts_ns: f.last_ts_ns + shift,
                ..f.clone()
            })
            .collect();
        TapBatch { packets, flows }
    }

    /// One period batch: tap `tap`'s records of second `sec < PERIOD`.
    fn generate(&self, tap: usize, sec: u64, n: usize, burst: bool) -> TapBatch {
        let mut rng = Rng::new(derive(self.seed, &[1, tap as u64, sec]));
        let base = sec * 1_000_000_000;
        let mut packets = Vec::with_capacity(n);
        let mut flows = Vec::new();
        if burst {
            let size = ((n as f64) * BURST_SHARE) as usize;
            self.burst(&mut rng, base, size, &mut packets);
        }
        let mut flow_no = 0u64;
        while packets.len() < n {
            let want = 1 + (-(1.0 - rng.unit()).ln() * 5.0) as usize;
            let k = want.min(n - packets.len());
            let flow_id = derive(self.seed, &[2, tap as u64, sec, flow_no]);
            flow_no += 1;
            flows.push(self.flow(&mut rng, base, k, flow_id, &mut packets));
        }
        TapBatch { packets, flows }
    }

    /// An amplification burst: reflectors answer port-53/123 queries the
    /// victim never sent.
    fn burst(&self, rng: &mut Rng, base: u64, count: usize, out: &mut Vec<PacketRecord>) {
        let victim = self.sample_host(rng);
        let start = rng.below(500_000_000);
        let src_port = if rng.unit() < 0.5 { 53 } else { 123 };
        let step = BURST_SPAN_NS / count.max(1) as u64;
        for i in 0..count {
            let reflector = self.external[rng.below(64) as usize];
            out.push(PacketRecord {
                ts_ns: base + start + (i as u64) * step + rng.below(step),
                direction: Direction::Inbound,
                src: reflector,
                dst: victim,
                protocol: 17,
                src_port,
                dst_port: 1024 + rng.below(60_000) as u16,
                wire_len: 1_200 + rng.below(1_800) as u32,
                ttl: 40 + rng.below(20) as u8,
                tcp_flags: TcpFlags::default(),
                flow_id: 0,
                label_app: 0,
                label_attack: AttackKind::DnsAmplification.id(),
            });
        }
    }

    /// One benign flow of `k` packets, alternating client and server
    /// directions, inside the capture second starting at `base`.
    fn flow(
        &self,
        rng: &mut Rng,
        base: u64,
        k: usize,
        flow_id: u64,
        out: &mut Vec<PacketRecord>,
    ) -> FlowRecord {
        let host = self.sample_host(rng);
        let peer = self.external[self.ext_zipf.sample(rng)];
        let (port, class, protocol) = SERVICES[self.port_zipf.sample(rng)];
        let eph = 32_768 + rng.below(28_000) as u16;
        let outbound_first = rng.unit() < 0.8;
        let mut ts = base + rng.below(900_000_000);
        let key = FlowKey {
            src: host,
            dst: peer,
            protocol,
            src_port: eph,
            dst_port: port,
        };
        let mut rec = FlowRecord {
            key,
            first_ts_ns: ts,
            last_ts_ns: ts,
            fwd_packets: 0,
            fwd_bytes: 0,
            rev_packets: 0,
            rev_bytes: 0,
            syn_count: 0,
            fin_count: 0,
            rst_count: 0,
            mean_iat_ns: 0,
            min_len: u32::MAX,
            max_len: 0,
            label_app: class.id(),
            label_attack: 0,
        };
        for i in 0..k {
            let outbound = (i % 2 == 0) == outbound_first;
            let len = 60 + rng.below(1_400) as u32;
            let syn = protocol == 6 && i == 0;
            let fin = protocol == 6 && i + 1 == k && k > 2;
            let (src, dst, src_port, dst_port, direction) = if outbound {
                (host, peer, eph, port, Direction::Outbound)
            } else {
                (peer, host, port, eph, Direction::Inbound)
            };
            out.push(PacketRecord {
                ts_ns: ts,
                direction,
                src,
                dst,
                protocol,
                src_port,
                dst_port,
                wire_len: len,
                ttl: 64,
                tcp_flags: TcpFlags {
                    syn,
                    ack: i > 0,
                    fin,
                    rst: false,
                    psh: false,
                },
                flow_id,
                label_app: class.id(),
                label_attack: 0,
            });
            if outbound {
                rec.fwd_packets += 1;
                rec.fwd_bytes += len as u64;
            } else {
                rec.rev_packets += 1;
                rec.rev_bytes += len as u64;
            }
            rec.syn_count += syn as u32;
            rec.fin_count += fin as u32;
            rec.min_len = rec.min_len.min(len);
            rec.max_len = rec.max_len.max(len);
            rec.last_ts_ns = ts;
            ts = (ts + 1 + rng.below(10_000_000)).min(base + 999_999_999);
        }
        if k > 1 {
            rec.mean_iat_ns = (rec.last_ts_ns - rec.first_ts_ns) / (k as u64 - 1);
        }
        rec
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}
