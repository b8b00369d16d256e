//! Synthetic Hotspot trace generator.
//!
//! The paper's Hotspot dataset is a tcpdump capture of a large hotspot's
//! wired access link: 7.0 M `<timestamp, packet>` records with full payloads.
//! That trace is not public, so this generator synthesizes one with the same
//! *measurable structure*, planting known ground truth for every experiment
//! the paper runs against Hotspot:
//!
//! * **packet-size and port distributions** (Fig. 2) — a size mixture with
//!   the paper's observed modes at 40 B (pure ACKs) and 1492 B (802.3 MTU),
//!   and Zipf-popular ports;
//! * **retransmission time differences** (Fig. 1) — per-flow loss with
//!   RTO-driven retransmission delays spread over 0–250 ms;
//! * **handshake RTTs and loss rates** (Fig. 3) — per-flow log-normal RTTs
//!   and heterogeneous loss rates;
//! * **frequent payload strings** (Table 4) — a Zipf-weighted payload pool;
//! * **worm payloads** (§5.1.2) — high-dispersion payloads with controlled
//!   source/destination counts straddling the detection threshold;
//! * **port itemsets** (§4.3) — hosts that deliberately use correlated port
//!   sets such as (22, 80) and (443, 80);
//! * **stepping stones** (Table 5) — pairs of interactive flows with
//!   correlated idle→active transitions, plus uncorrelated decoys.
//!
//! Everything is driven by one seed; the same seed reproduces the same trace
//! byte for byte.

use crate::flow::FlowKey;
use crate::gen::util::{exponential, lognormal, Categorical, Zipf};
use crate::packet::{shared_payload, Packet, Proto, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Tuning knobs for the Hotspot generator. `Default` gives a trace of a few
/// hundred thousand packets that runs every experiment in seconds; scale
/// `web_flows` (etc.) up for paper-scale runs.
#[derive(Debug, Clone)]
pub struct HotspotConfig {
    /// RNG seed; fixes the entire trace.
    pub seed: u64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Number of ordinary (web-like) TCP flows.
    pub web_flows: usize,
    /// Mean data packets per web flow (geometric-ish).
    pub mean_flow_packets: f64,
    /// Median handshake RTT in milliseconds (log-normal location).
    pub rtt_median_ms: f64,
    /// Log-normal sigma of the RTT distribution.
    pub rtt_sigma: f64,
    /// Fraction of flows that experience downstream loss at all.
    pub lossy_flow_fraction: f64,
    /// Mean loss rate among lossy flows.
    pub mean_loss_rate: f64,
    /// Number of distinct frequent payload strings in the pool.
    pub payload_pool: usize,
    /// Length in bytes of pooled payload strings.
    pub payload_len: usize,
    /// Zipf exponent of payload popularity.
    pub payload_zipf: f64,
    /// Number of worm payloads with dispersion above the paper's threshold
    /// of 50 distinct sources and destinations.
    pub worms_above_threshold: usize,
    /// Number of sub-threshold (benign-looking) dispersed payloads.
    pub worms_below_threshold: usize,
    /// Number of correlated stepping-stone flow pairs.
    pub stepping_stone_pairs: usize,
    /// Number of uncorrelated interactive decoy flows.
    pub interactive_decoys: usize,
    /// Target activations per interactive flow (paper's window: 1200–1400,
    /// scaled down by default).
    pub activations_per_flow: std::ops::Range<usize>,
    /// Number of hosts that use planted correlated port sets (for §4.3).
    pub itemset_hosts: usize,
    /// Fraction of web flows preceded by a DNS lookup to the shared
    /// resolver — the first planted communication rule (Kandula et al.).
    pub dns_fraction: f64,
    /// Probability a flow to the most popular web server also contacts its
    /// CDN companion — the second planted communication rule.
    pub companion_fraction: f64,
    /// Fraction of web flows carrying several sequential TCP connections
    /// on one 5-tuple (HTTP/1.0-style), separable only with connection-id
    /// pre-processing (§5.2.1).
    pub multi_connection_fraction: f64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig {
            seed: 0x00d0_9e75,
            duration_s: 600.0,
            web_flows: 3000,
            mean_flow_packets: 24.0,
            rtt_median_ms: 60.0,
            rtt_sigma: 0.7,
            lossy_flow_fraction: 0.35,
            mean_loss_rate: 0.06,
            payload_pool: 400,
            payload_len: 8,
            payload_zipf: 1.4,
            worms_above_threshold: 29, // matches the paper's noise-free count
            worms_below_threshold: 12,
            stepping_stone_pairs: 12,
            interactive_decoys: 24,
            activations_per_flow: 120..141,
            itemset_hosts: 160,
            dns_fraction: 0.75,
            companion_fraction: 0.8,
            multi_connection_fraction: 0.15,
        }
    }
}

/// A planted worm payload and its true dispersion.
#[derive(Debug, Clone)]
pub struct WormTruth {
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Number of distinct source IPs that sent it.
    pub sources: usize,
    /// Number of distinct destination IPs that received it.
    pub destinations: usize,
    /// Total copies in the trace.
    pub copies: usize,
}

/// A planted stepping-stone relationship.
#[derive(Debug, Clone)]
pub struct StoneTruth {
    /// The upstream interactive flow.
    pub flow_a: FlowKey,
    /// The downstream flow relayed through the stone.
    pub flow_b: FlowKey,
    /// Fraction of A's activations that B echoes within δ.
    pub rho: f64,
}

/// Everything the generator planted, for experiment scoring.
#[derive(Debug, Clone, Default)]
pub struct HotspotTruth {
    /// Worm payloads with true dispersion (both above and below threshold).
    pub worms: Vec<WormTruth>,
    /// Stepping-stone pairs.
    pub stones: Vec<StoneTruth>,
    /// Port sets planted for frequent-itemset mining, with host counts.
    pub port_sets: Vec<(Vec<u16>, usize)>,
    /// The shared DNS resolver address (target of the planted DNS rule).
    pub dns_server: u32,
    /// The most popular web server and its planted CDN companion: flows to
    /// the former usually also contact the latter.
    pub companion_rule: (u32, u32),
    /// Number of web flows carrying more than one TCP connection.
    pub multi_connection_flows: usize,
}

/// The generated trace plus its ground truth.
#[derive(Debug, Clone)]
pub struct HotspotTrace {
    /// Packets in timestamp order; packets with equal timestamps keep the
    /// order in which the generator emitted them.
    pub packets: Vec<Packet>,
    /// What was planted.
    pub truth: HotspotTruth,
}

/// Records per shard cut by [`shard_packets`]: large enough that shard
/// bookkeeping is negligible, small enough that a pool's fixed-size task
/// chunks overlap several shards.
pub const SHARD_RECORDS: usize = 1 << 16;

/// Cut a flat packet vector into `Arc`-shared shards of [`SHARD_RECORDS`]
/// packets, in input order — the form protected views are built from
/// (`pinq::Queryable::from_shared_shards`) and the daemon serves, so every
/// run and session reuses the same chunks without copying the trace.
///
/// Shards are cut from the back, so each cut copies only its own records,
/// and every shard holds exactly its records: the input's spare capacity
/// is released rather than kept alive with the shards.
pub fn shard_packets(mut packets: Vec<Packet>) -> Vec<Arc<Vec<Packet>>> {
    let mut out = Vec::with_capacity(packets.len() / SHARD_RECORDS + 1);
    while packets.len() > SHARD_RECORDS {
        let start = (packets.len() - 1) / SHARD_RECORDS * SHARD_RECORDS;
        out.push(Arc::new(packets.split_off(start)));
    }
    packets.shrink_to_fit();
    out.push(Arc::new(packets));
    out.reverse();
    out
}

impl HotspotTrace {
    /// The trace in columnar (SoA, dictionary-encoded) form. Payloads come
    /// from the generator's pooled strings, so the dictionary is a few
    /// hundred entries regardless of packet count.
    pub fn columns(&self) -> crate::columns::PacketColumns {
        crate::columns::PacketColumns::from_packets(&self.packets)
    }

    /// Exact counts of every `len`-byte payload prefix that occurs more
    /// than once in the trace, by count descending, then by bytes. This is
    /// the ground truth of the frequent-string experiments (Table 4): they
    /// measure the trace, not just the pool, so repeated request bytes,
    /// interactive payloads and worm payloads all count. Computed on each
    /// call; only the experiments that score against it pay for it.
    pub fn payload_counts(&self, len: usize) -> Vec<(Vec<u8>, usize)> {
        let mut prefix_counts: std::collections::HashMap<&[u8], usize> =
            std::collections::HashMap::new();
        for p in &self.packets {
            if p.payload.len() >= len {
                *prefix_counts.entry(&p.payload[..len]).or_default() += 1;
            }
        }
        let mut counts: Vec<(Vec<u8>, usize)> = prefix_counts
            .into_iter()
            .filter(|(_, c)| *c > 1)
            .map(|(prefix, c)| (prefix.to_vec(), c))
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }
}

/// Common destination server ports, popularity-ordered (Zipf ranks).
pub const COMMON_PORTS: [u16; 14] = [
    80, 443, 53, 22, 25, 110, 143, 993, 445, 139, 8080, 123, 465, 587,
];

const MTU_LEN: u16 = 1492; // IEEE 802.3, the paper's observed data mode
const ACK_LEN: u16 = 40; // pure TCP acknowledgment

struct Gen {
    rng: StdRng,
    cfg: HotspotConfig,
    /// Destination-port popularity of web flows, over [`COMMON_PORTS`].
    port_zipf: Zipf,
    /// Reused buffer for fresh random payloads, `payload_len` bytes.
    payload_buf: Vec<u8>,
    packets: Vec<Packet>,
    truth: HotspotTruth,
    next_client: u32,
    next_server: u32,
}

impl Gen {
    fn new(cfg: HotspotConfig) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(cfg.seed),
            port_zipf: Zipf::new(COMMON_PORTS.len(), 1.1),
            payload_buf: vec![0; cfg.payload_len],
            cfg,
            packets: Vec::new(),
            truth: HotspotTruth::default(),
            next_client: 0x0a00_0001, // 10.0.0.1 and up: hotspot clients
            next_server: 0x0808_0001, // public space: servers
        }
    }

    fn alloc_client(&mut self) -> u32 {
        let ip = self.next_client;
        self.next_client += 1;
        ip
    }

    fn alloc_server(&mut self) -> u32 {
        let ip = self.next_server;
        self.next_server += 1;
        ip
    }

    fn rtt_us(&mut self) -> u64 {
        let med = self.cfg.rtt_median_ms;
        let r = lognormal(&mut self.rng, med.ln(), self.cfg.rtt_sigma);
        (r.clamp(5.0, 600.0) * 1000.0) as u64
    }

    fn push(&mut self, p: Packet) {
        self.packets.push(p);
    }

    #[allow(clippy::too_many_arguments)]
    fn tcp_packet(
        ts_us: u64,
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        payload: Arc<[u8]>,
    ) -> Packet {
        let len = (ACK_LEN as usize + payload.len()).min(u16::MAX as usize) as u16;
        Packet {
            ts_us,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Proto::Tcp,
            len,
            flags,
            seq,
            ack,
            payload,
        }
    }

    /// Build the Zipf payload pool used by web flows. Payload strings are
    /// distinct `payload_len`-byte blobs; every packet drawing one shares
    /// its buffer.
    fn make_payload_pool(&mut self) -> Vec<Arc<[u8]>> {
        let mut pool = Vec::with_capacity(self.cfg.payload_pool);
        let mut seen = std::collections::HashSet::new();
        while pool.len() < self.cfg.payload_pool {
            let mut s = vec![0u8; self.cfg.payload_len];
            self.rng.fill(&mut s[..]);
            if seen.insert(s.clone()) {
                pool.push(s.into());
            }
        }
        pool
    }

    /// One web-like TCP flow: handshake, server data with retransmissions,
    /// client ACKs. The server is drawn from a bounded pool of popular web
    /// servers (Zipf), as in real traffic — which also keeps the *source*
    /// dispersion of popular content strings below the worm-detection
    /// threshold of 50: content is served by few hosts, worms spray from
    /// many.
    fn web_flow(
        &mut self,
        pool: &[Arc<[u8]>],
        zipf: &Zipf,
        servers: &[u32],
        server_zipf: &Zipf,
        dns_server: u32,
        companion_server: u32,
    ) {
        let client = self.alloc_client();
        let server = servers[server_zipf.sample(&mut self.rng)];
        let sport: u16 = self.rng.gen_range(32768..61000);
        // Port popularity: Zipf over the common list, occasionally random.
        let dport = if self.rng.gen::<f64>() < 0.92 {
            COMMON_PORTS[self.port_zipf.sample(&mut self.rng)]
        } else {
            self.rng.gen_range(1024..65535)
        };

        let span_us = (self.cfg.duration_s * 1e6) as u64;
        let t0 = self
            .rng
            .gen_range(0..span_us.saturating_sub(5_000_000).max(1));

        // DNS lookup preceding the web transfer: the client asks the
        // resolver before it connects — the communication rule ("talking to
        // a web server implies talking to the resolver") that the Kandula-
        // style rule mining discovers.
        if self.rng.gen::<f64>() < self.cfg.dns_fraction {
            let qport = self.rng.gen_range(32768..61000);
            let t_dns = t0.saturating_sub(self.rng.gen_range(2_000..40_000));
            let query = Packet {
                ts_us: t_dns,
                src_ip: client,
                dst_ip: dns_server,
                src_port: qport,
                dst_port: 53,
                proto: Proto::Udp,
                len: 70,
                flags: TcpFlags::default(),
                seq: 0,
                ack: 0,
                payload: vec![0x00, 0x01, 0x01, 0x00].into(),
            };
            let mut response = query.clone();
            response.ts_us = t_dns + self.rng.gen_range(1_000..25_000);
            response.src_ip = dns_server;
            response.dst_ip = client;
            response.src_port = 53;
            response.dst_port = qport;
            response.len = 180;
            self.push(query);
            self.push(response);
        }

        // Companion dependency: talking to the most popular web server also
        // means fetching from its CDN companion — the second planted rule.
        if server == servers[0] && self.rng.gen::<f64>() < self.cfg.companion_fraction {
            let cport = self.rng.gen_range(32768..61000);
            let mut t_c = t0 + self.rng.gen_range(10_000..400_000);
            let isn: u32 = self.rng.gen();
            self.push(Self::tcp_packet(
                t_c,
                client,
                companion_server,
                cport,
                443,
                TcpFlags::syn(),
                isn,
                0,
                shared_payload(&[]),
            ));
            t_c += self.rng.gen_range(10_000..60_000);
            self.push(Self::tcp_packet(
                t_c,
                companion_server,
                client,
                443,
                cport,
                TcpFlags::syn_ack(),
                isn ^ 7,
                isn.wrapping_add(1),
                shared_payload(&[]),
            ));
            t_c += 300;
            self.push(Self::tcp_packet(
                t_c,
                client,
                companion_server,
                cport,
                443,
                TcpFlags::ack(),
                isn.wrapping_add(1),
                (isn ^ 7).wrapping_add(1),
                shared_payload(&[]),
            ));
        }

        // HTTP/1.0-style behaviour: a fraction of flows run several
        // sequential connections on the same 5-tuple, which only the
        // connection-id pre-processing (not the flow key) can separate.
        let connections = if self.rng.gen::<f64>() < self.cfg.multi_connection_fraction {
            self.truth.multi_connection_flows += 1;
            self.rng.gen_range(2..4usize)
        } else {
            1
        };
        let mut t_conn = t0;
        for _ in 0..connections {
            t_conn = self.web_connection(pool, zipf, client, server, sport, dport, t_conn);
            t_conn += self.rng.gen_range(500_000..3_000_000);
        }
    }

    /// One TCP connection of a web flow (handshake → request → data with
    /// retransmissions → FIN). Returns the teardown time.
    #[allow(clippy::too_many_arguments)]
    fn web_connection(
        &mut self,
        pool: &[Arc<[u8]>],
        zipf: &Zipf,
        client: u32,
        server: u32,
        sport: u16,
        dport: u16,
        t0: u64,
    ) -> u64 {
        let rtt = self.rtt_us();

        let isn_c: u32 = self.rng.gen();
        let isn_s: u32 = self.rng.gen();

        // Handshake. The monitor sits on the access link, so it sees both
        // directions; SYN→SYN-ACK spacing is the RTT beyond the monitor.
        self.push(Self::tcp_packet(
            t0,
            client,
            server,
            sport,
            dport,
            TcpFlags::syn(),
            isn_c,
            0,
            shared_payload(&[]),
        ));
        self.push(Self::tcp_packet(
            t0 + rtt,
            server,
            client,
            dport,
            sport,
            TcpFlags::syn_ack(),
            isn_s,
            isn_c.wrapping_add(1),
            shared_payload(&[]),
        ));
        self.push(Self::tcp_packet(
            t0 + rtt + 200,
            client,
            server,
            sport,
            dport,
            TcpFlags::ack(),
            isn_c.wrapping_add(1),
            isn_s.wrapping_add(1),
            shared_payload(&[]),
        ));

        // Request from the client: a mid-sized packet.
        let req_len = self.rng.gen_range(120..700usize);
        let mut t = t0 + rtt + 400;
        self.push(Self::tcp_packet(
            t,
            client,
            server,
            sport,
            dport,
            TcpFlags::new(false, true, false, false, true),
            isn_c.wrapping_add(1),
            isn_s.wrapping_add(1),
            vec![0x47; req_len].into(), // 'G'
        ));

        // Server data packets.
        let n_data = (exponential(&mut self.rng, 1.0 / self.cfg.mean_flow_packets).round()
            as usize)
            .clamp(1, 400);
        let lossy = self.rng.gen::<f64>() < self.cfg.lossy_flow_fraction;
        let loss_rate = if lossy {
            (exponential(&mut self.rng, 1.0 / self.cfg.mean_loss_rate)).min(0.30)
        } else {
            0.0
        };
        // Per-flow RTO: where Figure 1's retransmission-delay distribution
        // comes from. Spread across ~20–240 ms.
        let rto_us = ((2.0 * rtt as f64) + exponential(&mut self.rng, 1.0 / 30_000.0))
            .clamp(20_000.0, 240_000.0) as u64;

        let mut seq = isn_s.wrapping_add(1);
        t += rtt / 2;
        for i in 0..n_data {
            // Mostly full-MTU data; some smaller tail packets.
            let size_pick: f64 = self.rng.gen();
            let dlen: usize = if size_pick < 0.62 {
                (MTU_LEN - ACK_LEN) as usize
            } else if size_pick < 0.80 {
                self.rng.gen_range(200..1000)
            } else {
                self.rng.gen_range(32..200)
            };
            // Payload: drawn from the pool (frequent strings ride along at
            // the front of the payload), or unique bytes. Only the first
            // `payload_len` bytes are stored — a snaplen-style prefix — but
            // the wire length `len` reflects the full `dlen`.
            let payload = if dlen >= self.cfg.payload_len && self.rng.gen::<f64>() < 0.7 {
                pool[zipf.sample(&mut self.rng)].clone()
            } else {
                self.rng.fill(&mut self.payload_buf[..]);
                Arc::from(&self.payload_buf[..])
            };

            let wire_len = (ACK_LEN as usize + dlen).min(u16::MAX as usize) as u16;
            let mut data_pkt = Self::tcp_packet(
                t,
                server,
                client,
                dport,
                sport,
                TcpFlags::ack(),
                seq,
                isn_c.wrapping_add(1 + req_len as u32),
                payload.clone(),
            );
            data_pkt.len = wire_len;
            self.push(data_pkt);
            // Downstream loss → the monitor sees a retransmission later.
            if self.rng.gen::<f64>() < loss_rate {
                let jitter = self.rng.gen_range(0..8_000);
                let mut retx = Self::tcp_packet(
                    t + rto_us + jitter,
                    server,
                    client,
                    dport,
                    sport,
                    TcpFlags::ack(),
                    seq,
                    isn_c.wrapping_add(1 + req_len as u32),
                    payload,
                );
                retx.len = wire_len;
                self.push(retx);
            }
            // Client acknowledges every other data packet: the 40 B mode.
            if i % 2 == 1 {
                self.push(Self::tcp_packet(
                    t + rtt / 2,
                    client,
                    server,
                    sport,
                    dport,
                    TcpFlags::ack(),
                    isn_c.wrapping_add(1 + req_len as u32),
                    seq.wrapping_add(dlen as u32),
                    shared_payload(&[]),
                ));
            }
            seq = seq.wrapping_add(dlen as u32);
            t += self.rng.gen_range(500..20_000);
        }

        // Teardown.
        self.push(Self::tcp_packet(
            t,
            server,
            client,
            dport,
            sport,
            TcpFlags::new(false, true, true, false, false),
            seq,
            0,
            shared_payload(&[]),
        ));
        t
    }

    /// Plant worm traffic: one payload string sprayed from `sources` hosts
    /// to `destinations` hosts.
    fn worm(&mut self, sources: usize, destinations: usize) {
        let mut payload = vec![0u8; self.cfg.payload_len];
        self.rng.fill(&mut payload[..]);
        let shared: Arc<[u8]> = payload.as_slice().into();
        let srcs: Vec<u32> = (0..sources).map(|_| self.alloc_client()).collect();
        let dsts: Vec<u32> = (0..destinations).map(|_| self.alloc_server()).collect();
        let span_us = (self.cfg.duration_s * 1e6) as u64;
        // Each destination is probed once; every destination gets hit. This
        // couples a worm's total presence tightly to its dispersion, which
        // is what makes "low overall presence but above average dispersal"
        // payloads (the ones §5.1.2 reports missing at strong privacy) a
        // real phenomenon in the synthetic trace.
        // Cycle both lists so every source and destination appears; total
        // presence equals max(sources, destinations).
        let copies = sources.max(destinations);
        for i in 0..copies {
            let src = srcs[i % srcs.len()];
            let dst = dsts[i % dsts.len()];
            let t = self.rng.gen_range(0..span_us);
            let sport = self.rng.gen_range(32768..61000);
            let seq = self.rng.gen();
            self.push(Self::tcp_packet(
                t,
                src,
                dst,
                sport,
                445,
                TcpFlags::new(false, true, false, false, true),
                seq,
                0,
                shared.clone(),
            ));
        }
        self.truth.worms.push(WormTruth {
            payload,
            sources,
            destinations,
            copies,
        });
    }

    /// Generate an interactive flow's activation times: bursts separated by
    /// idle gaps longer than T_idle, so each burst is one activation.
    fn activation_times(&mut self, count: usize, span_us: u64) -> Vec<u64> {
        let mut times = Vec::with_capacity(count);
        let mut t = self.rng.gen_range(0..1_000_000u64);
        for _ in 0..count {
            // Gap: at least 0.7 s idle (safely above T_idle = 0.5 s).
            let gap = 700_000 + (exponential(&mut self.rng, 1.0 / 1.5e6) as u64);
            t += gap;
            if t >= span_us {
                break;
            }
            times.push(t);
        }
        times
    }

    /// Emit an interactive (ssh-like) flow with packets at the given
    /// activation times (plus a couple of follow-up packets per burst that
    /// stay within the idle window).
    fn interactive_flow(&mut self, times: &[u64]) -> FlowKey {
        let client = self.alloc_client();
        let server = self.alloc_server();
        let sport: u16 = self.rng.gen_range(32768..61000);
        let dport: u16 = 22;
        let mut seq: u32 = self.rng.gen();
        for &t in times {
            let burst = self.rng.gen_range(1..4usize);
            for b in 0..burst {
                let dt = (b as u64) * self.rng.gen_range(10_000..80_000);
                let plen = self.rng.gen_range(16..80usize);
                self.push(Self::tcp_packet(
                    t + dt,
                    client,
                    server,
                    sport,
                    dport,
                    TcpFlags::new(false, true, false, false, true),
                    seq,
                    0,
                    vec![0x73; plen].into(), // 's'
                ));
                seq = seq.wrapping_add(plen as u32);
            }
        }
        FlowKey {
            src_ip: client,
            dst_ip: server,
            src_port: sport,
            dst_port: dport,
            proto: Proto::Tcp.number(),
        }
    }

    /// Plant stepping-stone pairs and decoys.
    fn stepping_stones(&mut self) {
        let span_us = (self.cfg.duration_s * 1e6) as u64;
        let lo = self.cfg.activations_per_flow.start;
        let hi = self.cfg.activations_per_flow.end;
        for _ in 0..self.cfg.stepping_stone_pairs {
            let count = self.rng.gen_range(lo..hi);
            let times_a = self.activation_times(count, span_us);
            let rho = self.rng.gen_range(0.70..0.95);
            // B echoes A's activations with small relay delay, within the
            // paper's δ = 40 ms window.
            let mut times_b = Vec::new();
            for &t in &times_a {
                if self.rng.gen::<f64>() < rho {
                    times_b.push(t + self.rng.gen_range(2_000..35_000));
                } else {
                    // Occasional independent activity.
                    times_b.push(t + self.rng.gen_range(100_000..400_000));
                }
            }
            let flow_a = self.interactive_flow(&times_a);
            let flow_b = self.interactive_flow(&times_b);
            self.truth.stones.push(StoneTruth {
                flow_a,
                flow_b,
                rho,
            });
        }
        for _ in 0..self.cfg.interactive_decoys {
            let count = self.rng.gen_range(lo..hi);
            let times = self.activation_times(count, span_us);
            self.interactive_flow(&times);
        }
    }

    /// Plant hosts using correlated port sets, for itemset mining (§4.3).
    /// The paper's discovered top-5: (22,80), (25,22), (443,80), (445,139),
    /// (993,22).
    fn port_itemsets(&mut self) {
        let sets: [(&[u16], f64); 5] = [
            (&[22, 80], 0.30),
            (&[25, 22], 0.25),
            (&[443, 80], 0.20),
            (&[445, 139], 0.15),
            (&[993, 22], 0.10),
        ];
        let weights: Vec<f64> = sets.iter().map(|s| s.1).collect();
        let cat = Categorical::new(&weights);
        let span_us = (self.cfg.duration_s * 1e6) as u64;
        let mut planted: Vec<usize> = vec![0; sets.len()];
        for _ in 0..self.cfg.itemset_hosts {
            let pick = cat.sample(&mut self.rng);
            planted[pick] += 1;
            let client = self.alloc_client();
            // The host talks on every port of its set (a few packets each),
            // plus one random extra port sometimes.
            let mut ports: Vec<u16> = sets[pick].0.to_vec();
            if self.rng.gen::<f64>() < 0.3 {
                ports.push(self.rng.gen_range(1024..65535));
            }
            for port in ports {
                let server = self.alloc_server();
                let reps = self.rng.gen_range(2..6);
                for _ in 0..reps {
                    let t = self.rng.gen_range(0..span_us);
                    let sport = self.rng.gen_range(32768..61000);
                    let seq = self.rng.gen();
                    self.push(Self::tcp_packet(
                        t,
                        client,
                        server,
                        sport,
                        port,
                        TcpFlags::ack(),
                        seq,
                        0,
                        shared_payload(&[]),
                    ));
                }
            }
        }
        self.truth.port_sets = sets
            .iter()
            .zip(planted)
            .map(|((ports, _), n)| (ports.to_vec(), n))
            .collect();
    }

    fn run(mut self) -> HotspotTrace {
        let pool = self.make_payload_pool();
        let zipf = Zipf::new(pool.len(), self.cfg.payload_zipf);
        // A bounded pool of popular web servers (fewer than the worm
        // dispersion threshold of 50), with Zipf popularity — plus the
        // shared DNS resolver and the popular server's CDN companion, the
        // two planted communication rules.
        let servers: Vec<u32> = (0..45).map(|_| self.alloc_server()).collect();
        let server_zipf = Zipf::new(servers.len(), 0.9);
        let dns_server = self.alloc_server();
        let companion_server = self.alloc_server();
        self.truth.dns_server = dns_server;
        self.truth.companion_rule = (servers[0], companion_server);
        for _ in 0..self.cfg.web_flows {
            self.web_flow(
                &pool,
                &zipf,
                &servers,
                &server_zipf,
                dns_server,
                companion_server,
            );
        }
        // Worms above the dispersion threshold of 50. The dispersion
        // schedule is concentrated near the threshold (cubic ramp), so a
        // substantial fraction of worms have "low overall presence but
        // above average dispersal" — the payloads §5.1.2 reports missing at
        // strong privacy levels.
        let n_above = self.cfg.worms_above_threshold;
        for i in 0..n_above {
            let frac = i as f64 / n_above.max(1) as f64;
            let spread = 55 + (260.0 * frac.powi(3)) as usize;
            let extra = self.rng.gen_range(0..(spread / 4).max(2));
            self.worm(spread, spread + extra);
        }
        for _ in 0..self.cfg.worms_below_threshold {
            let spread = self.rng.gen_range(5..45);
            let dsts = self.rng.gen_range(5..45);
            self.worm(spread, dsts);
        }
        self.stepping_stones();
        self.port_itemsets();

        // Stable, so equal timestamps keep emission order. Sorting cached
        // (timestamp, index) keys and then permuting in place moves each
        // packet once instead of on every merge pass.
        self.packets.sort_by_cached_key(|p| p.ts_us);
        HotspotTrace {
            packets: self.packets,
            truth: self.truth,
        }
    }
}

/// Generate a Hotspot-style trace from the given configuration.
///
/// # Panics
/// Panics if `payload_pool` exceeds the `256^payload_len` distinct
/// `payload_len`-byte strings that exist: the pool must be distinct.
pub fn generate(cfg: HotspotConfig) -> HotspotTrace {
    // 256^8 already exceeds any `usize`; powers of two are exact in f64.
    let distinct = 256f64.powi(cfg.payload_len.min(8) as i32);
    assert!(
        cfg.payload_pool as f64 <= distinct,
        "payload_pool ({}) exceeds the {distinct} distinct strings of payload_len ({}) bytes",
        cfg.payload_pool,
        cfg.payload_len
    );
    Gen::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{activations, handshake_rtts, retransmission_delays};

    fn small() -> HotspotTrace {
        generate(HotspotConfig {
            web_flows: 300,
            worms_above_threshold: 5,
            worms_below_threshold: 3,
            stepping_stone_pairs: 3,
            interactive_decoys: 4,
            itemset_hosts: 40,
            ..HotspotConfig::default()
        })
    }

    #[test]
    fn trace_is_time_sorted_and_nonempty() {
        let t = small();
        assert!(t.packets.len() > 5_000);
        assert!(t.packets.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.packets.len(), b.packets.len());
        assert_eq!(a.packets[..100], b.packets[..100]);
    }

    #[test]
    fn packet_sizes_have_expected_modes() {
        let t = small();
        let n = t.packets.len() as f64;
        let acks = t.packets.iter().filter(|p| p.len == 40).count() as f64;
        let mtu = t.packets.iter().filter(|p| p.len == 1492).count() as f64;
        assert!(acks / n > 0.10, "40 B fraction {}", acks / n);
        assert!(mtu / n > 0.15, "1492 B fraction {}", mtu / n);
    }

    #[test]
    fn port_80_dominates() {
        let t = small();
        let p80 = t
            .packets
            .iter()
            .filter(|p| p.dst_port == 80 || p.src_port == 80)
            .count();
        let p8080 = t
            .packets
            .iter()
            .filter(|p| p.dst_port == 8080 || p.src_port == 8080)
            .count();
        assert!(p80 > 3 * p8080.max(1));
    }

    #[test]
    fn handshakes_yield_rtts_with_sane_median() {
        let t = small();
        let mut rtts = handshake_rtts(&t.packets);
        assert!(rtts.len() > 200, "only {} RTTs", rtts.len());
        rtts.sort_unstable();
        let median_ms = rtts[rtts.len() / 2] as f64 / 1000.0;
        assert!((20.0..200.0).contains(&median_ms), "median {median_ms} ms");
    }

    #[test]
    fn retransmissions_exist_and_fall_in_figure1_range() {
        let t = small();
        let delays = retransmission_delays(&t.packets);
        assert!(delays.len() > 50, "only {} retransmissions", delays.len());
        let in_range = delays
            .iter()
            .filter(|&&d| (20_000..=250_000).contains(&d))
            .count() as f64;
        assert!(in_range / delays.len() as f64 > 0.95);
    }

    #[test]
    fn worm_truth_matches_trace_dispersion() {
        let t = small();
        for w in &t.truth.worms {
            let mut srcs = std::collections::HashSet::new();
            let mut dsts = std::collections::HashSet::new();
            let mut copies = 0;
            for p in &t.packets {
                if *p.payload == *w.payload {
                    srcs.insert(p.src_ip);
                    dsts.insert(p.dst_ip);
                    copies += 1;
                }
            }
            assert_eq!(srcs.len(), w.sources, "source dispersion mismatch");
            assert_eq!(
                dsts.len(),
                w.destinations,
                "destination dispersion mismatch"
            );
            assert_eq!(copies, w.copies);
        }
    }

    #[test]
    fn payload_counts_are_exact_and_sorted() {
        let t = small();
        let counts = t.payload_counts(8);
        assert!(counts.len() > 50);
        assert!(counts.iter().all(|(s, c)| s.len() == 8 && *c > 1));
        // Count descending, ties by bytes.
        assert!(counts
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        // Spot-check the top string's count against the trace.
        let (top, n) = &counts[0];
        let actual = t
            .packets
            .iter()
            .filter(|p| p.payload.len() >= top.len() && p.payload[..top.len()] == top[..])
            .count();
        assert_eq!(actual, *n);
    }

    #[test]
    #[should_panic(
        expected = "payload_pool (400) exceeds the 256 distinct strings of payload_len (1)"
    )]
    fn payload_pool_larger_than_the_distinct_strings_is_refused() {
        generate(HotspotConfig {
            payload_len: 1,
            ..HotspotConfig::default()
        });
    }

    #[test]
    fn sharding_preserves_order_and_length() {
        assert_eq!(shard_packets(Vec::new()).len(), 1);

        let t = small();
        let many: Vec<Packet> = t
            .packets
            .iter()
            .cycle()
            .take(3 * SHARD_RECORDS / 2)
            .cloned()
            .collect();
        let shards = shard_packets(many.clone());
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].len(), SHARD_RECORDS);
        assert!(shards.iter().all(|s| s.capacity() == s.len()));
        let rejoined: Vec<Packet> = shards.iter().flat_map(|s| s.iter().cloned()).collect();
        assert_eq!(rejoined, many);
    }

    #[test]
    fn stepping_stones_are_actually_correlated() {
        let t = small();
        assert!(!t.truth.stones.is_empty());
        let acts = activations(&t.packets, 500_000);
        for stone in &t.truth.stones {
            let a: Vec<u64> = acts
                .iter()
                .filter(|x| x.flow == stone.flow_a)
                .map(|x| x.ts_us)
                .collect();
            let b: Vec<u64> = acts
                .iter()
                .filter(|x| x.flow == stone.flow_b)
                .map(|x| x.ts_us)
                .collect();
            assert!(a.len() > 50, "flow A has {} activations", a.len());
            let corr = crate::tcp::activation_correlation(&a, &b, 40_000);
            assert!(
                corr > 0.5,
                "planted stone (rho={}) measured correlation {corr}",
                stone.rho
            );
        }
    }

    #[test]
    fn dns_rule_is_planted() {
        let t = small();
        let dns = t.truth.dns_server;
        // Clients issue DNS queries to the shared resolver before flows.
        let queries = t
            .packets
            .iter()
            .filter(|p| p.dst_ip == dns && p.dst_port == 53 && p.proto == Proto::Udp)
            .count();
        // ~75% of 300 web flows.
        assert!(queries > 150, "only {queries} DNS queries");
        // And the resolver answers.
        let responses = t
            .packets
            .iter()
            .filter(|p| p.src_ip == dns && p.src_port == 53)
            .count();
        assert_eq!(queries, responses);
    }

    #[test]
    fn companion_rule_is_planted() {
        let t = small();
        let (popular, companion) = t.truth.companion_rule;
        let mut popular_clients = std::collections::HashSet::new();
        let mut companion_clients = std::collections::HashSet::new();
        for p in &t.packets {
            if p.dst_ip == popular {
                popular_clients.insert(p.src_ip);
            }
            if p.dst_ip == companion {
                companion_clients.insert(p.src_ip);
            }
        }
        assert!(!popular_clients.is_empty());
        let both = popular_clients
            .iter()
            .filter(|c| companion_clients.contains(c))
            .count();
        let frac = both as f64 / popular_clients.len() as f64;
        assert!(frac > 0.6, "companion rule confidence {frac}");
    }

    #[test]
    fn multi_connection_flows_are_separable() {
        let t = small();
        assert!(t.truth.multi_connection_flows > 10);
        let sizes = crate::connections::packets_per_connection(&t.packets);
        // More TCP connections than distinct client/server conversations
        // carrying them: multi-connection 5-tuples split.
        let conversations = crate::flow::assemble_conversations(
            &t.packets
                .iter()
                .filter(|p| p.proto == Proto::Tcp)
                .cloned()
                .collect::<Vec<_>>(),
        )
        .len();
        assert!(
            sizes.len() > conversations,
            "{} connections vs {} conversations",
            sizes.len(),
            conversations
        );
    }

    #[test]
    fn itemset_hosts_use_their_port_sets() {
        let t = small();
        let total: usize = t.truth.port_sets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 40);
        // (22, 80) should be the most-planted set.
        assert_eq!(t.truth.port_sets[0].0, vec![22, 80]);
    }
}
