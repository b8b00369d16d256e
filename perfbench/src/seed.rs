//! Everything a run generates derives from the one workload seed: the
//! trace, the request scripts and the noise seeds. The program under test
//! only ever sees the generated inputs.

use dpnet_trace::gen::hotspot::HotspotConfig;
use dpnet_trace::Packet;

/// Independent streams derived from the workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// The Hotspot generator's seed.
    Trace = 1,
    /// Request scripts (analyst names, analysis order).
    Script = 2,
    /// The daemon's noise seeds.
    Noise = 3,
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of `stream`, sub-indexed by `index` (a connection, an op).
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream as u64)) ^ index)
}

/// The experiment-scale Hotspot configuration with the seed replaced.
pub fn trace_config(seed: u64) -> HotspotConfig {
    HotspotConfig {
        seed: derive(seed, Stream::Trace, 0),
        ..HotspotConfig::default()
    }
}

/// FNV-1a digest over every packet field, in trace order.
pub fn trace_digest<'a>(packets: impl IntoIterator<Item = &'a Packet>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in packets {
        eat(&p.ts_us.to_le_bytes());
        eat(&p.src_ip.to_le_bytes());
        eat(&p.dst_ip.to_le_bytes());
        eat(&p.src_port.to_le_bytes());
        eat(&p.dst_port.to_le_bytes());
        eat(&[p.proto.number()]);
        eat(&p.len.to_le_bytes());
        eat(&[p.flags.0]);
        eat(&p.seq.to_le_bytes());
        eat(&p.ack.to_le_bytes());
        eat(&(p.payload.len() as u64).to_le_bytes());
        eat(&p.payload);
    }
    h
}

/// A small deterministic generator for scripts (xorshift64*).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream`/`index` of the workload seed.
    pub fn new(seed: u64, stream: Stream, index: u64) -> Rng {
        Rng(derive(seed, stream, index) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform index below `n` (`n` > 0; the modulo bias is irrelevant
    /// for a shuffle of a few dozen cards).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `serve-mix` deck of cheap analyses: each block of requests holds
/// every one this many times, in a seeded order.
pub const CHEAP_DECK: &[(&str, usize)] = &[
    ("count", 6),
    ("heavy-hosts", 4),
    ("lengths", 4),
    ("ports", 4),
    ("rtt", 4),
];

/// The heavy analyses. Each runs once per measurement window, shuffled
/// into the first block of connection 0. Fewer than ten heavy requests
/// per window keeps them out of `op_tail_ms`. Their time is CPU time,
/// which follows the shared host's speed: a `worm` request takes half as
/// long on an idle host as on a busy one, so a tail set by them could not
/// hold its bound. The traced run reports their server time per analysis.
pub const HEAVY: &[&str] = &["loss", "retx-cdf", "itemsets", "worm"];

/// The analysis order connection `conn` follows in window `window` of a
/// `serve-mix` run: seeded shuffles of the deck, block after block. A
/// fixed deck keeps the mix's composition the same for every seed; the
/// seed moves only the order.
#[derive(Debug, Clone)]
pub struct MixScript {
    rng: Rng,
    block: Vec<&'static str>,
    heavy_due: bool,
}

impl MixScript {
    /// The script of one connection in one measurement window.
    pub fn new(seed: u64, window: u64, conn: u64) -> MixScript {
        MixScript {
            rng: Rng::new(seed, Stream::Script, (window << 32) | conn),
            block: Vec::new(),
            heavy_due: conn == 0,
        }
    }

    /// Whether the last block has been issued whole.
    pub fn between_blocks(&self) -> bool {
        self.block.is_empty()
    }
}

impl Iterator for MixScript {
    type Item = &'static str;

    fn next(&mut self) -> Option<&'static str> {
        if self.block.is_empty() {
            for &(name, n) in CHEAP_DECK {
                self.block.extend(std::iter::repeat(name).take(n));
            }
            if std::mem::take(&mut self.heavy_due) {
                self.block.extend_from_slice(HEAVY);
            }
            // Fisher–Yates; drawing from the back keeps the shuffled order.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        self.block.pop()
    }
}

/// The fresh analyst identity connection `conn` opens its `k`-th
/// `serve-interactive` session as.
pub fn analyst_name(seed: u64, window: u64, conn: u64, k: u64) -> String {
    let tag = derive(seed, Stream::Script, (window << 32) | conn) as u32;
    format!("a{tag:08x}-w{window}c{conn}s{k}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_trace::gen::hotspot;

    fn script(seed: u64) -> Vec<&'static str> {
        MixScript::new(seed, 0, 1).take(200).collect()
    }

    /// A reduced trace so the test stays quick in debug builds; the seed
    /// path is the one the benchmark uses.
    fn small_trace_digest(seed: u64) -> u64 {
        let mut cfg = trace_config(seed);
        cfg.web_flows /= 20;
        cfg.itemset_hosts /= 20;
        cfg.activations_per_flow = 10..12;
        trace_digest(&hotspot::generate(cfg).packets)
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(script(7), script(7));
        assert_eq!(analyst_name(7, 0, 1, 3), analyst_name(7, 0, 1, 3));
        assert_eq!(trace_config(7).seed, trace_config(7).seed);
        assert_eq!(small_trace_digest(7), small_trace_digest(7));
        assert_eq!(derive(7, Stream::Noise, 4), derive(7, Stream::Noise, 4));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(script(7), script(8));
        assert_ne!(analyst_name(7, 0, 1, 3), analyst_name(8, 0, 1, 3));
        assert_ne!(trace_config(7).seed, trace_config(8).seed);
        assert_ne!(small_trace_digest(7), small_trace_digest(8));
        assert_ne!(derive(7, Stream::Noise, 4), derive(8, Stream::Noise, 4));
    }

    #[test]
    fn streams_and_indices_are_independent() {
        assert_ne!(derive(7, Stream::Trace, 0), derive(7, Stream::Noise, 0));
        assert_ne!(derive(7, Stream::Noise, 0), derive(7, Stream::Noise, 1));
        assert_ne!(
            MixScript::new(7, 0, 1).take(22).collect::<Vec<_>>(),
            MixScript::new(7, 0, 2).take(22).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_block_has_the_fixed_composition() {
        let deck: usize = CHEAP_DECK.iter().map(|&(_, n)| n).sum();
        for conn in [0, 1] {
            let mut script = MixScript::new(11, 0, conn);
            for block in 0..3 {
                let heavy = conn == 0 && block == 0;
                let len = deck + if heavy { HEAVY.len() } else { 0 };
                let b: Vec<&str> = script.by_ref().take(len).collect();
                assert!(script.between_blocks());
                for &(name, n) in CHEAP_DECK {
                    assert_eq!(b.iter().filter(|&&a| a == name).count(), n);
                }
                for name in HEAVY {
                    assert_eq!(b.contains(name), heavy, "{name}");
                }
            }
        }
        let mut names: Vec<&str> = CHEAP_DECK.iter().map(|&(n, _)| n).collect();
        names.extend_from_slice(HEAVY);
        for spec in dpnet_bench::registry::REGISTRY {
            assert!(names.contains(&spec.name), "{}", spec.name);
        }
        assert_eq!(names.len(), dpnet_bench::registry::REGISTRY.len());
    }
}
