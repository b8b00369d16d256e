//! Determinism guarantees: seeded generators and seeded noise make whole
//! experiment pipelines bit-for-bit reproducible, which the harness (and
//! EXPERIMENTS.md) relies on.

use dpnet::pinq::{Accountant, NoiseSource, Queryable};
use dpnet::toolkit::cdf::cdf_partition;
use dpnet::trace::gen::hotspot::{generate, HotspotConfig};
use dpnet::trace::gen::isp::{self, IspConfig};
use dpnet::trace::gen::scatter::{self, ScatterConfig};
use dpnet::trace::Packet;

/// Digests of the two configs of `hotspot_traces_match_pinned_digests`,
/// recorded before the generator's sort and emission were optimised.
const SMALL_DIGEST: u64 = 0xf8f0_741d_bfc4_ae5a;
const SHORT_DIGEST: u64 = 0x15c4_c4a5_8a8a_118b;

fn cfg() -> HotspotConfig {
    HotspotConfig {
        web_flows: 120,
        worms_above_threshold: 2,
        worms_below_threshold: 1,
        stepping_stone_pairs: 1,
        interactive_decoys: 1,
        itemset_hosts: 8,
        ..HotspotConfig::default()
    }
}

#[test]
fn hotspot_generation_is_bit_reproducible() {
    let a = generate(cfg());
    let b = generate(cfg());
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.payload_counts(8), b.payload_counts(8));
    assert_eq!(a.truth.worms.len(), b.truth.worms.len());
}

/// FNV-1a over every packet field, in trace order (the benchmark's
/// `trace_digest`).
fn trace_digest(packets: &[Packet]) -> u64 {
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

/// Pins the generator's exact output, so a faster generator cannot change
/// a trace. The short trace packs its packets into 5 s, so many adjacent
/// packets share a timestamp: its digest also pins the tie order (emission
/// order).
#[test]
fn hotspot_traces_match_pinned_digests() {
    let small = HotspotConfig {
        web_flows: 300,
        worms_above_threshold: 5,
        worms_below_threshold: 3,
        stepping_stone_pairs: 3,
        interactive_decoys: 4,
        itemset_hosts: 40,
        ..HotspotConfig::default()
    };
    let short = HotspotConfig {
        duration_s: 5.0,
        ..small.clone()
    };
    let a = generate(small);
    let b = generate(short);
    let ties = b
        .packets
        .windows(2)
        .filter(|w| w[0].ts_us == w[1].ts_us && w[0] != w[1])
        .count();
    assert!(
        ties > 0,
        "the short trace has no equal-timestamp neighbours"
    );
    assert_eq!(trace_digest(&a.packets), SMALL_DIGEST);
    assert_eq!(trace_digest(&b.packets), SHORT_DIGEST);
}

#[test]
fn different_seeds_give_different_traces() {
    let a = generate(cfg());
    let b = generate(HotspotConfig {
        seed: cfg().seed + 1,
        ..cfg()
    });
    assert_ne!(a.packets, b.packets);
}

#[test]
fn isp_and_scatter_generators_are_reproducible() {
    let i1 = isp::generate(IspConfig {
        links: 20,
        windows: 48,
        ..IspConfig::default()
    });
    let i2 = isp::generate(IspConfig {
        links: 20,
        windows: 48,
        ..IspConfig::default()
    });
    assert_eq!(i1.volumes, i2.volumes);

    let s1 = scatter::generate(ScatterConfig {
        ips: 500,
        ..ScatterConfig::default()
    });
    let s2 = scatter::generate(ScatterConfig {
        ips: 500,
        ..ScatterConfig::default()
    });
    assert_eq!(s1.records, s2.records);
}

#[test]
fn seeded_private_pipelines_release_identical_values() {
    let trace = generate(cfg());
    let run = || -> Vec<f64> {
        let budget = Accountant::new(10.0);
        let noise = NoiseSource::seeded(0xDE7E12);
        let q = Queryable::new(trace.packets.clone(), &budget, &noise);
        let values = q.map(|p| (p.len / 100) as usize);
        cdf_partition(&values, 16, 0.5).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn noise_seed_changes_only_the_noise() {
    let trace = generate(cfg());
    let run = |seed: u64| -> f64 {
        let budget = Accountant::new(10.0);
        let noise = NoiseSource::seeded(seed);
        let q = Queryable::new(trace.packets.clone(), &budget, &noise);
        q.noisy_count(1.0).unwrap()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "different noise seeds must perturb differently");
    // But both stay within plausible noise of each other.
    assert!((a - b).abs() < 40.0);
}
