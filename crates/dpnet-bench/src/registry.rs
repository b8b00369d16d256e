//! The analysis registry: named, ε-parameterized analyses over a protected
//! [`Queryable<Packet>`].
//!
//! The paper's mediation model (§7) has analysts submit *analyses*, not
//! raw queries: the owner exposes a fixed catalogue and the analyst picks
//! one plus a privacy level. This module is that catalogue, extracted from
//! the experiment drivers so one definition serves three frontends:
//!
//! * `dpnet analyze` (CLI, owner-side one-shot runs),
//! * the `dpnet-serve` daemon (remote analysts invoking analyses by name
//!   with per-request ε),
//! * the bench/loadtest harness.
//!
//! Every runner takes the protected view and an ε, spends through whatever
//! budgets that view charges (the kernel enforces them), and returns both
//! machine-readable `(name, value)` pairs — everything in them is a
//! DP-released number, safe to put on the wire — and a rendered text
//! report.

use crate::experiments::{fig1, itemsets_exp};
use dpnet_analyses::example_s23::heavy_hosts_to_port;
use dpnet_analyses::flow_stats::{loss_rate_cdf, rtt_cdf};
use dpnet_analyses::packet_dist::{packet_length_cdf, port_cdf, CdfResult};
use dpnet_analyses::worm::{worm_fingerprints, WormConfig};
use dpnet_toolkit::cdf::cdf_partition;
use dpnet_toolkit::itemsets::{frequent_itemsets, ItemsetConfig};
use dpnet_trace::gen::hotspot::COMMON_PORTS;
use dpnet_trace::Packet;
use pinq::{Queryable, Result};
use std::fmt::Write as _;

/// The result of one registry analysis: released values plus a rendered
/// report. Every number is DP-released (it went through a mechanism), so
/// the whole struct is safe to serialize to an analyst.
#[derive(Debug, Clone)]
pub struct AnalysisOutput {
    /// Named released values, in report order.
    pub values: Vec<(String, f64)>,
    /// Human-readable report.
    pub text: String,
}

/// One named analysis: a parameterized runner over a protected view.
pub struct Analysis {
    /// Stable invocation name (`count`, `retx-cdf`, …).
    pub name: &'static str,
    /// One-line description shown in catalogues.
    pub summary: &'static str,
    /// What the ε parameter means for this analysis (per-aggregation,
    /// per-level, total, …) — the analyst's cost model.
    pub eps_semantics: &'static str,
    /// Suggested ε for a quick run.
    pub default_eps: f64,
    runner: fn(&Queryable<Packet>, f64) -> Result<AnalysisOutput>,
}

impl Analysis {
    /// Run the analysis at accuracy `eps` over `packets`, charging the
    /// view's budgets.
    pub fn run(&self, packets: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
        (self.runner)(packets, eps)
    }
}

impl std::fmt::Debug for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analysis")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

/// The catalogue, in presentation order.
pub const REGISTRY: &[Analysis] = &[
    Analysis {
        name: "count",
        summary: "noisy packet count",
        eps_semantics: "total",
        default_eps: 0.1,
        runner: run_count,
    },
    Analysis {
        name: "heavy-hosts",
        summary: "hosts sending >1 KB to port 80 (paper §2.3 example)",
        eps_semantics: "total",
        default_eps: 0.1,
        runner: run_heavy_hosts,
    },
    Analysis {
        name: "lengths",
        summary: "packet-length CDF, 50-byte buckets",
        eps_semantics: "total (parallel composition)",
        default_eps: 0.1,
        runner: run_lengths,
    },
    Analysis {
        name: "ports",
        summary: "destination-port CDF, 1024-port buckets",
        eps_semantics: "total (parallel composition)",
        default_eps: 0.1,
        runner: run_ports,
    },
    Analysis {
        name: "rtt",
        summary: "handshake RTT CDF, 20 ms buckets",
        eps_semantics: "total; the self-join doubles stability, so 2ε",
        default_eps: 0.1,
        runner: run_rtt,
    },
    Analysis {
        name: "loss",
        summary: "flow loss-rate CDF, 5% buckets",
        eps_semantics: "total; GroupBy doubles stability, so 2ε",
        default_eps: 0.1,
        runner: run_loss,
    },
    Analysis {
        name: "retx-cdf",
        summary: "retransmission-delay CDF via Partition (fig1-shaped)",
        eps_semantics: "total (parallel composition over 250 buckets)",
        default_eps: 0.1,
        runner: run_retx_cdf,
    },
    Analysis {
        name: "itemsets",
        summary: "frequent co-used port pairs (paper §4.3-shaped)",
        eps_semantics: "per candidate level",
        default_eps: 1.0,
        runner: run_itemsets,
    },
    Analysis {
        name: "worm",
        summary: "worm fingerprinting: high-dispersion payloads (§5.1.2-shaped)",
        eps_semantics: "per aggregation (8ε search + 2ε dispersion)",
        default_eps: 1.0,
        runner: run_worm,
    },
];

/// Look an analysis up by name.
pub fn find(name: &str) -> Option<&'static Analysis> {
    REGISTRY.iter().find(|a| a.name == name)
}

/// All registered analysis names, in presentation order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|a| a.name).collect()
}

/// The catalogue as a rendered listing (for `--help`-ish surfaces and the
/// server's `analyses` op).
pub fn render_catalogue() -> String {
    let mut out = String::new();
    for a in REGISTRY {
        let _ = writeln!(
            out,
            "  {:<12} {}  [eps: {}; default {}]",
            a.name, a.summary, a.eps_semantics, a.default_eps
        );
    }
    out
}

fn run_count(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let c = q.noisy_count(eps)?;
    Ok(AnalysisOutput {
        values: vec![("count".to_string(), c)],
        text: format!("noisy packet count: {c:.1}\n"),
    })
}

fn run_heavy_hosts(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let c = heavy_hosts_to_port(q, 80, 1024, eps)?;
    Ok(AnalysisOutput {
        values: vec![("heavy_hosts".to_string(), c)],
        text: format!("hosts sending >1 KB to port 80 ≈ {c:.1}\n"),
    })
}

/// Downsample a CDF into `(≤edge, value)` pairs every `step` buckets —
/// the report shape all CDF analyses share.
fn cdf_output(
    cdf: &CdfResult,
    step: usize,
    title: &str,
    label: impl Fn(u64) -> String,
) -> AnalysisOutput {
    let mut values = Vec::new();
    let mut text = format!("{title}\n");
    for (edge, v) in cdf.bucket_edges.iter().zip(&cdf.cdf).step_by(step) {
        values.push((format!("le_{edge}"), *v));
        let _ = writeln!(text, "  {:>8}: {v:>12.1}", label(*edge));
    }
    AnalysisOutput { values, text }
}

fn run_lengths(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let cdf = packet_length_cdf(q, 1500, 50, eps)?;
    Ok(cdf_output(
        &cdf,
        5,
        "packet-length CDF (50-byte buckets):",
        |e| format!("≤{e} B"),
    ))
}

fn run_ports(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let cdf = port_cdf(q, 1024, eps)?;
    Ok(cdf_output(
        &cdf,
        8,
        "destination-port CDF (1024-port buckets):",
        |e| format!("≤{e}"),
    ))
}

fn run_rtt(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let cdf = rtt_cdf(q, 600, 20, eps)?;
    Ok(cdf_output(
        &cdf,
        5,
        "handshake RTT CDF (20 ms buckets; join costs 2ε):",
        |e| format!("≤{e} ms"),
    ))
}

fn run_loss(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let cdf = loss_rate_cdf(q, 20, 10, eps)?;
    Ok(cdf_output(
        &cdf,
        2,
        "flow loss-rate CDF (5% buckets; GroupBy costs 2ε):",
        |e| format!("≤{}%", e * 5),
    ))
}

fn run_retx_cdf(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let delays = fig1::private_retx_delays(q);
    let cdf = cdf_partition(&delays, fig1::BUCKETS, eps)?;
    let mut values = Vec::new();
    let mut text = format!(
        "retransmission-delay CDF via Partition ({} 1 ms buckets):\n",
        fig1::BUCKETS
    );
    for (ms, v) in cdf.iter().enumerate().step_by(25) {
        values.push((format!("le_{ms}_ms"), *v));
        let _ = writeln!(text, "  ≤{ms:>3} ms: {v:>12.1}");
    }
    Ok(AnalysisOutput { values, text })
}

fn run_itemsets(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let records = itemsets_exp::private_host_port_sets(q);
    let universe: Vec<u32> = COMMON_PORTS.iter().map(|&p| p as u32).collect();
    let found = frequent_itemsets(
        &records,
        &ItemsetConfig {
            universe,
            max_size: 2,
            eps_per_level: eps,
            threshold: 8.0,
        },
    )?;
    let mut pairs: Vec<(Vec<u16>, f64)> = found
        .iter()
        .filter(|m| m.size == 2)
        .map(|m| {
            let mut ports: Vec<u16> = m.items.iter().map(|&i| i as u16).collect();
            ports.sort_unstable();
            (ports, m.noisy_count)
        })
        .collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite counts"));
    let mut values = Vec::new();
    let mut text = String::from("frequent co-used port pairs (noisy support):\n");
    for (ports, support) in pairs.iter().take(8) {
        let name = format!("({},{})", ports[0], ports[1]);
        let _ = writeln!(text, "  {name:>12}: {support:>10.1}");
        values.push((name, *support));
    }
    Ok(AnalysisOutput { values, text })
}

fn run_worm(q: &Queryable<Packet>, eps: f64) -> Result<AnalysisOutput> {
    let cfg = WormConfig {
        eps,
        presence_threshold: 50.0,
        ..WormConfig::default()
    };
    let found = worm_fingerprints(q, &cfg)?;
    Ok(AnalysisOutput {
        values: vec![("signatures".to_string(), found.len() as f64)],
        text: format!(
            "worm fingerprinting: {} high-dispersion payload signatures found\n",
            found.len()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinq::{Accountant, NoiseSource};

    fn protected() -> (Queryable<Packet>, Accountant) {
        let trace = crate::datasets::hotspot_tenth();
        let budget = Accountant::new(1e9);
        let noise = NoiseSource::seeded(0xcafe);
        let q = Queryable::new(trace.packets.clone(), &budget, &noise);
        (q, budget)
    }

    #[test]
    fn every_registered_analysis_runs_and_spends() {
        for a in REGISTRY {
            let (q, budget) = protected();
            let out = a
                .run(&q, 0.5)
                .unwrap_or_else(|e| panic!("{}: {e:?}", a.name));
            assert!(!out.values.is_empty(), "{} released nothing", a.name);
            assert!(!out.text.is_empty(), "{} rendered nothing", a.name);
            assert!(budget.spent() > 0.0, "{} spent nothing", a.name);
            for (k, v) in &out.values {
                assert!(v.is_finite(), "{}: {k} not finite", a.name);
            }
        }
    }

    #[test]
    fn registry_lookup_is_by_stable_name() {
        assert!(find("count").is_some());
        assert!(find("retx-cdf").is_some());
        assert!(find("no-such-analysis").is_none());
        assert_eq!(names().len(), REGISTRY.len());
        assert!(render_catalogue().contains("retx-cdf"));
    }

    #[test]
    fn count_is_deterministic_at_a_fixed_seed() {
        let (q1, _b1) = protected();
        let (q2, _b2) = protected();
        let a = find("count").unwrap();
        let x = a.run(&q1, 0.5).unwrap();
        let y = a.run(&q2, 0.5).unwrap();
        assert_eq!(x.values, y.values);
    }
}
