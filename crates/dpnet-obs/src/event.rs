//! Structured audit events.
//!
//! Events carry what an owner audits, not how long things took (spans in
//! [`crate::span`] measure time): an aggregation request and how it ended,
//! a spend the accountant recorded, an analyst session opening or closing,
//! and a toolkit phase with the ε it spent. Every field obeys the
//! crate-level privacy-safety rule: privacy metadata, timestamps, and
//! DP-released values only. Data-dependent fields (true record counts)
//! compile in only under the `trusted-owner` feature.

use crate::json::JsonObj;
use std::sync::Arc;

/// How an aggregation request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Budget charged, value released.
    Ok,
    /// The accountant refused the charge (budget exhausted).
    Denied,
    /// The request was invalid (e.g. non-positive ε) and nothing charged.
    Invalid,
}

impl Outcome {
    /// Stable string form used in serialized events.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Denied => "denied",
            Outcome::Invalid => "invalid",
        }
    }
}

/// An aggregation ran against the accountant.
#[derive(Debug, Clone)]
pub struct AggregateEvent {
    /// Operator name, e.g. `"noisy_count"`, `"noisy_median"`.
    pub operator: &'static str,
    /// Noise mechanism, e.g. `"laplace"`, `"exponential"`.
    pub mechanism: &'static str,
    /// Analysis label of the queryable, if one was set.
    pub label: Option<Arc<str>>,
    /// Stability multiplier in effect.
    pub stability: f64,
    /// ε the caller asked for.
    pub eps_requested: f64,
    /// ε actually charged (`stability × eps_requested` when `Ok`, else 0).
    pub eps_charged: f64,
    /// How the request ended.
    pub outcome: Outcome,
    /// The DP-released value, when the aggregation releases a single
    /// scalar. Already noised — safe to log by definition.
    pub released: Option<f64>,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
    /// True input record count. Data-dependent: owner-side builds only.
    #[cfg(feature = "trusted-owner")]
    pub input_records: u64,
}

/// The accountant recorded a spend — the ledger's unit of provenance.
#[derive(Debug, Clone)]
pub struct ChargeEvent {
    /// Operator that initiated the charge.
    pub operator: Arc<str>,
    /// Charge path through the composition tree, e.g.
    /// `"scale(x2)/part[3]/root"`.
    pub path: Arc<str>,
    /// Analysis label, if one was set.
    pub label: Option<Arc<str>>,
    /// ε recorded against the accountant by this spend (for partitions,
    /// the max-of-parts *increase*).
    pub epsilon: f64,
    /// Cumulative ε spent after this charge.
    pub spent_after: f64,
    /// Ledger sequence number.
    pub sequence: u64,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
}

/// A named phase of a higher-level analysis finished.
#[derive(Debug, Clone)]
pub struct PhaseEvent {
    /// Phase name, e.g. `"cdf"`, `"kmeans/iter"`.
    pub name: Arc<str>,
    /// ε the phase spends by construction of its algorithm (e.g.
    /// iterations × ε-per-iteration at stability 1).
    pub eps_spent: f64,
    /// Duration of the phase's span, ns.
    pub wall_ns: u64,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
}

/// An analyst session opened or closed.
///
/// Emitted by the policy/serving layer, not the engine: sessions are the
/// unit of mediation (paper §7) and the owner audits their lifecycle the
/// same way they audit spends. Carries only the session's identity and its
/// budget reading — both owner-side policy metadata, never record data.
#[derive(Debug, Clone)]
pub struct SessionEvent {
    /// Process-unique session id assigned by the session manager.
    pub session_id: u64,
    /// Analyst the session belongs to.
    pub analyst: Arc<str>,
    /// `"opened"` or `"closed"`.
    pub action: &'static str,
    /// ε the session had spent when the event fired (0 at open).
    pub session_spent: f64,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
}

/// Any engine event.
#[derive(Debug, Clone)]
pub enum Event {
    /// An aggregation ran.
    Aggregate(AggregateEvent),
    /// The accountant recorded a spend.
    Charge(ChargeEvent),
    /// An analysis phase finished.
    Phase(PhaseEvent),
    /// An analyst session opened or closed.
    Session(SessionEvent),
}

impl Event {
    /// The event's kind as a stable string (`"aggregate"`, `"charge"`,
    /// `"phase"`, `"session"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Aggregate(_) => "aggregate",
            Event::Charge(_) => "charge",
            Event::Phase(_) => "phase",
            Event::Session(_) => "session",
        }
    }

    /// Serialize as one flat JSON object (one JSONL line, no trailing
    /// newline). This is the canonical wire form; the privacy test in
    /// `pinq` inspects exactly this output.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("type", self.kind());
        match self {
            Event::Aggregate(e) => {
                o.field_str("op", e.operator)
                    .field_str("mechanism", e.mechanism)
                    .field_opt_str("label", e.label.as_deref())
                    .field_f64("stability", e.stability)
                    .field_f64("eps_requested", e.eps_requested)
                    .field_f64("eps_charged", e.eps_charged)
                    .field_str("outcome", e.outcome.as_str())
                    .field_opt_f64("released", e.released)
                    .field_u64("at_ns", e.at_ns);
                #[cfg(feature = "trusted-owner")]
                o.field_u64("input_records", e.input_records);
            }
            Event::Charge(e) => {
                o.field_str("op", &e.operator)
                    .field_str("path", &e.path)
                    .field_opt_str("label", e.label.as_deref())
                    .field_f64("eps", e.epsilon)
                    .field_f64("spent_after", e.spent_after)
                    .field_u64("seq", e.sequence)
                    .field_u64("at_ns", e.at_ns);
            }
            Event::Phase(e) => {
                o.field_str("name", &e.name)
                    .field_f64("eps_spent", e.eps_spent)
                    .field_u64("wall_ns", e.wall_ns)
                    .field_u64("at_ns", e.at_ns);
            }
            Event::Session(e) => {
                o.field_u64("session", e.session_id)
                    .field_str("analyst", &e.analyst)
                    .field_str("action", e.action)
                    .field_f64("session_spent", e.session_spent)
                    .field_u64("at_ns", e.at_ns);
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_flat_object;

    fn sample_aggregate() -> AggregateEvent {
        AggregateEvent {
            operator: "noisy_count",
            mechanism: "laplace",
            label: Some(Arc::from("ports")),
            stability: 2.0,
            eps_requested: 0.1,
            eps_charged: 0.2,
            outcome: Outcome::Ok,
            released: Some(41.7),
            at_ns: 99,
            #[cfg(feature = "trusted-owner")]
            input_records: 1000,
        }
    }

    #[test]
    fn aggregate_serializes_flat() {
        let j = Event::Aggregate(sample_aggregate()).to_json();
        let m = parse_flat_object(&j).expect("valid flat JSON");
        assert_eq!(m["type"].as_str(), Some("aggregate"));
        assert_eq!(m["op"].as_str(), Some("noisy_count"));
        assert_eq!(m["eps_charged"].as_f64(), Some(0.2));
        assert_eq!(m["outcome"].as_str(), Some("ok"));
        assert_eq!(m["released"].as_f64(), Some(41.7));
    }

    #[test]
    fn charge_serializes_flat() {
        let e = Event::Charge(ChargeEvent {
            operator: Arc::from("noisy_sum"),
            path: Arc::from("scale(x3)/root"),
            label: None,
            epsilon: 0.3,
            spent_after: 0.5,
            sequence: 4,
            at_ns: 11,
        });
        let m = parse_flat_object(&e.to_json()).expect("valid flat JSON");
        assert_eq!(m["type"].as_str(), Some("charge"));
        assert_eq!(m["path"].as_str(), Some("scale(x3)/root"));
        assert_eq!(m["eps"].as_f64(), Some(0.3));
        assert!(!m.contains_key("label"));
    }

    #[test]
    fn no_data_dependent_fields_without_trusted_owner() {
        // The privacy-safety rule, checked at the source: in the default
        // configuration, no serialized event mentions record counts.
        let j = Event::Aggregate(sample_aggregate()).to_json();
        if !cfg!(feature = "trusted-owner") {
            assert!(!j.contains("records"), "data-dependent field in {j}");
        }
    }
}
