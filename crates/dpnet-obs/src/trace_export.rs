//! Chrome trace-event export for completed spans.
//!
//! Writes the JSON object format understood by `chrome://tracing` and
//! Perfetto (<https://ui.perfetto.dev>): a `traceEvents` array of complete
//! (`"ph":"X"`) events, one per [`CompletedSpan`], with timestamps and
//! durations in *microseconds* (fractional — the format takes floats, so
//! nanosecond precision survives). Each span track becomes one `tid` lane
//! under a single `pid`, named through `"ph":"M"` `thread_name` metadata
//! events where [`crate::span::set_track_name`] registered a name.
//!
//! The exporter serializes exactly what the spans carry, so the crate's
//! privacy-safety rule flows through unchanged: in default builds a trace
//! file contains names, details, links and timings — never record counts.

use crate::json::{escape, number};
use crate::span::{AggregatedSpans, CompletedSpan};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;

/// The `tid` lane synthetic aggregate events render on. Real span tracks
/// are numbered from 1, so lane 0 is free.
const AGG_TRACK: u64 = 0;

fn us(ns: u64) -> String {
    number(ns as f64 / 1000.0)
}

/// One sample of a Chrome trace *counter* track (`"ph":"C"`). Perfetto
/// renders a counter's samples as a stepped area chart alongside the span
/// lanes — this is how EXPLAIN ANALYZE shows the privacy budget draining
/// (ε spent after each charge) in the same timeline as the worker tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter track name, e.g. `"eps spent (root)"`.
    pub name: String,
    /// Series name inside the counter track, e.g. `"eps"`.
    pub series: &'static str,
    /// Sample timestamp (ns since the process clock epoch).
    pub at_ns: u64,
    /// The counter's value at `at_ns`.
    pub value: f64,
}

/// Write `spans` as one Chrome trace-event JSON document. `track_names`
/// maps track ids to display names (see
/// [`TraceRecorder::track_names`](crate::span::TraceRecorder::track_names));
/// unnamed tracks display as `track-<id>`.
///
/// `counters` become counter tracks: one `"ph":"C"` event per
/// [`CounterSample`], sharing the spans' `pid` so Perfetto shows them in
/// the same timeline. `aggs` are the folded [`AggregatedSpans`] rows a
/// [`crate::span::SpanMode::Aggregate`] recorder produced: each becomes
/// one synthetic `"ph":"X"` event on a dedicated `tid 0` lane named
/// `"aggregated spans"`, laid end-to-end (the lane shows *total* time per
/// charge path, not a timeline) with the fold's `count` in its args. With
/// both empty, the document holds the spans alone.
pub fn write_chrome_trace<W: Write>(
    mut w: W,
    spans: &[CompletedSpan],
    track_names: &BTreeMap<u64, Arc<str>>,
    counters: &[CounterSample],
    aggs: &[AggregatedSpans],
) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let sep = |w: &mut W, first: &mut bool| -> io::Result<()> {
        if *first {
            *first = false;
            Ok(())
        } else {
            write!(w, ",")
        }
    };

    // One thread_name metadata event per track that appears in the data.
    let mut tracks: Vec<u64> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    if !aggs.is_empty() {
        sep(&mut w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{AGG_TRACK},\
             \"args\":{{\"name\":\"aggregated spans\"}}}}"
        )?;
    }
    for track in &tracks {
        let name: String = match track_names.get(track) {
            Some(n) => n.to_string(),
            None => format!("track-{track}"),
        };
        sep(&mut w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":{}}}}}",
            escape(&name)
        )?;
    }

    for s in spans {
        sep(&mut w, &mut first)?;
        write!(
            w,
            "{{\"name\":{},\"cat\":\"dpnet\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{}",
            escape(s.name),
            us(s.start_ns),
            us(s.dur_ns),
            s.track,
            s.id,
        )?;
        if let Some(parent) = s.parent {
            write!(w, ",\"parent\":{parent}")?;
        }
        write!(w, ",\"self_us\":{}", us(s.self_ns()))?;
        if let Some(detail) = &s.detail {
            write!(w, ",\"detail\":{}", escape(detail))?;
        }
        #[cfg(feature = "trusted-owner")]
        write!(w, ",\"records\":{}", s.records)?;
        write!(w, "}}}}")?;
    }
    // Aggregate rows: end-to-end on the dedicated lane, so a row's width
    // reads as total time spent under that (name, charge path).
    let mut cursor_ns = 0u64;
    for a in aggs {
        sep(&mut w, &mut first)?;
        write!(
            w,
            "{{\"name\":{},\"cat\":\"dpnet-agg\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{AGG_TRACK},\"args\":{{\"count\":{},\"self_us\":{}",
            escape(a.name),
            us(cursor_ns),
            us(a.total_ns),
            a.count,
            us(a.self_ns()),
        )?;
        if let Some(detail) = &a.detail {
            write!(w, ",\"detail\":{}", escape(detail))?;
        }
        write!(w, "}}}}")?;
        cursor_ns += a.total_ns;
    }
    for c in counters {
        sep(&mut w, &mut first)?;
        write!(
            w,
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{{}:{}}}}}",
            escape(&c.name),
            us(c.at_ns),
            escape(c.series),
            number(c.value)
        )?;
    }
    write!(w, "]}}")?;
    w.flush()
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace_json(
    spans: &[CompletedSpan],
    track_names: &BTreeMap<u64, Arc<str>>,
    counters: &[CounterSample],
    aggs: &[AggregatedSpans],
) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, spans, track_names, counters, aggs)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, track: u64) -> CompletedSpan {
        CompletedSpan {
            id,
            parent,
            name,
            detail: if id == 1 {
                Some(Arc::from("scale(x2)/root"))
            } else {
                None
            },
            track,
            start_ns: 1_500 * id,
            dur_ns: 2_250,
            child_ns: 0,
            fused_stages: None,
            #[cfg(feature = "trusted-owner")]
            records: 7,
        }
    }

    #[test]
    fn trace_has_complete_events_and_thread_names() {
        let spans = vec![span(1, None, "outer", 3), span(2, Some(1), "inner", 4)];
        let mut names = BTreeMap::new();
        names.insert(3u64, Arc::from("main"));
        let json = chrome_trace_json(&spans, &names, &[], &[]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Metadata events for both tracks; the unnamed one gets a fallback.
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("{\"name\":\"main\"}"));
        assert!(json.contains("{\"name\":\"track-4\"}"));
        // Complete events in microseconds: 1500 ns → 1.5 µs, 2250 → 2.25.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.5,"));
        assert!(json.contains("\"dur\":2.25,"));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"detail\":\"scale(x2)/root\""));
    }

    #[test]
    fn event_count_matches_spans_plus_tracks() {
        let spans = vec![span(1, None, "a", 1), span(2, None, "b", 1)];
        let json = chrome_trace_json(&spans, &BTreeMap::new(), &[], &[]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 1);
        // Events are comma-separated (valid array syntax).
        assert!(!json.contains("}{"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[], &BTreeMap::new(), &[], &[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn default_trace_omits_record_counts() {
        let json = chrome_trace_json(&[span(2, None, "k", 1)], &BTreeMap::new(), &[], &[]);
        if cfg!(feature = "trusted-owner") {
            assert!(json.contains("\"records\":7"));
        } else {
            assert!(!json.contains("records"), "data-dependent field in {json}");
        }
    }

    fn eps_counters() -> Vec<CounterSample> {
        vec![
            CounterSample {
                name: "eps spent (root)".to_string(),
                series: "eps",
                at_ns: 1_000,
                value: 0.1,
            },
            CounterSample {
                name: "eps spent (root)".to_string(),
                series: "eps",
                at_ns: 2_500,
                value: 0.35,
            },
        ]
    }

    #[test]
    fn counter_samples_become_ph_c_events() {
        let spans = vec![span(1, None, "outer", 3)];
        let json = chrome_trace_json(&spans, &BTreeMap::new(), &eps_counters(), &[]);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 2);
        assert!(json.contains("{\"name\":\"eps spent (root)\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\"args\":{\"eps\":0.1}}"));
        assert!(json.contains("\"ts\":2.5,"));
        assert!(json.contains("{\"eps\":0.35}"));
        // Counters without spans still produce a valid document.
        let only = chrome_trace_json(&[], &BTreeMap::new(), &eps_counters(), &[]);
        assert!(only.starts_with("{\"displayTimeUnit\""));
        assert!(only.ends_with("]}"));
        assert!(!only.contains("}{"));
    }

    #[test]
    fn aggregate_rows_become_synthetic_events_on_their_own_lane() {
        use crate::json::{parse_value, JsonValue};
        let aggs = vec![
            AggregatedSpans {
                name: "noisy_count",
                detail: Some(Arc::from("part[*]/scale(x1)/root")),
                count: 1200,
                total_ns: 3_000,
                child_ns: 500,
            },
            AggregatedSpans {
                name: "noisy_sum",
                detail: None,
                count: 4,
                total_ns: 1_000,
                child_ns: 0,
            },
        ];
        let spans = vec![span(1, None, "exec/run", 3)];
        let json = chrome_trace_json(&spans, &BTreeMap::new(), &[], &aggs);
        // Dedicated lane gets a name; rows lie end-to-end on tid 0.
        assert!(json.contains("{\"name\":\"aggregated spans\"}"));
        assert!(json.contains(
            "{\"name\":\"noisy_count\",\"cat\":\"dpnet-agg\",\"ph\":\"X\",\"ts\":0,\"dur\":3,\
             \"pid\":1,\"tid\":0,\"args\":{\"count\":1200,\"self_us\":2.5,\
             \"detail\":\"part[*]/scale(x1)/root\"}}"
        ));
        assert!(
            json.contains("{\"name\":\"noisy_sum\",\"cat\":\"dpnet-agg\",\"ph\":\"X\",\"ts\":3,")
        );
        let doc = parse_value(&json).expect("aggregated trace is parseable JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::items).unwrap();
        // 1 agg-lane meta + 1 span-track meta + 1 span + 2 aggregate rows.
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn emitted_trace_round_trips_through_the_vendored_parser() {
        use crate::json::{parse_value, JsonValue};
        let spans = vec![
            span(1, None, "outer", 3),
            span(2, Some(1), "agg \"quoted\"\nname", 4),
        ];
        let mut names = BTreeMap::new();
        names.insert(3u64, Arc::from("main"));
        let json = chrome_trace_json(&spans, &names, &eps_counters(), &[]);
        let doc = parse_value(&json).expect("emitted trace is parseable JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(JsonValue::as_str),
            Some("ms")
        );
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::items)
            .expect("traceEvents array");
        // 2 thread_name metas + 2 spans + 2 counter samples.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "X", "X", "C", "C"]);
        // The nasty span name survived escaping and unescaping.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("agg \"quoted\"\nname")
        }));
        // Counter values are reachable as nested numbers.
        let last = events.last().unwrap();
        assert_eq!(
            last.get("args")
                .and_then(|a| a.get("eps"))
                .and_then(JsonValue::as_f64),
            Some(0.35)
        );
    }
}
