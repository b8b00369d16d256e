//! Tracing for the traced run.
//!
//! Two sources, both read from outside the program:
//!
//! * [`OwnSpans`]: spans the benchmark records around every layer call it
//!   makes (name, start, end, parent, op id), kept in memory until the run
//!   ends;
//! * [`ProgramSpans`]: the spans the program already emits (`exec/*`,
//!   `plan/materialize`, aggregations), read through a `dpnet_obs`
//!   recorder in aggregate mode and drained into a [`SpanFold`] while the
//!   run goes on, so memory stays bounded however many spans a request
//!   emits.

use crate::stats::SpanFold;
use dpnet_obs::span::{self, SpanMode, TraceRecorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One span the benchmark recorded around a layer call.
#[derive(Debug, Clone)]
pub struct OwnSpan {
    /// Layer call, e.g. `client/query`.
    pub name: &'static str,
    /// The op the call belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl OwnSpan {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The benchmark's own span list (one per thread; merged at the end).
#[derive(Debug)]
pub struct OwnSpans {
    epoch: Instant,
    spans: Vec<OwnSpan>,
}

impl OwnSpans {
    /// An empty list timed from `epoch`.
    pub fn new(epoch: Instant) -> OwnSpans {
        OwnSpans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its index for [`OwnSpans::close`] and as the
    /// parent of nested spans.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(OwnSpan {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Every span recorded, in open order, once each lies within its
    /// parent; an error names the first that does not.
    pub fn into_spans(self) -> Result<Vec<OwnSpan>, String> {
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent.map(|p| &self.spans[p]) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {i} ({} of op {}) is not within its parent {}",
                        s.name, s.op, p.name
                    ));
                }
            }
        }
        Ok(self.spans)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Durations in ms of the spans named `name`, ascending.
pub fn durations_ms(spans: &[OwnSpan], name: &str) -> Vec<f64> {
    crate::stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(OwnSpan::ms)
            .collect(),
    )
}

/// The program's own spans, drained into a fold while recording.
pub struct ProgramSpans {
    stopping: Arc<AtomicBool>,
    fold: Arc<Mutex<SpanFold>>,
    recorder: Arc<TraceRecorder>,
    drain: Option<JoinHandle<()>>,
}

impl ProgramSpans {
    /// Install an aggregate-mode recorder and start draining it.
    pub fn start() -> ProgramSpans {
        let recorder = Arc::new(TraceRecorder::with_mode(SpanMode::Aggregate));
        span::install_recorder(recorder.clone());
        let stopping = Arc::new(AtomicBool::new(false));
        let fold = Arc::new(Mutex::new(SpanFold::default()));
        let drain = {
            let (stopping, fold, recorder) = (stopping.clone(), fold.clone(), recorder.clone());
            std::thread::spawn(move || {
                while !stopping.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    drain_into(&recorder, &fold);
                }
            })
        };
        ProgramSpans {
            stopping,
            fold,
            recorder,
            drain: Some(drain),
        }
    }

    /// Uninstall the recorder, join the drain thread and return the fold.
    pub fn finish(mut self) -> SpanFold {
        assert!(self.stop(), "span drain thread panicked");
        drain_into(&self.recorder, &self.fold);
        let fold = self.fold.lock().expect("span fold poisoned");
        fold.clone()
    }

    /// Uninstall the recorder and join the drain thread; `false` when the
    /// thread panicked.
    fn stop(&mut self) -> bool {
        span::uninstall_recorder();
        self.stopping.store(true, Ordering::SeqCst);
        self.drain.take().map_or(true, |h| h.join().is_ok())
    }
}

impl Drop for ProgramSpans {
    fn drop(&mut self) {
        self.stop();
    }
}

fn drain_into(recorder: &TraceRecorder, fold: &Mutex<SpanFold>) {
    let spans = recorder.take();
    let aggs = recorder.take_aggregated();
    let mut fold = fold.lock().expect("span fold poisoned");
    for s in &spans {
        fold.add(s.name, 1, s.dur_ns, s.child_ns);
    }
    for a in &aggs {
        fold.add(a.name, a.count, a.total_ns, a.child_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_within_their_parents() {
        let mut own = OwnSpans::new(Instant::now());
        let root = own.open("op", 1, None);
        let child = own.open("child", 1, Some(root));
        own.close(child);
        own.close(root);
        let spans = own.into_spans().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);

        let mut own = OwnSpans::new(Instant::now());
        let root = own.open("op", 1, None);
        own.close(root);
        std::thread::sleep(Duration::from_millis(1));
        let late = own.open("late", 1, Some(root));
        own.close(late);
        assert!(own.into_spans().unwrap_err().contains("late"));
    }
}
