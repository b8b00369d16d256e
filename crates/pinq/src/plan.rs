//! Lazy fused query plans.
//!
//! Record-shaping operators (`filter`, `map`, `select_many`) do not run when
//! declared. Each declaration composes a *push-based* per-record stage onto
//! the plan inherited from its input: a stage is a closure that walks a
//! range of the source and pushes every surviving output record into an
//! `emit` callback. Adjacent stages therefore fuse into one pass with no
//! intermediate `Vec` — a three-deep `filter → map → filter` chain touches
//! the source exactly once, when something *forces* it.
//!
//! Forcing happens at barriers: every aggregation, the key-shuffling
//! operators (`group_by`, `join`, `partition`, …) and the explicit
//! [`crate::Queryable::collect_protected`]. The result is memoized in a
//! [`OnceLock`], so a plan materializes at most once no matter how many
//! aggregations read it.
//!
//! Privacy accounting is untouched by any of this: stability multipliers
//! and charge nodes are updated when an operator is *declared*, exactly as
//! in the eager engine, so a lazy pipeline provably spends the same ε as
//! its eager equivalent. Laziness only moves *when* the record buffers
//! exist — never what is released or charged.
//!
//! Determinism: stages are pure per-record functions, so a pool-forced
//! materialization (fixed-size chunks, concatenated in chunk order) is
//! bit-identical to the sequential one, for any worker count.

use crate::exec::ExecPool;
use crate::shard::Shards;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A fused pipeline stage: walk `range` of the plan's source and push each
/// output record into `emit`.
pub(crate) type Runner<T> = Arc<dyn Fn(Range<usize>, &mut dyn FnMut(T)) + Send + Sync>;

/// What a transform sees when it extends a pipeline: either a materialized
/// buffer to use as a fresh source, or the parent's unforced fused chain.
pub(crate) enum View<T> {
    /// A concrete buffer (an eager source, or a memoized plan output).
    Source(Shards<T>),
    /// An unforced chain: runner, source length, stages already fused.
    Chain(Runner<T>, usize, usize),
}

/// A lazy, memoized, fused transform chain over a shared source.
pub(crate) struct LazyPlan<T> {
    /// The fused pipeline from source indices to output records.
    run: Runner<T>,
    /// Length of the source buffer `run` ranges over.
    source_len: usize,
    /// Number of operator stages fused into `run`.
    fused: usize,
    /// Memoized materialization; filled at most once.
    cell: OnceLock<Shards<T>>,
}

impl<T> LazyPlan<T> {
    /// A plan over `source_len` source records with `fused` stages.
    pub(crate) fn new(
        source_len: usize,
        fused: usize,
        run: impl Fn(Range<usize>, &mut dyn FnMut(T)) + Send + Sync + 'static,
    ) -> Self {
        LazyPlan {
            run: Arc::new(run),
            source_len,
            fused,
            cell: OnceLock::new(),
        }
    }

    /// Number of operator stages fused into this plan.
    pub(crate) fn fused(&self) -> usize {
        self.fused
    }

    /// The view a downstream transform should compose against. Once the
    /// plan has materialized, downstream stages read the memoized buffer
    /// instead of re-running the whole chain from the source.
    pub(crate) fn view(&self) -> View<T> {
        match self.cell.get() {
            Some(done) => View::Source(done.clone()),
            None => View::Chain(self.run.clone(), self.source_len, self.fused),
        }
    }

    /// Force on the calling thread: one pass over the whole source. Sets
    /// `*fresh` when this call actually materialized (vs. read the memo).
    pub(crate) fn force_sequential(&self, fresh: &mut bool) -> Shards<T> {
        self.cell
            .get_or_init(|| {
                *fresh = true;
                let mut out = Vec::new();
                (self.run)(0..self.source_len, &mut |t| out.push(t));
                Shards::from_vec(out)
            })
            .clone()
    }
}

impl<T: Send + Sync> LazyPlan<T> {
    /// Force on a worker pool: the source splits into fixed-size chunks
    /// (positions depend only on length and chunk size) and each chunk runs
    /// the fused pass independently. Each chunk's output becomes one shard
    /// of the result, in chunk order — the flat sequence is bit-identical
    /// to [`LazyPlan::force_sequential`] for any worker count, and no
    /// concatenation pass runs after the workers join.
    pub(crate) fn force_pool(&self, pool: &ExecPool, fresh: &mut bool) -> Shards<T> {
        self.cell
            .get_or_init(|| {
                *fresh = true;
                let ranges = pool.chunks(self.source_len);
                let chunks: Vec<Vec<T>> = pool.run(&ranges, |_, r| {
                    let mut v = Vec::new();
                    (self.run)(r.clone(), &mut |t| v.push(t));
                    v
                });
                Shards::from_vecs(chunks)
            })
            .clone()
    }
}

impl<T> std::fmt::Debug for LazyPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Record contents (and counts) are protected; the pipeline shape
        // is analyst-chosen metadata.
        f.debug_struct("LazyPlan")
            .field("fused", &self.fused)
            .field("materialized", &self.cell.get().is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubler(n: usize) -> LazyPlan<usize> {
        let src: Arc<Vec<usize>> = Arc::new((0..n).collect());
        LazyPlan::new(n, 2, move |r, emit| {
            for &v in &src[r] {
                if v % 3 == 0 {
                    emit(v * 2);
                }
            }
        })
    }

    #[test]
    fn sequential_and_pool_forcing_agree() {
        let seq = {
            let mut fresh = false;
            doubler(10_000).force_sequential(&mut fresh)
        };
        let pooled = {
            let mut fresh = false;
            let pool = ExecPool::new(4).unwrap().with_chunk_size(512);
            doubler(10_000).force_pool(&pool, &mut fresh)
        };
        // Physical layouts differ (one shard vs one per chunk); the flat
        // sequences are bit-identical.
        assert!(pooled.shard_count() > seq.shard_count());
        assert_eq!(
            seq.iter().collect::<Vec<_>>(),
            pooled.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn forcing_memoizes() {
        let plan = doubler(100);
        let mut first = false;
        let a = plan.force_sequential(&mut first);
        assert!(first, "first force must materialize");
        let mut second = false;
        let b = plan.force_sequential(&mut second);
        assert!(!second, "second force must hit the memo");
        assert!(a.ptr_eq(&b));
    }

    #[test]
    fn view_switches_to_the_memo_after_forcing() {
        let plan = doubler(100);
        assert!(matches!(plan.view(), View::Chain(_, 100, 2)));
        let mut fresh = false;
        plan.force_sequential(&mut fresh);
        match plan.view() {
            View::Source(buf) => assert_eq!(buf.len(), 34),
            View::Chain(..) => panic!("forced plan should expose its memo"),
        }
    }

    #[test]
    fn debug_output_hides_data() {
        let plan = doubler(5);
        let s = format!("{plan:?}");
        assert!(!s.contains('5'), "debug leaked source length: {s}");
        assert!(s.contains("fused"));
    }
}
