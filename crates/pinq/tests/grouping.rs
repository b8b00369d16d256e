//! Property tests of the grouping barrier behind `group_by` and `join`.
//!
//! Both operators must equal a naive reference over random keyed inputs:
//! groups in first-seen key order, members in input order, every matched
//! right-hand group intact, and each group's `Vec` allocated at exactly
//! its length. Inputs arrive as many small shards, forced sequentially or
//! on a pool of 2 or 4 workers; none of that may change the output.

use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A record: its input position and its grouping key.
type Rec = (u32, u16);

fn contexts() -> Vec<ExecCtx> {
    let pool = |n| ExecCtx::pool(&ExecPool::new(n).unwrap());
    vec![ExecCtx::Sequential, pool(2), pool(4)]
}

fn records(keys: &[u16]) -> Vec<Rec> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (i as u32, k))
        .collect()
}

/// `recs` behind a pending pass-through filter over shards of 7 records,
/// so the grouping barrier forces a plan under `ctx` first.
fn protected(recs: &[Rec], acct: &Accountant, ctx: &ExecCtx) -> Queryable<Rec> {
    let shards = recs.chunks(7).map(<[Rec]>::to_vec).collect();
    Queryable::from_shards(shards, acct, &NoiseSource::seeded(1))
        .with_ctx(ctx.clone())
        .filter(|_| true)
}

/// What `look` sees of every record of `q`, in record order: a sequential
/// pass-through filter forced by a count.
fn tap<R, O>(q: &Queryable<R>, look: impl Fn(&R) -> O + Send + Sync + 'static) -> Vec<O>
where
    R: Clone + Send + Sync + 'static,
    O: Send + 'static,
{
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    q.clone()
        .with_ctx(ExecCtx::Sequential)
        .filter(move |r| {
            sink.lock().unwrap().push(look(r));
            true
        })
        .noisy_count(1.0)
        .unwrap();
    let out = std::mem::take(&mut *seen.lock().unwrap());
    out
}

fn naive_groups(recs: &[Rec]) -> Vec<(u16, Vec<Rec>)> {
    let mut out: Vec<(u16, Vec<Rec>)> = Vec::new();
    for &r in recs {
        match out.iter_mut().find(|(k, _)| *k == r.1) {
            Some((_, items)) => items.push(r),
            None => out.push((r.1, vec![r])),
        }
    }
    out
}

fn naive_join(left: &[Rec], right: &[Rec]) -> Vec<(u16, Vec<Rec>, Vec<Rec>)> {
    naive_groups(left)
        .into_iter()
        .filter_map(|(k, ls)| {
            let rs: Vec<Rec> = right.iter().filter(|r| r.1 == k).copied().collect();
            (!rs.is_empty()).then_some((k, ls, rs))
        })
        .collect()
}

/// `group_by` under every context equals the reference, calls the key
/// function once per record, and sizes every group exactly.
fn check_group_by(recs: &[Rec]) -> Result<(), String> {
    for ctx in contexts() {
        let acct = Accountant::new(1e9);
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = calls.clone();
        let grouped = protected(recs, &acct, &ctx).group_by(move |r| {
            counted.fetch_add(1, Ordering::Relaxed);
            r.1
        });
        prop_assert_eq!(calls.load(Ordering::Relaxed), recs.len(), "{}", ctx.mode());
        let seen = tap(&grouped, |g| {
            let exact = g.items.capacity() == g.items.len();
            ((g.key, g.items.clone()), exact)
        });
        let (groups, exact): (Vec<_>, Vec<bool>) = seen.into_iter().unzip();
        prop_assert_eq!(groups, naive_groups(recs), "{}", ctx.mode());
        prop_assert!(
            exact.iter().all(|&e| e),
            "{}: a group has slack",
            ctx.mode()
        );
    }
    Ok(())
}

/// `join` under every context equals the reference and sizes both sides
/// of every output record exactly.
fn check_join(left: &[Rec], right: &[Rec]) -> Result<(), String> {
    for ctx in contexts() {
        let acct = Accountant::new(1e9);
        let joined =
            protected(left, &acct, &ctx).join(&protected(right, &acct, &ctx), |l| l.1, |r| r.1);
        let seen = tap(&joined, |j| {
            let exact = j.left.capacity() == j.left.len() && j.right.capacity() == j.right.len();
            ((j.key, j.left.clone(), j.right.clone()), exact)
        });
        let (groups, exact): (Vec<_>, Vec<bool>) = seen.into_iter().unzip();
        prop_assert_eq!(groups, naive_join(left, right), "{}", ctx.mode());
        prop_assert!(
            exact.iter().all(|&e| e),
            "{}: a group has slack",
            ctx.mode()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn group_by_matches_the_naive_reference(
        raw in prop::collection::vec(any::<u16>(), 0..160),
        modulus in 1u16..24,
    ) {
        let keys: Vec<u16> = raw.iter().map(|k| k % modulus).collect();
        check_group_by(&records(&keys))?;
    }

    #[test]
    fn join_matches_the_naive_reference(
        left in prop::collection::vec(any::<u16>(), 0..120),
        right in prop::collection::vec(any::<u16>(), 0..120),
        left_mod in 1u16..16,
        right_mod in 1u16..16,
    ) {
        let lk: Vec<u16> = left.iter().map(|k| k % left_mod).collect();
        let rk: Vec<u16> = right.iter().map(|k| k % right_mod).collect();
        check_join(&records(&lk), &records(&rk))?;
    }
}

#[test]
fn all_singleton_groups() {
    let keys: Vec<u16> = (0..300).rev().collect();
    check_group_by(&records(&keys)).unwrap();
    check_join(&records(&keys), &records(&keys[100..])).unwrap();
}

#[test]
fn one_group_holds_every_record() {
    let keys = vec![5u16; 300];
    check_group_by(&records(&keys)).unwrap();
    check_join(&records(&keys), &records(&keys[..40])).unwrap();
}
