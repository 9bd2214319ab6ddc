//! Batch evaluation of many join trees over one relation.
//!
//! Schema discovery, bound sweeps and serving scenarios all ask the same
//! question — "what does this tree cost on `R`?" — for *many* trees over
//! *one* relation.  The trees overlap heavily: candidate contractions share
//! most of their bags, path and star shapes share separators, and every
//! tree needs `H(Ω)` and the full-relation group counts.  [`BatchAnalyzer`]
//! co-owns one [`AnalysisContext`] (usually the one behind a
//! [`crate::Analyzer`] — see [`crate::Analyzer::batch`]) so all of that work
//! is paid for once, and fans the per-tree evaluation out over
//! `std::thread::scope` workers that share the context's striped,
//! single-flight caches (two workers racing on the same cold attribute set
//! never compute it twice — one computes, the other blocks on that entry).
//!
//! Results are exactly those of the corresponding one-shot calls
//! ([`crate::Analyzer::analyze`], `j_measure(&r, …)`, `loss_acyclic(&r, …)`):
//! the context serves bit-identical values, and the output `Vec` is in
//! input order regardless of which worker computed which tree.

use crate::analysis::{report_for, LossReport};
use ajd_jointree::{count_acyclic_join, loss_acyclic, JoinTree};
use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, CacheStats, GroupCounts, GroupIds, GroupKernel, GroupSource,
    Relation, Result, ThreadBudget,
};
use ajd_sync::Mutex;
use std::sync::Arc;

/// Shared-cache, multi-threaded evaluator of join trees over one relation.
///
/// ```
/// use ajd_core::Analyzer;
/// use ajd_jointree::JoinTree;
/// use ajd_random::generators::bijection_relation;
/// use ajd_relation::{AttrId, AttrSet};
///
/// let r = bijection_relation(16);
/// let bags = |ids: &[&[u32]]| -> Vec<AttrSet> {
///     ids.iter().map(|b| AttrSet::from_ids(b.iter().copied())).collect()
/// };
/// let trees = vec![
///     JoinTree::path(bags(&[&[0], &[1]])).unwrap(),
///     JoinTree::path(bags(&[&[0, 1]])).unwrap(),
/// ];
/// let analyzer = Analyzer::new(&r);
/// let reports = analyzer.batch().analyze_all(&trees);
/// assert_eq!(reports[0].as_ref().unwrap().spurious, 16 * 16 - 16);
/// assert_eq!(reports[1].as_ref().unwrap().spurious, 0);
/// ```
#[derive(Debug)]
pub struct BatchAnalyzer<S = Relation> {
    ctx: Arc<AnalysisContext<S>>,
    threads: usize,
}

impl<S: GroupKernel> BatchAnalyzer<S> {
    /// Creates a standalone batch analyzer over `src` — a flat
    /// [`Relation`] or an [`ajd_relation::ShardedRelation`] — with a fresh
    /// cache, using all available parallelism (the workspace's default
    /// [`ThreadBudget`]).  To share a cache with other analysis of the same
    /// relation, go through [`crate::Analyzer::batch`] instead.
    ///
    /// Like [`crate::Analyzer::new`], `src` is a handle: a `&Relation`
    /// borrow or an `Arc<ShardedRelation>` snapshot.
    pub fn new(src: S) -> Self {
        Self::from_shared(Arc::new(AnalysisContext::new(src)))
    }

    /// Wraps a co-owned context (the handle behind [`crate::Analyzer`]),
    /// inheriting the context's thread budget — an analyzer configured
    /// serial (e.g. per-trial inside a parallel experiment loop) produces
    /// serial batches, not full-fan-out ones.
    pub(crate) fn from_shared(ctx: Arc<AnalysisContext<S>>) -> Self {
        let threads = ctx.thread_budget().get();
        BatchAnalyzer { ctx, threads }
    }

    /// Sets the batch's [`ThreadBudget`] (1 forces fully sequential
    /// evaluation).
    ///
    /// This is the **one coherent knob**: `threads` caps the *total* the
    /// batch may use.  During a sweep the tree-level fan-out takes
    /// `w ≤ threads` workers and each worker computes cache misses under
    /// the per-worker kernel share `threads / w` (passed call-locally —
    /// the shared context is never mutated), so the two layers never
    /// multiply into `threads²` OS threads and a temporary batch never
    /// retunes the [`crate::Analyzer`] it borrowed its cache from.
    /// Results are bit-identical at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = ThreadBudget::new(threads).get();
        self
    }

    /// The tree-level fan-out budget this batch runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The grouping source being analysed.
    pub fn source(&self) -> &S {
        self.ctx.source()
    }

    /// The shared context; useful for mixing one-off generic measure calls
    /// into a batch, or for inspecting [`AnalysisContext::stats`].
    pub fn context(&self) -> &AnalysisContext<S> {
        &self.ctx
    }

    /// Snapshot of the shared cache's effectiveness.
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.stats()
    }

    /// Full [`LossReport`] of one tree through the shared cache, computing
    /// any misses under this batch's thread budget (a single tree has no
    /// fan-out to share with, so the kernel gets the whole budget).
    pub fn analyze(&self, tree: &JoinTree) -> Result<LossReport> {
        let src = BudgetedContext {
            ctx: &self.ctx,
            budget: ThreadBudget::new(self.threads),
        };
        report_for(&src, tree)
    }

    /// Full [`LossReport`]s of many trees, evaluated in parallel over the
    /// shared cache; results are in input order.
    pub fn analyze_all(&self, trees: &[JoinTree]) -> Vec<Result<LossReport>> {
        self.parallel_map(trees, |src, tree| report_for(src, tree))
    }

    /// J-measures (eq. 7) of many trees, in parallel, in input order.
    pub fn j_measures(&self, trees: &[JoinTree]) -> Vec<Result<f64>> {
        self.parallel_map(trees, |src, tree| ajd_info::jmeasure::j_measure(src, tree))
    }

    /// Exact losses `ρ(R,S)` (eq. 1) of many trees, in parallel, in input
    /// order.
    pub fn losses(&self, trees: &[JoinTree]) -> Vec<Result<f64>> {
        self.parallel_map(trees, |src, tree| loss_acyclic(src, tree))
    }

    /// Exact acyclic join sizes of many trees, in parallel, in input order.
    pub fn join_sizes(&self, trees: &[JoinTree]) -> Vec<Result<u128>> {
        self.parallel_map(trees, |src, tree| count_acyclic_join(src, tree))
    }

    /// Work-stealing fan-out over `std::thread::scope`: workers pull tree
    /// indices from a shared counter, so a few expensive trees do not stall
    /// the rest of the batch behind a static partition.
    ///
    /// Each worker evaluates through a [`BudgetedContext`] carrying the
    /// per-worker kernel share `self.threads / workers`, so the fan-out and
    /// the grouping kernel split one budget instead of multiplying — the
    /// share travels with the call, and the shared context's standing
    /// budget is never touched (concurrent sweeps cannot interfere).
    fn parallel_map<T, F>(&self, trees: &[JoinTree], f: F) -> Vec<Result<T>>
    where
        T: Send,
        F: for<'s> Fn(&'s BudgetedContext<'s, S>, &JoinTree) -> Result<T> + Sync,
    {
        let workers = self.threads.min(trees.len().max(1));
        let src = BudgetedContext {
            ctx: &self.ctx,
            budget: ThreadBudget::new((self.threads / workers).max(1)),
        };
        if workers <= 1 || trees.len() <= 1 {
            return trees.iter().map(|tree| f(&src, tree)).collect();
        }
        let results: Mutex<Vec<(usize, Result<T>)>> = Mutex::new(Vec::with_capacity(trees.len()));
        let next: Mutex<usize> = Mutex::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = {
                        let mut guard = next.lock();
                        if *guard >= trees.len() {
                            break;
                        }
                        let i = *guard;
                        *guard += 1;
                        i
                    };
                    let out = f(&src, &trees[i]);
                    results.lock().push((i, out));
                });
            }
        });
        let mut collected = results.into_inner();
        collected.sort_by_key(|(i, _)| *i);
        collected.into_iter().map(|(_, t)| t).collect()
    }
}

impl<'a> BatchAnalyzer<&'a Relation> {
    /// The flat relation being analysed (for batches over an
    /// [`ajd_relation::ShardedRelation`], use [`BatchAnalyzer::source`]).
    pub fn relation(&self) -> &'a Relation {
        self.ctx.relation()
    }
}

/// A [`GroupSource`] view of a shared [`AnalysisContext`] that computes
/// cache misses under an explicit per-sweep kernel [`ThreadBudget`] —
/// call-local state, so handing a budget share to one sweep's workers
/// cannot disturb the context's standing budget or any concurrent sweep.
/// Hits and memoized values are exactly the context's.
struct BudgetedContext<'b, S = Relation> {
    ctx: &'b AnalysisContext<S>,
    budget: ThreadBudget,
}

impl<S: GroupKernel> GroupSource for BudgetedContext<'_, S> {
    fn schema(&self) -> &[AttrId] {
        self.ctx.source().schema()
    }

    fn num_rows(&self) -> usize {
        self.ctx.source().num_rows()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        self.ctx.source().active_domain_size(attr)
    }

    fn group_counts(&self, attrs: &AttrSet) -> Result<Arc<GroupCounts>> {
        self.ctx.group_counts_budgeted(attrs, self.budget)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        self.ctx.group_ids_budgeted(attrs, self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use ajd_info::j_measure;
    use ajd_jointree::loss_acyclic;
    use ajd_random::RandomRelationModel;
    use ajd_relation::AttrSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn sweep_trees() -> Vec<JoinTree> {
        vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2, 3])], vec![]).unwrap(),
        ]
    }

    fn sample_relation(seed: u64) -> ajd_relation::Relation {
        let model =
            RandomRelationModel::new(ajd_random::ProductDomain::new(vec![5, 4, 4, 3]).unwrap());
        model.sample(&mut StdRng::seed_from_u64(seed), 60).unwrap()
    }

    #[test]
    fn batch_reports_match_single_tree_analysis() {
        let r = sample_relation(3);
        let trees = sweep_trees();
        let batch = BatchAnalyzer::new(&r);
        let reports = batch.analyze_all(&trees);
        assert_eq!(reports.len(), trees.len());
        for (tree, report) in trees.iter().zip(&reports) {
            let batched = report.as_ref().unwrap();
            let fresh = Analyzer::new(&r).analyze(tree).unwrap();
            assert_eq!(batched.join_size, fresh.join_size);
            assert_eq!(batched.rho.to_bits(), fresh.rho.to_bits());
            assert_eq!(batched.j_measure.to_bits(), fresh.j_measure.to_bits());
            assert_eq!(batched.kl_nats.to_bits(), fresh.kl_nats.to_bits());
        }
        let stats = batch.cache_stats();
        assert!(stats.hits > 0, "the sweep must share grouping work");
    }

    #[test]
    fn analyzer_batch_shares_the_analyzer_cache() {
        let r = sample_relation(5);
        let trees = sweep_trees();
        let analyzer = Analyzer::new(&r);
        let batch = analyzer.batch();
        let _ = batch.analyze_all(&trees);
        // The batch populated the analyzer's own cache: a follow-up scalar
        // query is answered without recomputation.
        let before = analyzer.cache_stats();
        let _ = analyzer.j_measure(&trees[0]).unwrap();
        let after = analyzer.cache_stats();
        assert!(after.hits > before.hits);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn j_measures_and_losses_match_uncached_calls() {
        let r = sample_relation(7);
        let trees = sweep_trees();
        let batch = BatchAnalyzer::new(&r);
        for (tree, j) in trees.iter().zip(batch.j_measures(&trees)) {
            assert_eq!(j.unwrap().to_bits(), j_measure(&r, tree).unwrap().to_bits());
        }
        for (tree, rho) in trees.iter().zip(batch.losses(&trees)) {
            assert_eq!(
                rho.unwrap().to_bits(),
                loss_acyclic(&r, tree).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let r = sample_relation(9);
        let trees = sweep_trees();
        let seq = BatchAnalyzer::new(&r).with_threads(1);
        let par = BatchAnalyzer::new(&r).with_threads(4);
        for (a, b) in seq.join_sizes(&trees).iter().zip(par.join_sizes(&trees)) {
            assert_eq!(*a.as_ref().unwrap(), b.unwrap());
        }
    }

    /// Regression: `losses()` and `analyze_all()` must agree on the loss of
    /// the same tree even for multiset relations — both measure against the
    /// distinct-tuple baseline (a negative `losses()` next to a positive
    /// `analyze()` rho was possible when the quick path divided by `N`).
    #[test]
    fn losses_agree_with_full_reports_on_multisets() {
        let r = ajd_relation::Relation::from_rows(
            vec![ajd_relation::AttrId(0), ajd_relation::AttrId(1)],
            &[
                &[0, 0][..],
                &[0, 0][..],
                &[0, 0][..],
                &[1, 0][..],
                &[1, 1][..],
            ],
        )
        .unwrap();
        assert!(!r.is_set());
        let trees = vec![
            JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap(),
            JoinTree::new(vec![bag(&[0, 1])], vec![]).unwrap(),
        ];
        let batch = BatchAnalyzer::new(&r);
        let quick = batch.losses(&trees);
        let full = batch.analyze_all(&trees);
        for (rho, report) in quick.iter().zip(&full) {
            let rho = rho.as_ref().unwrap();
            assert!(*rho >= 0.0, "loss must never be negative, got {rho}");
            assert_eq!(rho.to_bits(), report.as_ref().unwrap().rho.to_bits());
        }
    }

    /// Regression: `with_threads` used to write the shared context's kernel
    /// budget permanently, so a throwaway `analyzer.batch().with_threads(1)`
    /// silently serialised every later miss of the analyzer it borrowed its
    /// cache from.  The per-sweep kernel share now travels call-locally
    /// (`BudgetedContext`); the shared context is never written at all.
    #[test]
    fn temporary_batch_does_not_retune_the_shared_context() {
        let r = sample_relation(11);
        let analyzer = Analyzer::new(&r);
        let before = analyzer.context().thread_budget();
        let batch = analyzer.batch().with_threads(1);
        // Configuring the batch leaves the context untouched…
        assert_eq!(analyzer.context().thread_budget(), before);
        // …and so does running a sweep through it (the share is call-local).
        let _ = batch.j_measures(&sweep_trees());
        assert_eq!(analyzer.context().thread_budget(), before);
        drop(batch);
        assert_eq!(analyzer.context().thread_budget(), before);
    }

    /// A serial analyzer hands out serial batches: `from_shared` inherits
    /// the context's budget instead of resetting to the machine default,
    /// so per-trial analyzers inside an already-parallel loop never fan
    /// out behind the caller's back.
    #[test]
    fn batch_inherits_the_analyzers_thread_budget() {
        let r = sample_relation(13);
        let serial = Analyzer::with_thread_budget(&r, ajd_relation::ThreadBudget::serial());
        assert_eq!(serial.batch().threads(), 1);
        let wide = Analyzer::with_thread_budget(&r, ajd_relation::ThreadBudget::new(3));
        assert_eq!(wide.batch().threads(), 3);
        // An explicit with_threads still overrides the inherited value.
        assert_eq!(serial.batch().with_threads(2).threads(), 2);
    }

    #[test]
    fn per_tree_errors_do_not_poison_the_batch() {
        let r = sample_relation(1);
        let good = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        // Mentions attribute 9, which the relation does not have.
        let bad = JoinTree::path(vec![bag(&[0, 9]), bag(&[9, 2])]).unwrap();
        let batch = BatchAnalyzer::new(&r);
        let out = batch.analyze_all(&[good, bad]);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn empty_tree_list_is_fine() {
        let r = sample_relation(2);
        assert!(BatchAnalyzer::new(&r).analyze_all(&[]).is_empty());
    }
}
