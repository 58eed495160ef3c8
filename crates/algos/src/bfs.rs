//! Concurrent unweighted BFS over a relaxed FIFO frontier.
//!
//! The paper's schedulers relax *priority* order; the d-CBO family
//! relaxes *FIFO* order. BFS is the canonical FIFO-scheduled incremental
//! algorithm: the frontier is a queue, and expanding it slightly out of
//! order only costs wasted work, never correctness — a vertex expanded
//! at a provisional (too large) hop count is re-expanded when its true
//! distance arrives, and the monotone `fetch_min` on the distance array
//! guarantees convergence to the exact BFS layering. The same
//! stale-task argument as concurrent SSSP applies with `w ≡ 1`; the rank
//! error of the relaxed FIFO plays the role of the priority rank bound.
//!
//! Driven by the shared `rsched-runtime` worker pool with a
//! [`DCboQueue`] frontier. The workers pop it unaffine (the runtime
//! default, `shards_per_worker` 0): every pop is the choice-of-two, so
//! the frontier keeps its rank-error bound and the wasted work stays
//! near sequential. Home-shard affinity (`RSCHED_SHARDS_PER_WORKER` ≥ 1)
//! is opt-in; it lets a worker expand its newest, deepest spawns before
//! older entries, which on a road grid multiplies the pops per vertex.

use crate::sssp::ParSsspConfig;
use rsched_graph::{CsrGraph, Weight, INF};
use rsched_queues::{DCboQueue, QueueBuilder};
use rsched_runtime::{run, RuntimeConfig, TaskOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Result of a concurrent relaxed-FIFO BFS run.
#[derive(Clone, Debug)]
pub struct ParBfsStats {
    /// `dist[v]` = exact hop count from the source, or [`INF`].
    pub dist: Vec<Weight>,
    /// Frontier pops that expanded a vertex.
    pub executed: u64,
    /// Total frontier pops, including stale ones.
    pub pops: u64,
    /// Stale pops (outdated hop count at pop time).
    pub stale: u64,
    /// Pops served by a worker's own home shard of the d-CBO frontier;
    /// 0 unless affinity is opted in (`RSCHED_SHARDS_PER_WORKER` ≥ 1).
    pub home_hits: u64,
    /// Pops stolen from a foreign shard of the d-CBO frontier; 0 unless
    /// affinity is opted in (unaffine pops are not steals).
    pub steals: u64,
    /// Worker wall-clock time.
    pub wall: Duration,
}

impl ParBfsStats {
    /// `executed / reachable` — wasted-expansion overhead (1.0 = every
    /// vertex expanded exactly once, as in exact BFS).
    pub fn overhead(&self) -> f64 {
        let reachable = self.dist.iter().filter(|&&d| d != INF).count();
        if reachable == 0 {
            return 1.0;
        }
        self.executed as f64 / reachable as f64
    }
}

/// Concurrent BFS: hop distances from `src` via a relaxed FIFO frontier
/// (`shards = threads × queue_multiplier`).
///
/// The returned distances are **exactly** the sequential
/// [`bfs`](rsched_graph::bfs) layering, whatever the relaxation — only
/// the executed/pops overhead varies.
///
/// # Examples
///
/// ```
/// use rsched_algos::{parallel_bfs, ParSsspConfig};
/// use rsched_graph::{bfs, gen::random_gnm};
///
/// let g = random_gnm(500, 2500, 1..=10, 3);
/// let stats = parallel_bfs(&g, 0, ParSsspConfig { threads: 4, queue_multiplier: 2, seed: 5 });
/// assert_eq!(stats.dist, bfs(&g, 0));
/// assert!(stats.overhead() >= 1.0);
/// ```
pub fn parallel_bfs(g: &CsrGraph, src: usize, cfg: ParSsspConfig) -> ParBfsStats {
    assert!(cfg.threads >= 1 && cfg.queue_multiplier >= 1);
    let n = g.num_vertices();
    let frontier: DCboQueue<(usize, Weight)> =
        QueueBuilder::new(cfg.threads * cfg.queue_multiplier)
            .seed(cfg.seed)
            .d_cbo();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    dist[src].store(0, Ordering::Release);
    let stats = run(
        &frontier,
        RuntimeConfig {
            threads: cfg.threads,
            seed: cfg.seed,
            ..RuntimeConfig::default()
        },
        [(src, 0)],
        |w, v, d| {
            if d > dist[v].load(Ordering::Acquire) {
                return TaskOutcome::Stale;
            }
            let nd = d + 1;
            for (u, _) in g.neighbors(v) {
                if dist[u].fetch_min(nd, Ordering::AcqRel) > nd {
                    w.spawn(u, nd);
                }
            }
            TaskOutcome::Executed
        },
    );
    ParBfsStats {
        dist: dist.into_iter().map(|d| d.into_inner()).collect(),
        executed: stats.total.executed,
        pops: stats.total.pops,
        stale: stats.total.stale,
        home_hits: stats.total.home_hits,
        steals: stats.total.steals,
        wall: stats.wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::gen::{grid_road, path_graph, power_law, random_gnm, star_graph};
    use rsched_graph::{bfs, GraphBuilder};

    #[test]
    fn matches_sequential_bfs_on_graph_families() {
        let graphs = [
            random_gnm(1000, 5000, 1..=100, 4),
            grid_road(32, 32, 5),
            power_law(1000, 5, 1..=100, 6),
            path_graph(300, 1),
            star_graph(300, 2),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let want = bfs(g, 0);
            for threads in [1usize, 4] {
                let stats = parallel_bfs(
                    g,
                    0,
                    ParSsspConfig {
                        threads,
                        queue_multiplier: 2,
                        seed: 42,
                    },
                );
                assert_eq!(stats.dist, want, "family {i}, threads {threads}");
                let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
                assert!(stats.executed >= reachable, "family {i}");
                assert_eq!(
                    stats.pops,
                    stats.executed + stats.stale,
                    "family {i}: BFS tasks never block"
                );
            }
        }
    }

    #[test]
    fn disconnected_components_stay_unreached() {
        let mut b = GraphBuilder::new(8);
        b.add_undirected_edge(0, 1, 1);
        b.add_undirected_edge(1, 2, 1);
        b.add_undirected_edge(5, 6, 1);
        let g = b.build();
        let stats = parallel_bfs(&g, 0, ParSsspConfig::default());
        assert_eq!(stats.dist[..3], [0, 1, 2]);
        assert_eq!(stats.dist[5], INF);
        assert_eq!(stats.executed, 3);
    }

    #[test]
    fn seed_sweep_is_always_exact() {
        let g = random_gnm(600, 3600, 1..=10, 9);
        let want = bfs(&g, 0);
        for seed in 0..5 {
            let stats = parallel_bfs(
                &g,
                0,
                ParSsspConfig {
                    threads: 8,
                    queue_multiplier: 2,
                    seed,
                },
            );
            assert_eq!(stats.dist, want, "seed {seed}");
        }
    }

    /// The default runtime config pops the frontier unaffine. Draining
    /// home shards first lets each worker run its newest spawns ahead of
    /// older entries on the unowned shards; on this grid that costs
    /// several pops per reachable vertex instead of ~1.
    #[test]
    fn default_config_keeps_road_grid_work_near_sequential() {
        if std::env::var_os("RSCHED_SHARDS_PER_WORKER").is_some() {
            return;
        }
        let g = grid_road(128, 128, 3);
        let want = bfs(&g, 0);
        let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
        for seed in 0..=4 {
            let stats = parallel_bfs(
                &g,
                0,
                ParSsspConfig {
                    threads: 2,
                    queue_multiplier: 2,
                    seed,
                },
            );
            assert_eq!(stats.dist, want, "seed {seed}");
            assert!(
                stats.pops <= 2 * reachable,
                "seed {seed}: {} pops for {reachable} reachable vertices",
                stats.pops
            );
        }
    }
}
