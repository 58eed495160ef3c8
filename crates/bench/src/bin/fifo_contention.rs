//! **FIFO-CONTENTION** — multithreaded throughput and concurrent
//! rank-error sweep of the relaxed FIFO family across shard backends.
//!
//! For every `(queue ∈ {d-RA, d-CBO}) × (backend ∈ {mutex, ms,
//! segring}) × threads` cell, `threads` workers hammer one shared queue
//! with a 50/50 enqueue/dequeue mix while the
//! [`ConcurrentRankEstimator`] stamps every enqueue and logs every
//! dequeue. Each worker drives the queue through its **worker session**
//! ([`FifoSession`]): the amortized epoch pin, owned home shards drained
//! before stealing, and the bounded spawn buffer that publishes batches
//! — so the sweep exercises exactly the path the runtime's worker pool
//! uses. This is the experiment behind the lock-free-shards claim: under
//! oversubscription a preempted mutex holder stalls its whole shard,
//! while the lock-free backends only lose the preempted thread's own
//! progress ("lock-free algorithms are practically wait-free").
//!
//! The shared knobs and the trial itself are in
//! [`rsched_bench::contention`]; the queue starts empty by default
//! (`RSCHED_PREFILL` pins a depth), so the mix grows it organically
//! through both the contended-shard and near-empty regimes, and runs
//! one shard per thread (`RSCHED_SHARD_MULT`, default 1: d-CBO's
//! balanced choice keeps errors low without over-sharding).
//! `RSCHED_MIX=random` replaces the alternating pairs with a seeded
//! random 50/50 mix. `RSCHED_TRACE=1` feeds the flight recorder
//! (`rsched_queues::trace`) from the measured loop — inject/pop/steal/
//! complete events per worker lane — and exports Chrome-trace JSON to
//! `RSCHED_TRACE_OUT` at exit; every record carries a `trace` flag so
//! `bench_compare` never pairs traced and untraced cells.
//!
//! ```text
//! cargo run -p rsched-bench --release --bin fifo_contention
//! RSCHED_THREADS=8,16 RSCHED_SHARDS_PER_WORKER=2 RSCHED_SPAWN_BATCH=8 \
//!     cargo run -p rsched-bench --release --bin fifo_contention
//! ```
//!
//! [`ConcurrentRankEstimator`]: rsched_queues::instrument::ConcurrentRankEstimator
//! [`FifoSession`]: rsched_queues::FifoSession

use rsched_bench::contention::{fifo_trial, Cell, Sweep, Trial};
use rsched_queues::lockfree::{MsQueue, SegRingQueue};
use rsched_queues::{trace, FifoRankStats, MutexSub, QueueBuilder, SubFifo};

/// The element type: the runtime's `(item, payload)` pair, with the
/// estimator's arrival stamp as the payload.
type Stamped = (usize, u64);
type Run = fn(QueueBuilder, &Cell, bool) -> (Trial, FifoRankStats);

fn d_ra<S: SubFifo<Stamped>>(b: QueueBuilder, cell: &Cell, random: bool) -> (Trial, FifoRankStats) {
    fifo_trial(&b.d_ra_on::<Stamped, S>(), cell, random)
}

fn d_cbo<S: SubFifo<Stamped>>(
    b: QueueBuilder,
    cell: &Cell,
    random: bool,
) -> (Trial, FifoRankStats) {
    fifo_trial(&b.d_cbo_on::<Stamped, S>(), cell, random)
}

fn main() {
    let mut sweep = Sweep::from_env(&[1, 2, 4, 8, 16], 1, 0);
    let random_mix = std::env::var("RSCHED_MIX").as_deref() == Ok("random");
    let mix = if random_mix { "random-mix" } else { "pairs" };
    println!(
        "== relaxed-FIFO contention sweep ({}, {mix} workload) ==",
        sweep.describe()
    );
    let trace_on = trace::enabled() as u8;
    let runs: [(&str, &str, Run); 6] = [
        ("d-ra", "mutex", d_ra::<MutexSub<Stamped>>),
        ("d-cbo", "mutex", d_cbo::<MutexSub<Stamped>>),
        ("d-ra", "ms", d_ra::<MsQueue<Stamped>>),
        ("d-cbo", "ms", d_cbo::<MsQueue<Stamped>>),
        ("d-ra", "segring", d_ra::<SegRingQueue<Stamped>>),
        ("d-cbo", "segring", d_cbo::<SegRingQueue<Stamped>>),
    ];
    for threads in sweep.threads.clone() {
        let cell = sweep.cell(threads, sweep.shards(threads, 4, usize::MAX), 1);
        let b = QueueBuilder::new(cell.shards).seed(7);
        let best = sweep.best_of(&runs, |(_, _, run)| run(b, &cell, random_mix));
        for ((queue, backend, _), (t, stats)) in runs.iter().zip(best) {
            let extra = format!(
                "\"trace\":{trace_on},\"dequeues_measured\":{},\"mean_rank_error\":{:.4},\
                 \"p99_rank_error\":{},\"max_rank_error\":{}",
                stats.dequeues,
                stats.mean_error(),
                stats.error_quantile(0.99),
                stats.max_error,
            );
            sweep.emit(queue, backend, &cell, &t, &extra);
        }
    }
    // With RSCHED_TRACE=1 the rings hold the last events of every worker
    // lane; write the Chrome trace if a sink is configured.
    trace::export_if_configured();
    sweep.finish();
}
