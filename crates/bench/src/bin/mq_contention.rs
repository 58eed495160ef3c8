//! **MQ-CONTENTION** — multithreaded throughput sweep of the concurrent
//! MultiQueue across priority-shard backends.
//!
//! For every `(backend ∈ {mutexheap, skiplist}) × stickiness × threads`
//! cell, `threads` workers hammer one shared [`ConcurrentMultiQueue`]
//! with the **SSSP-pop workload** ([`front_trial`]): alternating
//! `push_or_decrease` of a random item at a priority just above the
//! worker's advancing distance front, and a two-choice relaxed `pop` —
//! the operation mix Algorithm 3 of the paper issues while the distance
//! frontier advances, including the decrease-key hits a keyed MultiQueue
//! exists for. Every worker drives the queue through its [`MqSession`]:
//! the amortized epoch pin, the sticky peek cache and the spawn buffer,
//! so the sweep exercises exactly the runtime's session path. This is
//! the experiment behind the lock-free-priority-shards claim: the mutex
//! backend pays a lock per peek and convoys when a holder is preempted,
//! while the skiplist backend peeks racily and claims with one CAS, so a
//! preempted thread costs only its own progress.
//!
//! The interesting read-out is the **regime crossover**, so the default
//! sweep deliberately runs deep into oversubscription. At low thread
//! counts an uncontended ~30ns critical section never convoys and the
//! mutex-heap's smaller constants win; as threads exceed cores the mutex
//! baseline's throughput collapses (preempted holders, futex sleeps)
//! while the skiplist's stays nearly flat, and it takes the lead — on a
//! single-core host around 32–64 workers, earlier the more cores are
//! contending. CI validates that the crossover exists at some measured
//! thread count ≥ 8.
//!
//! The shared knobs and the trial itself are in
//! [`rsched_bench::contention`]. This sweep defaults to two shards per
//! thread (`RSCHED_SHARD_MULT`, the paper's Figure 1 configuration) and
//! a 4096-deep prefill, and adds `RSCHED_UNIVERSE` (item-id range) and
//! `RSCHED_STICKINESS`, a comma-separated *sweep list* (e.g. `1,4,16`):
//! every listed peek-cache-reuse budget runs as its own cell, so the
//! stickiness-vs-throughput trade on the SSSP workload lands in the
//! JSON. `RSCHED_SHARDS_PER_WORKER` is recorded for artifact uniformity;
//! keyed placement itself has no home shards, and `cache_hits` counts
//! the sticky peek-cache hits.
//!
//! ```text
//! cargo run -p rsched-bench --release --bin mq_contention
//! RSCHED_THREADS=8,16 RSCHED_SPAWN_BATCH=8 \
//!     cargo run -p rsched-bench --release --bin mq_contention
//! ```
//!
//! [`MqSession`]: rsched_queues::MqSession
//! [`front_trial`]: rsched_bench::contention::front_trial

use rsched_bench::contention::{front_trial, Cell, Sweep, Trial};
use rsched_bench::{env_usize, env_usize_list};
use rsched_queues::{ConcurrentMultiQueue, MutexHeapSub, QueueBuilder, SkipShard, SubPriority};

fn run<S: SubPriority<u64>>(b: QueueBuilder, cell: &Cell, universe: usize) -> Trial {
    let q: ConcurrentMultiQueue<u64, S> = b.universe(universe).multiqueue_on();
    front_trial(&q, cell, universe, 0x55_59)
}

fn main() {
    let mut sweep = Sweep::from_env(&[1, 2, 4, 8, 16, 32, 64], 2, 4_096);
    let universe = env_usize("RSCHED_UNIVERSE", 1 << 16).max(1);
    // The session clamps stickiness to >= 1, so sanitize before it
    // labels a cell: a raw 0 would name a cell other than what ran.
    let mut stickiness_sweep = env_usize_list("RSCHED_STICKINESS", &[1]);
    for s in &mut stickiness_sweep {
        *s = (*s).max(1);
    }
    stickiness_sweep.dedup();
    println!(
        "== MultiQueue contention sweep ({}, SSSP-pop workload, universe {universe}, \
         stickiness {stickiness_sweep:?}) ==",
        sweep.describe()
    );
    type Run = fn(QueueBuilder, &Cell, usize) -> Trial;
    let backends: [(&str, Run); 2] = [
        ("mutexheap", run::<MutexHeapSub<u64>>),
        ("skiplist", run::<SkipShard<u64>>),
    ];
    for threads in sweep.threads.clone() {
        let shards = sweep.shards(threads, 2, usize::MAX);
        let cells: Vec<(&str, Run, Cell)> = stickiness_sweep
            .iter()
            .flat_map(|&s| backends.map(|(name, run)| (name, run, sweep.cell(threads, shards, s))))
            .collect();
        let best = sweep.best_of(&cells, |(_, run, cell)| {
            (run(QueueBuilder::new(shards), cell, universe), ())
        });
        for ((backend, _, cell), (t, ())) in cells.iter().zip(best) {
            let extra = format!(
                "\"universe\":{universe},\"stickiness\":{},\"cache_hits\":{}",
                cell.stickiness, t.home_hits
            );
            sweep.emit("multiqueue", backend, cell, &t, &extra);
        }
    }
    sweep.finish();
}
