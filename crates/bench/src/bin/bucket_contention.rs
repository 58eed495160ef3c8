//! **BUCKET-CONTENTION** — multithreaded throughput sweep of the
//! bucketed relaxed-FIFO hybrid across priority-shard backends.
//!
//! For every `(backend ∈ {mutexheap, skiplist}) × threads` cell,
//! `threads` workers hammer one shared [`BucketFifoQueue`] with the
//! **Δ-stepping workload** ([`front_trial`]): alternating
//! `push_or_decrease` of a random item at a full-distance priority just
//! above the worker's advancing front, and an oldest-bucket-first
//! relaxed pop — the operation mix `relaxed_delta_stepping` issues while
//! its distance frontier sweeps forward through the Δ-wide buckets.
//! Every worker drives the queue through its [`BucketSession`]
//! (amortized epoch pin, home shard columns, per-bucket-grouped spawn
//! batching), so the sweep exercises exactly the runtime's session path
//! — this is the workload that runs FIFO relaxation (across buckets) and
//! priority relaxation (inside a bucket) at the same time.
//!
//! The shared knobs and the trial itself are in
//! [`rsched_bench::contention`]. This sweep defaults to two priority
//! shards per thread in every bucket (`RSCHED_SHARD_MULT`) and a
//! 4096-deep prefill, and adds `RSCHED_UNIVERSE` (item-id range) and
//! `RSCHED_DELTA`, the bucket width (default 1024 against priority steps
//! of 0..1000 — a couple of live buckets at any moment, with the front
//! sweeping through hundreds over a run).
//!
//! ```text
//! cargo run -p rsched-bench --release --bin bucket_contention
//! RSCHED_THREADS=8,16 RSCHED_DELTA=64 RSCHED_SPAWN_BATCH=8 \
//!     cargo run -p rsched-bench --release --bin bucket_contention
//! ```
//!
//! [`BucketSession`]: rsched_queues::BucketSession
//! [`front_trial`]: rsched_bench::contention::front_trial

use rsched_bench::contention::{front_trial, Cell, Sweep, Trial};
use rsched_bench::env_usize;
use rsched_queues::{BucketFifoQueue, MutexHeapSub, QueueBuilder, SkipShard, SubPriority};

/// One trial, plus the buckets the front touched (buckets are never
/// freed, so the count after the drain is the count the workers left).
fn run<S: SubPriority<u64>>(b: QueueBuilder, cell: &Cell, universe: usize) -> (Trial, usize) {
    let q: BucketFifoQueue<S> = b.bucket_fifo_on();
    let t = front_trial(&q, cell, universe, 0xB0C4);
    (t, q.buckets_allocated())
}

fn main() {
    let mut sweep = Sweep::from_env(&[1, 2, 4, 8, 16, 32, 64], 2, 4_096);
    let universe = env_usize("RSCHED_UNIVERSE", 1 << 16).max(1);
    let delta = env_usize("RSCHED_DELTA", 1024).max(1) as u64;
    println!(
        "== bucket-hybrid contention sweep ({}, Δ-stepping workload, Δ {delta}, \
         universe {universe}) ==",
        sweep.describe()
    );
    type Run = fn(QueueBuilder, &Cell, usize) -> (Trial, usize);
    let backends: [(&str, Run); 2] = [
        ("mutexheap", run::<MutexHeapSub<u64>>),
        ("skiplist", run::<SkipShard<u64>>),
    ];
    for threads in sweep.threads.clone() {
        // Capped: every bucket owns a full shard set and buckets are not
        // yet reclaimed mid-run (see ROADMAP), so an uncapped
        // shards × buckets product OOMs deep-oversubscription sweeps.
        let cell = sweep.cell(threads, sweep.shards(threads, 2, 16), 1);
        let b = QueueBuilder::new(cell.shards).delta(delta);
        let best = sweep.best_of(&backends, |(_, run)| run(b, &cell, universe));
        for ((backend, _), (t, buckets)) in backends.iter().zip(best) {
            let extra = format!(
                "\"delta\":{delta},\"universe\":{universe},\"stickiness\":1,\
                 \"buckets_touched\":{buckets},\"floor_p50\":{},\"floor_p99\":{},\
                 \"seg_installs\":{}",
                t.telemetry.floor.p50, t.telemetry.floor.p99, t.telemetry.seg_installs,
            );
            sweep.emit("bucket", backend, &cell, &t, &extra);
        }
    }
    sweep.finish();
}
