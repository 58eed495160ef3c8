//! Exact telemetry attribution across back-to-back contention trials:
//! each trial's capture must count that trial's pops and nothing else.
//!
//! Lock-free shards (`ms`, `segring`, `skiplist`) record one retry
//! observation per claimed element, so a trial's `retry.count` must
//! equal its own pops; mutex shards record none, so it must be 0. A
//! worker whose thread-local counts reach the global state after the
//! capture shows up as a short count in its own trial, or as a leak into
//! the next one. Alternating lock-free and mutex trials of different
//! lengths makes either visible.
//!
//! Lives in its own integration-test binary: telemetry is process-global,
//! so no other test may record while these trials run.

use rsched_bench::contention::{fifo_trial, front_trial, Cell, Trial};
use rsched_queues::lockfree::{MsQueue, SegRingQueue};
use rsched_queues::{
    telemetry, BucketFifoQueue, ConcurrentMultiQueue, MutexHeapSub, MutexSub, QueueBuilder,
    SkipShard,
};

const THREADS: usize = 4;

fn cell(round: usize) -> Cell {
    Cell {
        threads: THREADS,
        shards: 2 * THREADS,
        ops_per_thread: 2_000 + 500 * round,
        prefill: 256,
        shards_per_worker: 2,
        spawn_batch: 8,
        stickiness: 1,
    }
}

fn check(name: &str, t: &Trial, lock_free: bool) {
    assert!(t.pops > 0, "{name}: no pops");
    let want = if lock_free { t.pops } else { 0 };
    assert_eq!(
        t.telemetry.retry.count, want,
        "{name}: captured {} retry observations for {} pops",
        t.telemetry.retry.count, t.pops
    );
}

#[test]
fn each_trial_captures_exactly_its_own_pops() {
    telemetry::set_enabled(true);
    for round in 0..3 {
        let c = cell(round);
        let b = QueueBuilder::new(c.shards).seed(7);
        let (t, _) = fifo_trial(&b.d_cbo_on::<_, MsQueue<_>>(), &c, false);
        check("d-cbo/ms", &t, true);
        let (t, _) = fifo_trial(&b.d_ra_on::<_, MutexSub<_>>(), &c, true);
        check("d-ra/mutex", &t, false);
        let (t, _) = fifo_trial(&b.d_ra_on::<_, SegRingQueue<_>>(), &c, false);
        check("d-ra/segring", &t, true);

        let q: ConcurrentMultiQueue<u64, SkipShard<u64>> = b.universe(4_096).multiqueue_on();
        check("mq/skiplist", &front_trial(&q, &c, 4_096, 1), true);
        let q: ConcurrentMultiQueue<u64, MutexHeapSub<u64>> = b.universe(4_096).multiqueue_on();
        check("mq/mutexheap", &front_trial(&q, &c, 4_096, 2), false);

        let q: BucketFifoQueue<SkipShard<u64>> = b.delta(1024).bucket_fifo_on();
        check("bucket/skiplist", &front_trial(&q, &c, 4_096, 3), true);
        let q: BucketFifoQueue<MutexHeapSub<u64>> = b.delta(1024).bucket_fifo_on();
        check("bucket/mutexheap", &front_trial(&q, &c, 4_096, 4), false);
    }
}
