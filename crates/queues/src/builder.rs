//! One construction path for every relaxed queue in the crate.
//!
//! The queue family grew a constructor sprawl — `new` /
//! `with_universe` / `with_backend` / `with_backend_universe` across
//! [`ConcurrentMultiQueue`], [`BucketFifoQueue`], [`DRaQueue`] and
//! [`DCboQueue`], each with its own argument order — and call sites
//! had to remember which variant took a seed, which took a universe,
//! and where `d` went. [`QueueBuilder`] collapses all of that into one
//! fluent spelling with **typed backend selection**: the terminal
//! method names the structure, its `_on::<S>()` twin names the shard
//! backend, and every knob has exactly one place to live.
//!
//! ```
//! use rsched_queues::{QueueBuilder, MutexHeapSub};
//!
//! // The default-backend spellings:
//! let mq = QueueBuilder::new(8).universe(1024).multiqueue::<u64>();
//! let dra = QueueBuilder::new(4).choices(2).seed(7).d_ra::<usize>();
//! let dcbo = QueueBuilder::new(4).seed(7).d_cbo::<usize>();
//! let bucket = QueueBuilder::new(2).delta(64).bucket_fifo();
//! assert_eq!(mq.nqueues(), 8);
//! assert_eq!(dra.choices(), 2);
//! assert_eq!(dcbo.num_shards(), 4);
//! assert_eq!(bucket.delta(), 64);
//!
//! // Typed backend selection — the turbofish picks the shard type:
//! let mutex_mq = QueueBuilder::new(8).multiqueue_on::<u64, MutexHeapSub<u64>>();
//! assert_eq!(mutex_mq.nqueues(), 8);
//! ```
//!
//! The builder is the only public way in: each structure keeps one
//! crate-private `construct` body, and every terminal funnels there.

use crate::bucket::BucketFifoQueue;
use crate::fifo::{DCboQueue, DRaQueue, SubFifo};
use crate::lockfree::SegRingQueue;
use crate::multiqueue::ConcurrentMultiQueue;
use crate::skipshard::{SkipShard, SubPriority};

/// Fluent builder for the relaxed queue family. Construct with
/// [`QueueBuilder::new`] (the shard count — every structure has one),
/// chain knobs, finish with a typed terminal method.
///
/// Knob defaults: `choices = 2` (the classic two-choice
/// configuration), `seed = 0x5EED`, `delta = 1`, no universe
/// pre-allocation. Knobs a structure does not use are ignored by its
/// terminal (a `seed` on a `multiqueue()` changes nothing — the
/// MultiQueue's RNG is per-caller).
#[derive(Clone, Copy, Debug)]
#[must_use = "a QueueBuilder does nothing until a terminal method builds a queue"]
pub struct QueueBuilder {
    shards: usize,
    choices: usize,
    seed: u64,
    universe: Option<usize>,
    delta: u64,
}

impl QueueBuilder {
    /// Start a builder for a structure with `shards` internal shards
    /// (sub-queues for the FIFOs, priority shards for the MultiQueue,
    /// shards *per bucket* for the bucket hybrid).
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            choices: 2,
            seed: 0x5EED,
            universe: None,
            delta: 1,
        }
    }

    /// Choices per operation `d` for the choice-of-`d` structures
    /// ([`d_ra`](Self::d_ra) / [`d_cbo`](Self::d_cbo)). Default 2.
    pub fn choices(mut self, d: usize) -> Self {
        self.choices = d;
        self
    }

    /// RNG seed for structures that keep a sequential-interface RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pre-allocate item tables for items `0..universe`
    /// (keyed structures only: the MultiQueue's shard registries).
    pub fn universe(mut self, universe: usize) -> Self {
        self.universe = Some(universe);
        self
    }

    /// Bucket width Δ for [`bucket_fifo`](Self::bucket_fifo). Default 1.
    pub fn delta(mut self, delta: u64) -> Self {
        self.delta = delta;
        self
    }

    /// Build a [`ConcurrentMultiQueue`] on the default lock-free
    /// skiplist backend.
    pub fn multiqueue<P: Ord + Copy + Send + Sync>(self) -> ConcurrentMultiQueue<P, SkipShard<P>> {
        self.multiqueue_on::<P, SkipShard<P>>()
    }

    /// Build a [`ConcurrentMultiQueue`] on shard backend `S`.
    pub fn multiqueue_on<P, S>(self) -> ConcurrentMultiQueue<P, S>
    where
        P: Ord + Copy + Send,
        S: SubPriority<P>,
    {
        ConcurrentMultiQueue::construct(self.shards, self.universe)
    }

    /// Build a [`DRaQueue`] (d-random-access relaxed FIFO) on the
    /// default lock-free segmented-ring backend.
    pub fn d_ra<T: Send>(self) -> DRaQueue<T, SegRingQueue<T>> {
        self.d_ra_on::<T, SegRingQueue<T>>()
    }

    /// Build a [`DRaQueue`] on sub-FIFO backend `S`.
    pub fn d_ra_on<T: Send, S: SubFifo<T>>(self) -> DRaQueue<T, S> {
        DRaQueue::construct(self.shards, self.choices, self.seed)
    }

    /// Build a [`DCboQueue`] (d-choice-of-best relaxed FIFO) on the
    /// default lock-free segmented-ring backend.
    pub fn d_cbo<T: Send>(self) -> DCboQueue<T, SegRingQueue<T>> {
        self.d_cbo_on::<T, SegRingQueue<T>>()
    }

    /// Build a [`DCboQueue`] on sub-FIFO backend `S`.
    pub fn d_cbo_on<T: Send, S: SubFifo<T>>(self) -> DCboQueue<T, S> {
        DCboQueue::construct(self.shards, self.choices, self.seed)
    }

    /// Build a [`BucketFifoQueue`] (Δ-bucket FIFO-of-priorities
    /// hybrid) on the default lock-free skiplist backend. The
    /// builder's shard count is the *per-bucket* shard count.
    pub fn bucket_fifo(self) -> BucketFifoQueue<SkipShard<u64>> {
        self.bucket_fifo_on::<SkipShard<u64>>()
    }

    /// Build a [`BucketFifoQueue`] on shard backend `S`.
    pub fn bucket_fifo_on<S: SubPriority<u64>>(self) -> BucketFifoQueue<S> {
        BucketFifoQueue::construct(self.delta, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfree::MsQueue;
    use crate::skipshard::MutexHeapSub;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn builder_terminals_apply_their_knobs() {
        let mq = QueueBuilder::new(6).universe(100).multiqueue::<u64>();
        assert_eq!(mq.nqueues(), 6);

        let dra = QueueBuilder::new(3).choices(4).seed(9).d_ra::<usize>();
        assert_eq!((dra.num_shards(), dra.choices()), (3, 4));

        let dcbo = QueueBuilder::new(5).d_cbo::<usize>();
        assert_eq!(dcbo.num_shards(), 5);

        let bucket = QueueBuilder::new(2).delta(32).bucket_fifo();
        assert_eq!(bucket.delta(), 32);
    }

    #[test]
    fn typed_backend_selection_builds_every_backend() {
        let mq = QueueBuilder::new(2).multiqueue_on::<u64, MutexHeapSub<u64>>();
        mq.push_or_decrease(0, 10);
        assert_eq!(mq.len(), 1);

        let dra = QueueBuilder::new(2).d_ra_on::<usize, MsQueue<usize>>();
        let mut rng = SmallRng::seed_from_u64(1);
        dra.enqueue(7, &mut rng);
        assert_eq!(dra.dequeue(&mut rng), Some(7));

        let bucket = QueueBuilder::new(1)
            .delta(8)
            .bucket_fifo_on::<MutexHeapSub<u64>>();
        bucket.push_or_decrease(3, 11);
        assert_eq!(bucket.len(), 1);
    }
}
