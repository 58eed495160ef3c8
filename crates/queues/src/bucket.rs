//! **Bucketed relaxed-FIFO hybrid** — the Δ-stepping unification of the
//! two relaxed engines.
//!
//! The workspace grew two relaxed families in parallel: relaxed
//! *priority* scheduling ([`ConcurrentMultiQueue`]) and relaxed *FIFO*
//! scheduling ([`DRaQueue`](crate::fifo::DRaQueue) /
//! [`DCboQueue`](crate::fifo::DCboQueue)). Δ-stepping is exactly the
//! algorithm that wants both at once: distances quantize into Δ-wide
//! **buckets** that must drain in (approximately) FIFO order, while the
//! order *within* a bucket is free — the paper's Theorem 6.1
//! correspondence between Δ-stepping and relaxed SSSP made explicit as a
//! data structure.
//!
//! [`BucketFifoQueue`] is that structure, a two-level hybrid:
//!
//! * the **outer level** is a relaxed FIFO of *buckets*: bucket `b`
//!   holds every element whose priority `p` satisfies `⌊p/Δ⌋ = b`.
//!   Buckets are keyed by their monotone index and popped by the
//!   d-CBO **oldest-visible discipline**: each bucket carries completed
//!   enqueue/dequeue counters (the d-CBO balanced-operation pair), and a
//!   shared [`floor`](BucketFifoQueue::floor) tracks the oldest bucket
//!   whose counters still show live elements. Pops scan forward from
//!   the floor; a bucket observed drained advances it. The floor is a
//!   *hint* in exactly the sense of the rest of the family: pushes that
//!   land below it pull it back down (`fetch_min` after publication),
//!   and a last-resort directory sweep keeps the sequential guarantee
//!   that a quiescent non-empty queue never reports empty.
//! * each **bucket** is itself a relaxed priority shard set reusing the
//!   MultiQueue's [`SubPriority`] backends (lock-free [`SkipShard`] by
//!   default, [`MutexHeapSub`](crate::skipshard::MutexHeapSub) as the
//!   locked baseline): keyed placement within the bucket so
//!   `push_or_decrease` merges repeated items, choice-of-two pops over
//!   the bucket's shards, mutex-free on the default backend.
//!
//! The hybrid's relaxation factors **compose**: the priority
//! displacement of a pop is at most Δ (everything in one bucket) plus
//! the outer FIFO slack (how far past a live bucket the floor can race,
//! bounded by in-flight operations), instead of the MultiQueue's
//! unbounded `O(q log q)` *rank* slack turning into unbounded *priority*
//! slack on heavy-tailed distributions.
//!
//! Workers drive the queue through a [`BucketSession`] — the bucket
//! member of the worker-session layer (see the [crate docs](crate)):
//! amortized epoch pin, owned home *shard columns* (the same shard
//! index in every bucket, strided across workers), and the bounded
//! spawn buffer whose flush publishes **per bucket**: the buffer is
//! grouped by bucket index so each touched bucket pays one counter
//! bump, and repeated items merge inside the buffer before any shared
//! traffic happens.
//!
//! `rsched-runtime` adapts this as a [`Scheduler`] so
//! `relaxed_delta_stepping` runs on it with plain quiescence
//! termination — no bucket barriers anywhere.
//!
//! [`ConcurrentMultiQueue`]: crate::multiqueue::ConcurrentMultiQueue
//! [`Scheduler`]: ../../rsched_runtime/trait.Scheduler.html

use crate::fifo::PinSession;
use crate::multiqueue::queue_of;
use crate::skipshard::{SkipShard, SubPriority, TryPopMin};
use crate::telemetry;
use crate::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush, MAX_SPAWN_BATCH};
use crossbeam::utils::CachePadded;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Spine length of the bucket directory.
const SPINE: usize = 1024;

/// Bucket slots per directory segment. Segments allocate lazily (8 KiB
/// of null slots each), so the directory addresses
/// `SPINE × SEG_SLOTS` = 1,048,576 buckets while an idle queue owns
/// only the spine. Priorities past the end clamp into the last bucket —
/// its internal priority order still holds, so clamping is pure
/// relaxation slack, never an error.
const SEG_SLOTS: usize = 1024;

/// Largest addressable bucket index.
const MAX_BUCKET: u64 = (SPINE * SEG_SLOTS) as u64 - 1;

/// One bucket: a relaxed priority shard set plus the d-CBO balanced
/// operation counters that drive the oldest-visible outer discipline.
struct Bucket<S> {
    shards: Box<[CachePadded<S>]>,
    /// Completed net-new enqueues into this bucket.
    enqueues: AtomicU64,
    /// Completed dequeues from this bucket.
    dequeues: AtomicU64,
}

impl<S> Bucket<S> {
    /// Live elements by the counters — exact when quiescent. Mid-flight
    /// it can err both ways: an in-flight *push* (published, counter
    /// not yet bumped) makes it under-count, an in-flight *pop*
    /// (claimed, counter not yet bumped) makes it over-count. Observing
    /// `0` therefore proves emptiness only in a phase with no
    /// concurrent pushes; with pushes in flight, the push-side
    /// `floor.fetch_min` (after publication) and the last-resort
    /// directory sweep in `pop_with_homes` are what keep a skipped
    /// bucket's elements reachable.
    fn approx_len(&self) -> u64 {
        self.enqueues
            .load(Ordering::Acquire)
            .saturating_sub(self.dequeues.load(Ordering::Acquire))
    }
}

/// One directory segment: a fixed slice of lazily allocated buckets.
struct Segment<S> {
    slots: Box<[AtomicPtr<Bucket<S>>]>,
}

/// Split a bucket index into (spine segment, slot offset).
#[inline]
fn locate(b: u64) -> (usize, usize) {
    ((b as usize) / SEG_SLOTS, (b as usize) % SEG_SLOTS)
}

/// The two-level bucketed hybrid: a relaxed FIFO of buckets, each
/// bucket a relaxed priority shard set (see the [module docs](self)).
///
/// Priorities are `u64` (the workspace's distance type); bucket index
/// is `⌊priority/Δ⌋`. Placement within a bucket is keyed
/// ([`push_or_decrease`](Self::push_or_decrease) merges repeated items
/// *per bucket*; the same item queued in two different buckets stays
/// duplicated and surfaces as a stale pop, exactly like every other
/// relaxed scheduler here). `None` from a pop is a hint, not a
/// linearizable emptiness check — callers own termination detection.
///
/// # Examples
///
/// ```
/// use rsched_queues::QueueBuilder;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let q = QueueBuilder::new(4).delta(10).bucket_fifo(); // Δ = 10, 4 shards per bucket
/// for i in 0..100u64 {
///     q.push_or_decrease(i as usize, i);
/// }
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut buckets = Vec::new();
/// while let Some((_, prio)) = q.pop(&mut rng) {
///     buckets.push(prio / 10);
/// }
/// // Single-threaded pops drain buckets in exactly ascending order.
/// assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(buckets.len(), 100);
/// ```
pub struct BucketFifoQueue<S = SkipShard<u64>> {
    spine: [AtomicPtr<Segment<S>>; SPINE],
    delta: u64,
    shards_per_bucket: usize,
    /// Oldest bucket that may still hold elements (monotone hint:
    /// poppers advance it past drained buckets, pushers `fetch_min` it
    /// back down after publishing below it).
    floor: AtomicU64,
    /// Highest bucket index that has ever received an element.
    ceiling: AtomicU64,
    /// Total stored elements (exact when quiescent).
    len: AtomicUsize,
}

impl<S: SubPriority<u64>> BucketFifoQueue<S> {
    /// The one real constructor, reached through
    /// [`QueueBuilder`](crate::QueueBuilder).
    pub(crate) fn construct(delta: u64, shards_per_bucket: usize) -> Self {
        assert!(delta >= 1, "bucket width must be at least 1");
        assert!(shards_per_bucket >= 1, "a bucket needs at least one shard");
        Self {
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            delta,
            shards_per_bucket,
            floor: AtomicU64::new(0),
            ceiling: AtomicU64::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Bucket width Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Priority shards per bucket.
    pub fn shards_per_bucket(&self) -> usize {
        self.shards_per_bucket
    }

    /// The current oldest-visible bucket hint.
    pub fn floor(&self) -> u64 {
        self.floor.load(Ordering::Acquire)
    }

    /// Highest bucket index that has ever received an element.
    pub fn ceiling(&self) -> u64 {
        self.ceiling.load(Ordering::Acquire)
    }

    /// Number of stored elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` if no elements are stored (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buckets currently allocated in the directory.
    pub fn buckets_allocated(&self) -> usize {
        let mut n = 0;
        let ceil = self.ceiling();
        let mut b = 0u64;
        while b <= ceil {
            match self.next_allocated(b, ceil) {
                Some((idx, _)) => {
                    n += 1;
                    b = idx + 1;
                }
                None => break,
            }
        }
        n
    }

    #[inline]
    fn bucket_index(&self, prio: u64) -> u64 {
        (prio / self.delta).min(MAX_BUCKET)
    }

    /// The first allocated bucket at index `>= b` (and `<= ceil`),
    /// skipping whole unallocated segments in one step.
    fn next_allocated(&self, mut b: u64, ceil: u64) -> Option<(u64, &Bucket<S>)> {
        while b <= ceil {
            let (seg, off) = locate(b);
            let seg_ptr = self.spine[seg].load(Ordering::Acquire);
            if seg_ptr.is_null() {
                b = ((seg + 1) * SEG_SLOTS) as u64;
                continue;
            }
            let slots = unsafe { &(*seg_ptr).slots };
            for o in off..SEG_SLOTS {
                let idx = (seg * SEG_SLOTS + o) as u64;
                if idx > ceil {
                    return None;
                }
                let bucket = slots[o].load(Ordering::Acquire);
                if !bucket.is_null() {
                    return Some((idx, unsafe { &*bucket }));
                }
            }
            b = ((seg + 1) * SEG_SLOTS) as u64;
        }
        None
    }

    /// The bucket at index `b`, allocating the segment and/or bucket on
    /// first touch (lock-free: losers of the install CAS free their
    /// allocation and use the winner's).
    fn get_or_alloc_bucket(&self, b: u64) -> &Bucket<S> {
        let (seg, off) = locate(b);
        let mut seg_ptr = self.spine[seg].load(Ordering::Acquire);
        if seg_ptr.is_null() {
            let fresh = Box::into_raw(Box::new(Segment::<S> {
                slots: (0..SEG_SLOTS)
                    .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                    .collect(),
            }));
            match self.spine[seg].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    telemetry::count(telemetry::OpCount::SegInstall, 1);
                    seg_ptr = fresh;
                }
                Err(winner) => {
                    drop(unsafe { Box::from_raw(fresh) });
                    seg_ptr = winner;
                }
            }
        }
        let slot = unsafe { &(*seg_ptr).slots[off] };
        let mut bucket = slot.load(Ordering::Acquire);
        if bucket.is_null() {
            let fresh = Box::into_raw(Box::new(Bucket {
                shards: (0..self.shards_per_bucket)
                    .map(|_| CachePadded::new(S::new()))
                    .collect(),
                enqueues: AtomicU64::new(0),
                dequeues: AtomicU64::new(0),
            }));
            match slot.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => bucket = fresh,
                Err(winner) => {
                    drop(unsafe { Box::from_raw(fresh) });
                    bucket = winner;
                }
            }
        }
        unsafe { &*bucket }
    }

    /// After publishing an element into bucket `b`: keep the ceiling
    /// and the oldest-visible floor consistent. Runs **after** the
    /// element is visible so the floor can never settle above a live
    /// bucket at quiescence.
    #[inline]
    fn note_push(&self, b: u64) {
        self.ceiling.fetch_max(b, Ordering::AcqRel);
        self.floor.fetch_min(b, Ordering::AcqRel);
    }

    /// Insert `item` at priority `prio` into bucket `⌊prio/Δ⌋`, merging
    /// into an existing entry for the same item *in that bucket* if one
    /// exists at a larger priority. Returns `true` iff a net-new
    /// element entered the structure (the count termination detectors
    /// track).
    pub fn push_or_decrease(&self, item: usize, prio: u64) -> bool {
        self.push_or_decrease_tok(item, prio, &S::token())
    }

    fn push_or_decrease_tok(&self, item: usize, prio: u64, tok: &S::Token) -> bool {
        let b = self.bucket_index(prio);
        let bucket = self.get_or_alloc_bucket(b);
        let shard = &bucket.shards[queue_of(item, self.shards_per_bucket)];
        let inserted = shard.push_or_decrease(item, prio, tok);
        if inserted {
            bucket.enqueues.fetch_add(1, Ordering::AcqRel);
            self.len.fetch_add(1, Ordering::AcqRel);
        }
        self.note_push(b);
        inserted
    }

    /// Relaxed pop: take an element from (approximately) the oldest
    /// live bucket — the minimum of a choice-of-two over that bucket's
    /// shards. `None` only after the directory sweep found nothing; a
    /// hint under concurrency, exact at quiescence.
    pub fn pop<R: Rng>(&self, rng: &mut R) -> Option<(usize, u64)> {
        self.pop_with_homes(&[], &mut 0, rng, &S::token())
            .map(|(item, prio, _)| (item, prio))
    }

    /// The shared pop engine: scan buckets from the floor, advance it
    /// past drained buckets, pop within the first live bucket (home
    /// shard columns first, then choice-of-two, then the bucket sweep),
    /// and fall back to a full directory sweep that re-anchors the
    /// floor. Returns `(item, priority, shard_index)`.
    fn pop_with_homes<R: Rng>(
        &self,
        homes: &[usize],
        rotor: &mut usize,
        rng: &mut R,
        tok: &S::Token,
    ) -> Option<(usize, u64, usize)> {
        // Floor-scan distance: allocated buckets examined before the
        // pop landed (1 = popped straight from the floor bucket).
        let mut scanned = 0u64;
        for _attempt in 0..2 {
            let f = self.floor.load(Ordering::Acquire);
            let ceil = self.ceiling.load(Ordering::Acquire);
            let mut b = f;
            while b <= ceil {
                let Some((idx, bucket)) = self.next_allocated(b, ceil) else {
                    break;
                };
                scanned += 1;
                if idx > b {
                    // Unallocated gap at the front: advance past it.
                    self.try_advance_floor(b, idx);
                }
                if bucket.approx_len() == 0 {
                    self.try_advance_floor(idx, idx + 1);
                } else if let Some(got) = self.pop_in_bucket(bucket, homes, rotor, rng, tok) {
                    telemetry::record(telemetry::OpHist::Floor, scanned);
                    return Some(got);
                }
                // A live-looking bucket that yielded nothing drained
                // under us: fall through to the next.
                b = idx + 1;
            }
            if self.len.load(Ordering::Acquire) == 0 {
                telemetry::count(telemetry::OpCount::EmptyPop, 1);
                return None;
            }
        }
        // Last resort: the floor may have raced past a bucket that was
        // refilled concurrently. Sweep the whole directory from bucket
        // 0 and pull the floor back down to anything found — this is
        // what keeps "quiescent non-empty never reports empty" true
        // without any ordering subtlety on the floor.
        let ceil = self.ceiling.load(Ordering::Acquire);
        let mut b = 0u64;
        while let Some((idx, bucket)) = self.next_allocated(b, ceil) {
            scanned += 1;
            if bucket.approx_len() > 0 {
                if let Some(got) = self.pop_in_bucket(bucket, homes, rotor, rng, tok) {
                    self.floor.fetch_min(idx, Ordering::AcqRel);
                    telemetry::record(telemetry::OpHist::Floor, scanned);
                    return Some(got);
                }
            }
            b = idx + 1;
        }
        telemetry::count(telemetry::OpCount::EmptyPop, 1);
        None
    }

    /// Advance the floor from `from` to `to` (buckets in between were
    /// observed drained or unallocated). The CAS re-validates the
    /// current value so concurrent poppers cannot leapfrog, and pushers
    /// that published below meanwhile win via their `fetch_min` (or,
    /// in the worst interleaving, via the last-resort sweep above).
    #[inline]
    fn try_advance_floor(&self, from: u64, to: u64) {
        let _ = self
            .floor
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Pop one element out of `bucket`: drain the session's home shard
    /// columns first, then run choice-of-two peek-compare-claim rounds,
    /// then sweep every shard. Bumps the bucket/global counters on
    /// success. `None` means the bucket raced to empty.
    fn pop_in_bucket<R: Rng>(
        &self,
        bucket: &Bucket<S>,
        homes: &[usize],
        rotor: &mut usize,
        rng: &mut R,
        tok: &S::Token,
    ) -> Option<(usize, u64, usize)> {
        let q = self.shards_per_bucket;
        let claim = |shard: usize| -> Option<(usize, u64)> {
            match bucket.shards[shard].try_pop_min(tok) {
                TryPopMin::Item(pair) => Some(pair),
                TryPopMin::Empty | TryPopMin::Contended => None,
            }
        };
        let finish = |item: usize, prio: u64, shard: usize| {
            bucket.dequeues.fetch_add(1, Ordering::AcqRel);
            self.len.fetch_sub(1, Ordering::AcqRel);
            (item, prio, shard)
        };
        // Locality phase: resume at the last hot home column.
        let nh = homes.len();
        for i in 0..nh {
            let idx = (*rotor + i) % nh;
            let c = homes[idx];
            if let Some((item, prio)) = claim(c) {
                *rotor = idx;
                telemetry::record(telemetry::OpHist::Steal, 0);
                return Some(finish(item, prio, c));
            }
        }
        // Choice-of-two rounds: racy-safe min peeks, claim the winner.
        for round in 0..(2 * q + 4) {
            let a = rng.gen_range(0..q);
            let b2 = rng.gen_range(0..q);
            let ka = bucket.shards[a].min_key(tok);
            let kb = if b2 == a {
                None
            } else {
                bucket.shards[b2].min_key(tok)
            };
            let win = match (ka, kb) {
                (None, None) => {
                    if bucket.approx_len() == 0 {
                        return None;
                    }
                    continue;
                }
                (Some(_), None) => a,
                (None, Some(_)) => b2,
                (Some(x), Some(y)) => {
                    if x <= y {
                        a
                    } else {
                        b2
                    }
                }
            };
            if let Some((item, prio)) = claim(win) {
                telemetry::record(telemetry::OpHist::Steal, round as u64);
                return Some(finish(item, prio, win));
            }
        }
        // Bucket sweep: visit every shard, waiting on any locks.
        for c in 0..q {
            if let Some((item, prio)) = bucket.shards[c].pop_min_wait(tok) {
                telemetry::record(telemetry::OpHist::Sweep, (c + 1) as u64);
                return Some(finish(item, prio, c));
            }
        }
        None
    }

    /// Open a worker session (see [`BucketSession`]): home shard
    /// columns strided by `cfg.tid`/`cfg.workers`, spawn buffer of
    /// `cfg.spawn_batch`, epoch pin live iff the backend needs one.
    pub fn session(&self, cfg: &SessionConfig) -> BucketSession {
        let workers = cfg.workers.max(1);
        let q = self.shards_per_bucket;
        let spw = cfg.shards_per_worker.min(q);
        let mut homes = Vec::with_capacity(spw);
        for i in 0..spw {
            let shard = (cfg.tid + i * workers) % q;
            if !homes.contains(&shard) {
                homes.push(shard);
            }
        }
        let batch = cfg.spawn_batch.clamp(1, MAX_SPAWN_BATCH);
        BucketSession {
            pin: PinSession::new(S::NEEDS_EPOCH),
            // `cfg.seed` is already the per-worker stream (the config
            // constructors mix the tid in exactly once).
            rng: SmallRng::seed_from_u64(cfg.seed),
            homes,
            rotor: 0,
            buf: Vec::with_capacity(if batch > 1 { batch } else { 0 }),
            batch,
        }
    }

    /// Session push: immediate `push_or_decrease` when
    /// `spawn_batch == 1`; otherwise the item parks in the buffer —
    /// merging into an already buffered entry for the same item when
    /// possible (the per-bucket merge dedup: the kept priority decides
    /// the bucket at flush time) — and a full buffer publishes itself.
    pub fn push_session(&self, item: usize, prio: u64, s: &mut BucketSession) -> PushOutcome {
        if s.batch <= 1 {
            s.pin.tick();
            let tok = S::borrow_token(&s.pin);
            let push = if self.push_or_decrease_tok(item, prio, &tok) {
                SessionPush::Inserted
            } else {
                SessionPush::Merged
            };
            return PushOutcome::immediate(push);
        }
        // Bounded-window local dedup, as in the MultiQueue session: a
        // duplicate that escapes the window merges at flush time and is
        // reported back through the FlushReport.
        const DEDUP_WINDOW: usize = 32;
        let window = s.buf.len().saturating_sub(DEDUP_WINDOW);
        if let Some(slot) = s.buf[window..].iter_mut().find(|(it, _)| *it == item) {
            if prio < slot.1 {
                slot.1 = prio;
            }
            return PushOutcome::immediate(SessionPush::Merged);
        }
        s.buf.push((item, prio));
        let flushed = if s.buf.len() >= s.batch {
            self.flush_session(s)
        } else {
            FlushReport::default()
        };
        PushOutcome {
            push: SessionPush::Buffered,
            flushed,
        }
    }

    /// Publish everything parked in the session buffer, **grouped by
    /// bucket**: the buffer is sorted by bucket index so every touched
    /// bucket pays one enqueue-counter bump and one directory walk, and
    /// the floor/ceiling update once per flush. The report's `merged`
    /// count retracts parked-as-new elements that hit existing entries.
    pub fn flush_session(&self, s: &mut BucketSession) -> FlushReport {
        if s.buf.is_empty() {
            return FlushReport::default();
        }
        s.pin.tick();
        let tok = S::borrow_token(&s.pin);
        let delta = self.delta;
        s.buf
            .sort_unstable_by_key(|&(item, prio)| (prio / delta, item));
        let mut rep = FlushReport::default();
        let mut lo_bucket = u64::MAX;
        let mut hi_bucket = 0u64;
        let mut i = 0;
        while i < s.buf.len() {
            let b = self.bucket_index(s.buf[i].1);
            let bucket = self.get_or_alloc_bucket(b);
            let mut inserted = 0u64;
            while i < s.buf.len() && self.bucket_index(s.buf[i].1) == b {
                let (item, prio) = s.buf[i];
                rep.published += 1;
                if bucket.shards[queue_of(item, self.shards_per_bucket)]
                    .push_or_decrease(item, prio, &tok)
                {
                    inserted += 1;
                } else {
                    rep.merged += 1;
                }
                i += 1;
            }
            if inserted > 0 {
                bucket.enqueues.fetch_add(inserted, Ordering::AcqRel);
                self.len.fetch_add(inserted as usize, Ordering::AcqRel);
            }
            lo_bucket = lo_bucket.min(b);
            hi_bucket = hi_bucket.max(b);
        }
        s.buf.clear();
        self.ceiling.fetch_max(hi_bucket, Ordering::AcqRel);
        self.floor.fetch_min(lo_bucket, Ordering::AcqRel);
        telemetry::count(telemetry::OpCount::FlushPublished, rep.published);
        telemetry::count(telemetry::OpCount::FlushMerged, rep.merged);
        rep
    }

    /// Locality-aware session pop: the oldest-visible bucket scan, with
    /// the session's home shard columns drained first inside the chosen
    /// bucket ([`PopSource::Home`]) before the choice-of-two steal
    /// rounds ([`PopSource::Steal`]). Sessions without affinity report
    /// [`PopSource::Shared`]. Buffered spawns are **not** popped here —
    /// flush on a miss (the runtime's worker loop does).
    pub fn pop_session(&self, s: &mut BucketSession) -> Option<((usize, u64), PopSource)> {
        s.pin.tick();
        let tok = S::borrow_token(&s.pin);
        let mut rotor = s.rotor;
        let out = self.pop_with_homes(&s.homes, &mut rotor, &mut s.rng, &tok);
        s.rotor = rotor;
        out.map(|(item, prio, shard)| {
            let src = if s.homes.is_empty() {
                PopSource::Shared
            } else if s.homes.contains(&shard) {
                PopSource::Home
            } else {
                PopSource::Steal
            };
            ((item, prio), src)
        })
    }

    /// Drain every element, unordered. Requires `&mut self`, i.e.
    /// quiescence.
    pub fn drain(&mut self) -> Vec<(usize, u64)> {
        let tok = S::token();
        let mut out = Vec::with_capacity(self.len());
        let ceil = self.ceiling.load(Ordering::Acquire);
        let mut b = 0u64;
        while let Some((idx, bucket)) = self.next_allocated(b, ceil) {
            for shard in bucket.shards.iter() {
                while let Some(pair) = shard.pop_min_wait(&tok) {
                    out.push(pair);
                }
            }
            bucket
                .dequeues
                .store(bucket.enqueues.load(Ordering::Acquire), Ordering::Release);
            b = idx + 1;
        }
        self.len.store(0, Ordering::Release);
        self.floor.store(ceil + 1, Ordering::Release);
        out
    }
}

impl<S> Drop for BucketFifoQueue<S> {
    fn drop(&mut self) {
        for seg in &self.spine {
            let seg_ptr = seg.load(Ordering::Acquire);
            if seg_ptr.is_null() {
                continue;
            }
            let seg = unsafe { Box::from_raw(seg_ptr) };
            for slot in seg.slots.iter() {
                let bucket = slot.load(Ordering::Acquire);
                if !bucket.is_null() {
                    drop(unsafe { Box::from_raw(bucket) });
                }
            }
        }
    }
}

impl<S: SubPriority<u64>> std::fmt::Debug for BucketFifoQueue<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketFifoQueue")
            .field("delta", &self.delta)
            .field("shards_per_bucket", &self.shards_per_bucket)
            .field("floor", &self.floor())
            .field("ceiling", &self.ceiling())
            .field("len", &self.len())
            .finish()
    }
}

/// A worker's session over a [`BucketFifoQueue`] — the hybrid member of
/// the workspace's worker-session layer.
///
/// Carries the amortized epoch [`PinSession`], the worker's private
/// shard-picker RNG, its owned **home shard columns** (the same shard
/// indices in every bucket, strided across workers exactly like
/// [`FifoSession`](crate::fifo::FifoSession) homes), and the bounded
/// spawn buffer with per-bucket merge dedup (see
/// [`push_session`](BucketFifoQueue::push_session) /
/// [`flush_session`](BucketFifoQueue::flush_session)).
#[derive(Debug)]
pub struct BucketSession {
    pin: PinSession,
    rng: SmallRng,
    /// Home shard indices, valid in every bucket (a shard *column*).
    homes: Vec<usize>,
    /// Index into `homes` of the last home hit.
    rotor: usize,
    buf: Vec<(usize, u64)>,
    batch: usize,
}

impl BucketSession {
    /// The home shard columns this session owns (empty = no affinity).
    pub fn homes(&self) -> &[usize] {
        &self.homes
    }

    /// Elements parked in the spawn buffer, not yet published.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueueBuilder;
    use crate::skipshard::MutexHeapSub;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn locate_partitions_the_index_space() {
        let mut expected = 0u64;
        for seg in 0..4 {
            for off in 0..SEG_SLOTS {
                assert_eq!(locate(expected), (seg, off), "bucket {expected}");
                expected += 1;
            }
        }
        let (seg, off) = locate(MAX_BUCKET);
        assert!(seg < SPINE);
        assert!(off < SEG_SLOTS);
    }

    #[test]
    fn sequential_pops_drain_buckets_in_order() {
        fn check<S: SubPriority<u64>>() {
            let q: BucketFifoQueue<S> = QueueBuilder::new(4).delta(10).bucket_fifo_on();
            // Insert in shuffled priority order across 20 buckets.
            let mut rng = SmallRng::seed_from_u64(3);
            let mut prios: Vec<u64> = (0..400).collect();
            for i in (1..prios.len()).rev() {
                prios.swap(i, rng.gen_range(0..=i));
            }
            for (item, &p) in prios.iter().enumerate() {
                assert!(q.push_or_decrease(item, p));
            }
            assert_eq!(q.len(), 400);
            let mut buckets = Vec::new();
            while let Some((_, p)) = q.pop(&mut rng) {
                buckets.push(p / 10);
            }
            assert_eq!(buckets.len(), 400);
            assert!(
                buckets.windows(2).all(|w| w[0] <= w[1]),
                "single-threaded bucket order must be exactly monotone"
            );
            assert!(q.is_empty());
        }
        check::<SkipShard<u64>>();
        check::<MutexHeapSub<u64>>();
    }

    #[test]
    fn intra_bucket_displacement_is_bounded_by_delta() {
        // The hybrid's composed relaxation: a sequential pop comes from
        // the oldest live bucket, so its priority exceeds the current
        // global minimum by less than Δ.
        let q = QueueBuilder::new(8).delta(100).bucket_fifo();
        for item in 0..1000usize {
            q.push_or_decrease(item, (item as u64 * 7919) % 5000);
        }
        let mut rng = SmallRng::seed_from_u64(11);
        let mut live: Vec<u64> = (0..1000).map(|i| (i as u64 * 7919) % 5000).collect();
        live.sort_unstable();
        while let Some((_, p)) = q.pop(&mut rng) {
            let min = live[0];
            assert!(p < min + 100, "pop at {p} while global min is {min}");
            let pos = live.binary_search(&p).expect("popped a live priority");
            live.remove(pos);
        }
        assert!(live.is_empty());
    }

    #[test]
    fn push_or_decrease_merges_within_a_bucket_only() {
        let q = QueueBuilder::new(4).delta(10).bucket_fifo();
        assert!(q.push_or_decrease(5, 25)); // bucket 2
        assert!(!q.push_or_decrease(5, 22), "same bucket: merged");
        assert_eq!(q.len(), 1);
        assert!(
            q.push_or_decrease(5, 7),
            "different bucket: a new (duplicate) element"
        );
        assert_eq!(q.len(), 2);
        let mut rng = SmallRng::seed_from_u64(0);
        // The bucket discipline pops the lower-bucket copy first.
        assert_eq!(q.pop(&mut rng), Some((5, 7)));
        assert_eq!(q.pop(&mut rng), Some((5, 22)));
        assert_eq!(q.pop(&mut rng), None);
    }

    #[test]
    fn huge_priorities_clamp_into_the_last_bucket() {
        let q = QueueBuilder::new(2).delta(1).bucket_fifo();
        q.push_or_decrease(0, u64::MAX - 1);
        q.push_or_decrease(1, 3);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(q.pop(&mut rng), Some((1, 3)));
        assert_eq!(q.pop(&mut rng), Some((0, u64::MAX - 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn conservation_under_mixed_ops() {
        let q = QueueBuilder::new(4).delta(16).bucket_fifo();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut net = 0i64;
        let mut popped = 0u64;
        for op in 0..20_000 {
            if op % 3 != 2 {
                let item = rng.gen_range(0..256usize);
                let prio = rng.gen_range(0..4_096u64);
                if q.push_or_decrease(item, prio) {
                    net += 1;
                }
            } else if q.pop(&mut rng).is_some() {
                popped += 1;
                net -= 1;
            }
        }
        while q.pop(&mut rng).is_some() {
            popped += 1;
            net -= 1;
        }
        assert_eq!(net, 0, "net inserts must equal pops after a full drain");
        assert!(popped > 0);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_storm_conserves_counts() {
        let q: Arc<BucketFifoQueue> = Arc::new(QueueBuilder::new(8).delta(32).bucket_fifo());
        let threads = 8;
        let per = 4_000usize;
        let results: Vec<(i64, u64)> = std::thread::scope(|s| {
            (0..threads)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
                        let (mut net, mut pops) = (0i64, 0u64);
                        for i in 0..per {
                            let item = t * per + i;
                            if q.push_or_decrease(item, rng.gen_range(0..10_000)) {
                                net += 1;
                            }
                            if i % 2 == 0 && q.pop(&mut rng).is_some() {
                                pops += 1;
                                net -= 1;
                            }
                        }
                        (net, pops)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut net: i64 = results.iter().map(|r| r.0).sum();
        let mut rng = SmallRng::seed_from_u64(0);
        while q.pop(&mut rng).is_some() {
            net -= 1;
        }
        assert_eq!(net, 0, "storm lost or duplicated elements");
        assert!(q.is_empty());
    }

    #[test]
    fn session_batched_pushes_group_by_bucket_and_dedup() {
        let q = QueueBuilder::new(4).delta(10).bucket_fifo();
        // Pre-existing entry in bucket 3: the flush of item 9 merges.
        q.push_or_decrease(9, 35);
        let mut s = q.session(&SessionConfig {
            spawn_batch: 16,
            ..SessionConfig::default()
        });
        assert_eq!(q.push_session(1, 50, &mut s).push, SessionPush::Buffered);
        // Same item again: merged inside the buffer (keeps the min).
        assert_eq!(q.push_session(1, 42, &mut s).push, SessionPush::Merged);
        assert_eq!(q.push_session(2, 5, &mut s).push, SessionPush::Buffered);
        assert_eq!(q.push_session(9, 31, &mut s).push, SessionPush::Buffered);
        assert_eq!(s.buffered(), 3);
        assert_eq!(q.len(), 1, "parked spawns are invisible");
        let rep = q.flush_session(&mut s);
        assert_eq!(rep.published, 3);
        assert_eq!(rep.merged, 1, "item 9 merged into the live entry");
        assert_eq!(q.len(), 3);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(q.pop(&mut rng), Some((2, 5)));
        assert_eq!(q.pop(&mut rng), Some((9, 31)), "flush kept the decrease");
        assert_eq!(q.pop(&mut rng), Some((1, 42)), "buffer kept the minimum");
    }

    #[test]
    fn session_home_columns_classify_pops() {
        let q = QueueBuilder::new(4).delta(50).bucket_fifo();
        let cfg = SessionConfig {
            shards_per_worker: 2,
            ..SessionConfig::for_worker(1, 2)
        };
        let mut s = q.session(&cfg);
        assert_eq!(s.homes(), &[1, 3], "strided home columns");
        for i in 0..200usize {
            q.push_session(i, (i as u64) % 150, &mut s);
        }
        let (mut homes, mut steals) = (0u32, 0u32);
        while let Some((_, src)) = q.pop_session(&mut s) {
            match src {
                PopSource::Home => homes += 1,
                PopSource::Steal => steals += 1,
                PopSource::Shared => panic!("affine session reported Shared"),
            }
        }
        assert_eq!(homes + steals, 200);
        assert!(homes > 0, "home columns never drained first");
        assert!(steals > 0, "foreign shards never stolen from");
    }

    #[test]
    fn session_conservation_across_threads() {
        let q: Arc<BucketFifoQueue> = Arc::new(QueueBuilder::new(4).delta(20).bucket_fifo());
        let threads = 4;
        let per = 2_000usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    let mut s = q.session(&SessionConfig {
                        spawn_batch: 8,
                        ..SessionConfig::for_worker(t, threads)
                    });
                    for i in 0..per {
                        q.push_session(t * per + i, (i as u64) * 3, &mut s);
                    }
                    q.flush_session(&mut s);
                });
            }
        });
        let mut drain = q.session(&SessionConfig::unaffine(3));
        let mut seen = HashSet::new();
        while let Some(((item, _), src)) = q.pop_session(&mut drain) {
            assert_eq!(src, PopSource::Shared, "unaffine session pops are Shared");
            assert!(seen.insert(item), "duplicate {item}");
        }
        assert_eq!(seen.len(), threads * per);
    }

    #[test]
    fn drain_empties_everything() {
        let mut q = QueueBuilder::new(3).delta(7).bucket_fifo();
        for i in 0..500usize {
            q.push_or_decrease(i, (i as u64) % 400);
        }
        let all = q.drain();
        assert_eq!(all.len(), 500);
        assert!(q.is_empty());
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(q.pop(&mut rng), None);
        // Reusable after a drain.
        q.push_or_decrease(0, 9);
        assert_eq!(q.pop(&mut rng), Some((0, 9)));
    }
}
