//! The contention harness behind `fifo_contention`, `mq_contention` and
//! `bucket_contention`: one trial loop, one telemetry window, one
//! conservation check, written once against the runtime's [`Scheduler`]
//! session interface, which every swept queue implements. The FIFOs
//! carry `(item, payload)` elements, exactly as under the runtime.
//!
//! A trial prefills the queue single-threaded, resets the telemetry,
//! starts `threads` scoped workers on a barrier, runs each worker's
//! operation stream through its own session, flushes every session's
//! spawn buffer, captures the telemetry, and only then drains the queue
//! (unrecorded, untimed) to check that every net-new element came out
//! exactly once. Each worker folds its thread-local telemetry before it
//! returns, so the capture holds exactly this trial's operations.
//!
//! The knobs every sweep reads ([`Sweep::from_env`]): `RSCHED_SCALE`
//! (small/medium/paper: 100k/400k/1M operations per thread),
//! `RSCHED_THREADS` (comma list), `RSCHED_REPS` (repetitions per cell,
//! interleaved round-robin, best run kept), `RSCHED_PREFILL`,
//! `RSCHED_SHARD_MULT` / `RSCHED_SHARDS` (shards per thread, or an
//! absolute count) and the session axes `RSCHED_SHARDS_PER_WORKER` /
//! `RSCHED_SPAWN_BATCH`. Records print as `json,{…}` lines and go to
//! `RSCHED_JSON_OUT` as one JSON array.

use crate::{env_opt_usize, env_usize, env_usize_list, telemetry_json_fields};
use crate::{write_json_artifact, Scale};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsched_queues::instrument::ConcurrentRankEstimator;
use rsched_queues::trace::{self, EventKind};
use rsched_queues::{telemetry, FifoRankStats, PopSource, SessionConfig, TelemetrySnapshot};
use rsched_runtime::Scheduler;
use std::sync::Barrier;
use std::time::Instant;

/// One session's bookkeeping: pushes and net-new elements in (the rule
/// is `PushOutcome::net_new`), pops out by source.
#[derive(Default)]
struct Tally {
    pushes: u64,
    net: i64,
    pops: u64,
    home_hits: u64,
    steals: u64,
}

impl Tally {
    fn add(self, o: Tally) -> Tally {
        Tally {
            pushes: self.pushes + o.pushes,
            net: self.net + o.net,
            pops: self.pops + o.pops,
            home_hits: self.home_hits + o.home_hits,
            steals: self.steals + o.steals,
        }
    }

    fn inserts(&self) -> u64 {
        self.net as u64
    }
}

/// A worker's handle on the queue during a trial: its session and its
/// push/pop bookkeeping. Workloads push and pop only through it, so the
/// harness sees every operation.
struct Port<'q, Q: Scheduler<u64>> {
    queue: &'q Q,
    session: Q::Session,
    tally: Tally,
}

impl<'q, Q: Scheduler<u64>> Port<'q, Q> {
    fn open(queue: &'q Q, cfg: &SessionConfig) -> Self {
        Self {
            queue,
            session: queue.open_session(cfg),
            tally: Tally::default(),
        }
    }

    /// Push `item` with `prio` through this worker's session.
    fn push(&mut self, item: usize, prio: u64) {
        let out = self.queue.push(&mut self.session, item, prio);
        self.tally.pushes += 1;
        self.tally.net += out.net_new();
    }

    /// Pop through this worker's session.
    fn pop(&mut self) -> Option<((usize, u64), PopSource)> {
        let got = self.queue.pop(&mut self.session);
        if let Some((_, src)) = got {
            self.tally.pops += 1;
            match src {
                PopSource::Home => self.tally.home_hits += 1,
                PopSource::Steal => self.tally.steals += 1,
                PopSource::Shared => {}
            }
        }
        got
    }

    /// Publish the parked pushes (their merges are not net-new) and
    /// hand back the tally.
    fn close(mut self) -> Tally {
        let report = self.queue.flush(&mut self.session);
        self.tally.net -= report.merged as i64;
        self.tally
    }
}

/// One cell's shape: workers, shards, operations per worker, prefill
/// depth and the session tuning every worker opens with.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub threads: usize,
    pub shards: usize,
    pub ops_per_thread: usize,
    pub prefill: usize,
    pub shards_per_worker: usize,
    pub spawn_batch: usize,
    pub stickiness: usize,
}

/// The measured outcome of one trial. `telemetry` covers the contended
/// phase only: prefill and drain fall outside the window.
pub struct Trial {
    pub wall_s: f64,
    pub ops: u64,
    pub pops: u64,
    pub home_hits: u64,
    pub steals: u64,
    pub inserts: u64,
    pub merges: u64,
    pub telemetry: TelemetrySnapshot,
}

impl Trial {
    fn pops_per_sec(&self) -> f64 {
        self.pops as f64 / self.wall_s
    }

    /// The measured fields every sweep's record carries (no braces, no
    /// leading comma).
    fn json_fields(&self) -> String {
        let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        format!(
            "\"ops\":{},\"wall_s\":{:.6},\"ops_per_sec\":{:.1},\"pops\":{},\
             \"pops_per_sec\":{:.1},\"home_hits\":{},\"home_fraction\":{:.4},\
             \"steals\":{},\"steal_fraction\":{:.4},\"inserts\":{},\"merges\":{},\
             \"merge_fraction\":{:.4},{},\"registry_probes\":{}",
            self.ops,
            self.wall_s,
            self.ops as f64 / self.wall_s,
            self.pops,
            self.pops_per_sec(),
            self.home_hits,
            frac(self.home_hits, self.pops),
            self.steals,
            frac(self.steals, self.pops),
            self.inserts,
            self.merges,
            frac(self.merges, self.inserts + self.merges),
            telemetry_json_fields(&self.telemetry),
            self.telemetry.registry_probes,
        )
    }
}

/// Run one trial of `cell` on `queue`. The prefill pushes `cell.prefill`
/// items from `fill` through one unaffine session seeded with `seed`.
/// Worker `tid` builds its private state with `init(tid)` and then runs
/// `step(state, i, port)` for each operation index `i`.
///
/// Panics if an element was lost or duplicated, or if the captured
/// retry histogram counted neither no pops (lock-based shards record no
/// retries) nor exactly this trial's pops (lock-free shards record one
/// observation per claimed element).
fn trial<Q: Scheduler<u64>, W>(
    queue: &Q,
    cell: &Cell,
    seed: u64,
    mut fill: impl FnMut() -> (usize, u64),
    init: impl Fn(usize) -> W + Sync,
    step: impl Fn(&mut W, usize, &mut Port<'_, Q>) + Sync,
) -> Trial {
    let mut port = Port::open(queue, &SessionConfig::unaffine(seed));
    for _ in 0..cell.prefill {
        let (item, prio) = fill();
        port.push(item, prio);
    }
    let prefilled = port.close().inserts();
    telemetry::reset();
    let barrier = Barrier::new(cell.threads);
    let start = Instant::now();
    let tally = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cell.threads)
            .map(|tid| {
                let (barrier, init, step) = (&barrier, &init, &step);
                scope.spawn(move || {
                    let mut state = init(tid);
                    let mut port = Port::open(
                        queue,
                        &SessionConfig {
                            shards_per_worker: cell.shards_per_worker,
                            spawn_batch: cell.spawn_batch,
                            stickiness: cell.stickiness,
                            ..SessionConfig::for_worker(tid, cell.threads)
                        },
                    );
                    barrier.wait();
                    for i in 0..cell.ops_per_thread {
                        step(&mut state, i, &mut port);
                    }
                    let tally = port.close();
                    // Fold this worker's counts into the window now: the
                    // thread-local recorder's Drop-flush runs only as the
                    // thread exits, which a scope's own join does not
                    // wait for, so it could land after `capture`.
                    telemetry::flush_local();
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("contention worker panicked"))
            .fold(Tally::default(), Tally::add)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let snapshot = telemetry::capture();
    let mut drain = Port::open(queue, &SessionConfig::unaffine(0));
    while drain.pop().is_some() {}
    let (inserted, drained) = (prefilled + tally.inserts(), drain.tally.pops);
    assert_eq!(
        inserted,
        tally.pops + drained,
        "conservation violated: {inserted} in, {} + {drained} out",
        tally.pops
    );
    let retries = snapshot.retry.count;
    assert!(
        retries == 0 || retries == tally.pops,
        "telemetry window leaked: {retries} retry observations for {} pops",
        tally.pops
    );
    Trial {
        wall_s,
        ops: (cell.threads * cell.ops_per_thread) as u64,
        pops: tally.pops,
        home_hits: tally.home_hits,
        steals: tally.steals,
        inserts: tally.inserts(),
        merges: tally.pushes - tally.inserts(),
        telemetry: snapshot,
    }
}

/// The relaxed-FIFO workload: the payload is the arrival stamp of a
/// [`ConcurrentRankEstimator`], which logs every dequeue to estimate
/// rank errors. Operations alternate enqueue/dequeue (the classic queue
/// microbenchmark), or flip a seeded fair coin when `random_mix` is set.
/// The flight-recorder probes sit in the measured loop on purpose: with
/// `RSCHED_TRACE` unset each is one relaxed load and a branch, so
/// comparing untraced runs with the baselines bounds that overhead.
pub fn fifo_trial<Q: Scheduler<u64>>(
    queue: &Q,
    cell: &Cell,
    random_mix: bool,
) -> (Trial, FifoRankStats) {
    let est = ConcurrentRankEstimator::new();
    let t = {
        let rec = est.recorder();
        trial(
            queue,
            cell,
            0xF1F0,
            || (0, rec.stamp_enqueue()),
            |tid| {
                let coin = SmallRng::seed_from_u64(tid as u64 * 0x9E37 + 1);
                (est.recorder(), coin)
            },
            |(rec, coin), i, port| {
                let push = if random_mix {
                    coin.gen_bool(0.5)
                } else {
                    i % 2 == 0
                };
                if push {
                    let stamp = rec.stamp_enqueue();
                    trace::emit(EventKind::TaskInject, stamp);
                    port.push(0, stamp);
                } else if let Some(((_, stamp), src)) = port.pop() {
                    // Steal before pop, the pool's emission order: the
                    // steal round found the item the pop then claims.
                    if src == PopSource::Steal {
                        trace::emit(EventKind::StealRound, stamp);
                    }
                    trace::emit(EventKind::TaskPop, stamp);
                    rec.record_dequeue(stamp);
                    trace::emit(EventKind::TaskComplete, stamp);
                }
            },
        )
    };
    (t, est.into_stats())
}

/// The advancing-front workload of SSSP and Δ-stepping: alternating
/// `push_or_decrease` of a random item in `0..universe` at priority
/// `front + U[0, 1000)` and a relaxed pop, where `front` is the largest
/// priority this worker has popped. `seed` drives the prefill, which
/// draws its priorities from `U[0, 1000)`.
pub fn front_trial<Q: Scheduler<u64>>(queue: &Q, cell: &Cell, universe: usize, seed: u64) -> Trial {
    let mut rng = SmallRng::seed_from_u64(seed);
    trial(
        queue,
        cell,
        seed,
        || (rng.gen_range(0..universe), rng.gen_range(0..1_000)),
        |tid| (SmallRng::seed_from_u64(tid as u64 * 0x9E37 + 1), 0u64),
        |(rng, front), i, port| {
            if i % 2 == 0 {
                let item = rng.gen_range(0..universe);
                port.push(item, *front + rng.gen_range(0..1_000u64));
            } else if let Some(((_, prio), _)) = port.pop() {
                *front = (*front).max(prio);
            }
        },
    )
}

/// The knobs every sweep reads, resolved once from the environment.
pub struct Sweep {
    /// The thread counts to sweep, one cell set each.
    pub threads: Vec<usize>,
    scale: Scale,
    ops_per_thread: usize,
    reps: usize,
    prefill: usize,
    shards_per_worker: usize,
    spawn_batch: usize,
    shard_mult: usize,
    shards: Option<usize>,
    records: Vec<String>,
}

impl Sweep {
    /// Read the shared knobs; the arguments are this sweep's defaults.
    /// The session axes default to one home shard per worker and no
    /// spawn batching.
    pub fn from_env(threads: &[usize], shard_mult: usize, prefill: usize) -> Self {
        let scale = Scale::from_env();
        let mut threads = env_usize_list("RSCHED_THREADS", threads);
        threads.retain(|&t| t >= 1);
        Self {
            threads,
            scale,
            ops_per_thread: match scale {
                Scale::Small => 100_000,
                Scale::Medium => 400_000,
                Scale::Paper => 1_000_000,
            },
            reps: env_usize("RSCHED_REPS", 8).clamp(1, 16),
            prefill: env_usize("RSCHED_PREFILL", prefill),
            shards_per_worker: env_usize("RSCHED_SHARDS_PER_WORKER", 1),
            spawn_batch: env_usize("RSCHED_SPAWN_BATCH", 1),
            shard_mult: env_usize("RSCHED_SHARD_MULT", shard_mult).clamp(1, 8),
            shards: env_opt_usize("RSCHED_SHARDS"),
            records: Vec::new(),
        }
    }

    /// The run description every sweep's banner shares.
    pub fn describe(&self) -> String {
        format!(
            "scale {:?}, {} ops/thread, prefill {}, best of {}, threads {:?}, \
             shards/worker {}, spawn batch {}",
            self.scale,
            self.ops_per_thread,
            self.prefill,
            self.reps,
            self.threads,
            self.shards_per_worker,
            self.spawn_batch
        )
    }

    /// Shards for a `threads` cell: `RSCHED_SHARDS` if set, else the
    /// shard multiplier times `threads`, clamped to `[lo, hi]`.
    pub fn shards(&self, threads: usize, lo: usize, hi: usize) -> usize {
        self.shards
            .unwrap_or((self.shard_mult * threads).clamp(lo, hi))
    }

    /// The cell shape for `threads` workers on `shards` shards at this
    /// sweep's knobs.
    pub fn cell(&self, threads: usize, shards: usize, stickiness: usize) -> Cell {
        Cell {
            threads,
            shards,
            ops_per_thread: self.ops_per_thread,
            prefill: self.prefill,
            shards_per_worker: self.shards_per_worker,
            spawn_batch: self.spawn_batch,
            stickiness,
        }
    }

    /// Run every cell `reps` times, interleaved round-robin so drift in
    /// the host's background load hits every cell equally, and keep
    /// each cell's best run by pops per second.
    pub fn best_of<C, X>(&self, cells: &[C], run: impl Fn(&C) -> (Trial, X)) -> Vec<(Trial, X)> {
        let mut best: Vec<Option<(Trial, X)>> = cells.iter().map(|_| None).collect();
        for _ in 0..self.reps {
            for (slot, cell) in best.iter_mut().zip(cells) {
                let (t, x) = run(cell);
                if slot
                    .as_ref()
                    .is_none_or(|(b, _)| t.pops_per_sec() > b.pops_per_sec())
                {
                    *slot = Some((t, x));
                }
            }
        }
        best.into_iter().map(|b| b.expect("reps >= 1")).collect()
    }

    /// Print one record as a `json,` line and keep it for the artifact:
    /// the identity axes every sweep shares, this sweep's `extra`
    /// fields, then the measured fields of `t`.
    pub fn emit(&mut self, queue: &str, backend: &str, cell: &Cell, t: &Trial, extra: &str) {
        let record = format!(
            "{{\"queue\":\"{queue}\",\"backend\":\"{backend}\",\"threads\":{},\
             \"shards\":{},\"prefill\":{},\"shards_per_worker\":{},\"spawn_batch\":{},\
             {extra},{}}}",
            cell.threads,
            cell.shards,
            cell.prefill,
            cell.shards_per_worker,
            cell.spawn_batch,
            t.json_fields(),
        );
        println!("json,{record}");
        self.records.push(record);
    }

    /// Write the records to `RSCHED_JSON_OUT`, if set.
    pub fn finish(self) {
        write_json_artifact(&self.records);
    }
}
