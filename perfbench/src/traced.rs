//! Spans around the calls the runtime makes into a queue, and around the
//! task handler it runs — the benchmark's own tracing, recorded from its
//! own code so the program under test is unchanged.
//!
//! [`Traced`] wraps any [`Scheduler`] and times every `push`, `pop` and
//! `flush` that goes through it. Samples land in a thread-local
//! [`ThreadSpans`]; a worker's session hands them to the shared sink when
//! the runtime drops it at worker exit, together with the session's
//! lifetime (the worker's wall time). The handler wraps its body in
//! [`handler_span`], whose self time excludes the pushes it makes.

use rsched_queues::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush};
use rsched_runtime::Scheduler;
use std::cell::RefCell;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Everything one worker thread recorded during one traced run.
#[derive(Clone, Debug, Default)]
pub struct ThreadSpans {
    /// Duration of every `pop` call, empty ones included, ns.
    pub pop_ns: Vec<u32>,
    /// `pop` calls that returned nothing.
    pub pop_empty: u64,
    /// Pops taken from a foreign shard.
    pub pop_steal: u64,
    /// Duration of every `push` call, ns.
    pub push_ns: Vec<u32>,
    /// Pushes merged into an existing entry (decrease-key hits).
    pub push_merged: u64,
    /// Flush calls.
    pub flushes: u64,
    /// Time in `pop`, `push` and `flush` together, ns.
    pub queue_ns: u64,
    /// Handler self time per task (its pushes excluded), ns.
    pub handler_ns: Vec<u32>,
    /// Sum of `handler_ns`.
    pub handler_self_ns: u64,
    /// Edges the handler scanned.
    pub edges: u64,
    /// Handler calls that processed their task (not stale).
    pub tasks: u64,
    /// Time in `push` so far — the handler reads it around its body.
    push_total_ns: u64,
    /// Lifetime of the worker's session: the worker's wall time, ns.
    pub life_ns: u64,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn sample(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Run a task handler body under a span. `body` returns whether it
/// processed its task and how many edges it scanned.
pub fn handler_span<R>(body: impl FnOnce() -> (R, Option<u64>)) -> R {
    let pushed_before = SPANS.with(|s| s.borrow().push_total_ns);
    let t = Instant::now();
    let (out, edges) = body();
    let total = elapsed_ns(t);
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let self_ns = total.saturating_sub(s.push_total_ns - pushed_before);
        s.handler_ns.push(sample(self_ns));
        s.handler_self_ns += self_ns;
        if let Some(e) = edges {
            s.tasks += 1;
            s.edges += e;
        }
    });
    out
}

/// A [`Scheduler`] that times every call into `inner`.
pub struct Traced<'a, S> {
    inner: &'a S,
    sink: &'a Mutex<Vec<ThreadSpans>>,
    /// The thread that called `run`; its session seeds the queue and is
    /// not a worker.
    owner: ThreadId,
}

impl<'a, S> Traced<'a, S> {
    /// Wrap `inner`; worker spans are appended to `sink`.
    pub fn new(inner: &'a S, sink: &'a Mutex<Vec<ThreadSpans>>) -> Self {
        SPANS.with(|s| *s.borrow_mut() = ThreadSpans::default());
        Traced {
            inner,
            sink,
            owner: std::thread::current().id(),
        }
    }
}

/// The inner session plus the span bookkeeping of its thread.
pub struct TracedSession<'a, T> {
    inner: T,
    opened: Instant,
    sink: &'a Mutex<Vec<ThreadSpans>>,
    worker: bool,
}

impl<T> Drop for TracedSession<'_, T> {
    fn drop(&mut self) {
        let mut spans = SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()));
        if self.worker {
            spans.life_ns = elapsed_ns(self.opened);
            if let Ok(mut sink) = self.sink.lock() {
                sink.push(spans);
            }
        }
    }
}

impl<'a, P: Copy, S: Scheduler<P>> Scheduler<P> for Traced<'a, S> {
    type Session = TracedSession<'a, S::Session>;

    fn open_session(&self, cfg: &SessionConfig) -> Self::Session {
        TracedSession {
            inner: self.inner.open_session(cfg),
            opened: Instant::now(),
            sink: self.sink,
            worker: std::thread::current().id() != self.owner,
        }
    }

    fn push(&self, session: &mut Self::Session, item: usize, prio: P) -> PushOutcome {
        let t = Instant::now();
        let out = self.inner.push(&mut session.inner, item, prio);
        let ns = elapsed_ns(t);
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            s.push_ns.push(sample(ns));
            s.push_total_ns += ns;
            s.queue_ns += ns;
            if out.push == SessionPush::Merged {
                s.push_merged += 1;
            }
        });
        out
    }

    fn pop(&self, session: &mut Self::Session) -> Option<((usize, P), PopSource)> {
        let t = Instant::now();
        let out = self.inner.pop(&mut session.inner);
        let ns = elapsed_ns(t);
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            s.pop_ns.push(sample(ns));
            s.queue_ns += ns;
            match out {
                None => s.pop_empty += 1,
                Some((_, PopSource::Steal)) => s.pop_steal += 1,
                Some(_) => {}
            }
        });
        out
    }

    fn flush(&self, session: &mut Self::Session) -> FlushReport {
        let t = Instant::now();
        let out = self.inner.flush(&mut session.inner);
        let ns = elapsed_ns(t);
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            s.flushes += 1;
            s.queue_ns += ns;
        });
        out
    }
}
