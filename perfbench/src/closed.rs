//! The closed-loop graph workloads: one engine call after another on one
//! input, each result checked against the sequential reference.
//!
//! The untraced run calls the public engines (`parallel_sssp`,
//! `parallel_bfs`). The traced run calls `rsched_runtime::run` directly
//! with the queue the engine builds, wrapped in [`Traced`], and a handler
//! that mirrors the engine's task body; untraced engine calls alternate
//! with the traced ones so the tracing overhead is measured in the same
//! run.

use crate::report::{peak_rss_mb, process_cpu_ns, Metrics, Outcome};
use crate::stats::{median, tail};
use crate::traced::{handler_span, ThreadSpans, Traced};
use crate::{Workload, QUEUE_MULTIPLIER, THREADS};
use rsched_algos::{parallel_bfs, parallel_sssp, ParSsspConfig};
use rsched_graph::gen::{grid_road, power_law};
use rsched_graph::{bfs, dijkstra, CsrGraph, Weight, INF};
use rsched_queues::{DCboQueue, QueueBuilder};
use rsched_runtime::{run, PoolStats, RuntimeConfig, TaskOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Source vertex of every engine call.
const SRC: usize = 0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Engine calls a run makes even when `--seconds` runs out first.
const MIN_CALLS: usize = 3;

/// The engine a closed-loop workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Sssp,
    Bfs,
}

impl Engine {
    fn of(w: Workload) -> Engine {
        match w {
            Workload::BfsRoad => Engine::Bfs,
            _ => Engine::Sssp,
        }
    }
}

/// One generated input and its sequential reference.
pub struct Input {
    pub graph: CsrGraph,
    pub want: Vec<Weight>,
    pub reachable: usize,
    pub gen_s: f64,
    pub seq_s: f64,
}

/// Generate the workload's graph from `seed` and solve it sequentially.
pub fn make_input(w: Workload, seed: u64) -> Input {
    let t = Instant::now();
    let graph = match w {
        Workload::SsspSocial => power_law(150_000, 10, 1..=100, seed),
        _ => grid_road(500, 500, seed),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let want = match Engine::of(w) {
        Engine::Sssp => dijkstra(&graph, SRC).dist,
        Engine::Bfs => bfs(&graph, SRC),
    };
    let seq_s = t.elapsed().as_secs_f64();
    let reachable = want.iter().filter(|&&d| d != INF).count();
    Input {
        graph,
        want,
        reachable,
        gen_s,
        seq_s,
    }
}

fn config(seed: u64) -> ParSsspConfig {
    ParSsspConfig {
        threads: THREADS,
        queue_multiplier: QUEUE_MULTIPLIER,
        seed,
    }
}

/// What one engine call returned.
pub struct Solve {
    pub dist: Vec<Weight>,
    pub pops: u64,
    /// The engine's worker-phase wall time.
    pub worker_wall: Duration,
}

/// One call of the public engine.
pub fn engine_call(engine: Engine, g: &CsrGraph, seed: u64) -> Solve {
    match engine {
        Engine::Sssp => {
            let s = parallel_sssp(g, SRC, config(seed));
            Solve {
                dist: s.dist,
                pops: s.pops,
                worker_wall: s.wall,
            }
        }
        Engine::Bfs => {
            let s = parallel_bfs(g, SRC, config(seed));
            Solve {
                dist: s.dist,
                pops: s.pops,
                worker_wall: s.wall,
            }
        }
    }
}

/// One traced call: the engine's queue and task body over
/// `rsched_runtime::run`, every queue call and handler timed.
pub fn traced_call(
    engine: Engine,
    g: &CsrGraph,
    seed: u64,
) -> (Solve, PoolStats, Vec<ThreadSpans>) {
    let cfg = config(seed);
    let shards = cfg.threads * cfg.queue_multiplier;
    let runtime = RuntimeConfig {
        threads: cfg.threads,
        seed: cfg.seed,
        ..RuntimeConfig::default()
    };
    let sink = Mutex::new(Vec::new());
    let n = g.num_vertices();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    dist[SRC].store(0, Ordering::Release);
    let stats = match engine {
        Engine::Sssp => {
            let queue = QueueBuilder::new(shards).universe(n).multiqueue::<Weight>();
            run(
                &Traced::new(&queue, &sink),
                runtime,
                [(SRC, 0)],
                |w, v, d| {
                    handler_span(|| {
                        if d > dist[v].load(Ordering::Acquire) {
                            return (TaskOutcome::Stale, None);
                        }
                        let mut edges = 0;
                        for (u, wt) in g.neighbors(v) {
                            edges += 1;
                            let nd = d + wt;
                            let mut cur = dist[u].load(Ordering::Acquire);
                            while nd < cur {
                                match dist[u].compare_exchange_weak(
                                    cur,
                                    nd,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                ) {
                                    Ok(_) => {
                                        w.spawn(u, nd);
                                        break;
                                    }
                                    Err(now) => cur = now,
                                }
                            }
                        }
                        (TaskOutcome::Executed, Some(edges))
                    })
                },
            )
        }
        Engine::Bfs => {
            let queue: DCboQueue<(usize, Weight)> =
                QueueBuilder::new(shards).seed(cfg.seed).d_cbo();
            run(
                &Traced::new(&queue, &sink),
                runtime,
                [(SRC, 0)],
                |w, v, d| {
                    handler_span(|| {
                        if d > dist[v].load(Ordering::Acquire) {
                            return (TaskOutcome::Stale, None);
                        }
                        let nd = d + 1;
                        let mut edges = 0;
                        for (u, _) in g.neighbors(v) {
                            edges += 1;
                            if dist[u].fetch_min(nd, Ordering::AcqRel) > nd {
                                w.spawn(u, nd);
                            }
                        }
                        (TaskOutcome::Executed, Some(edges))
                    })
                },
            )
        }
    };
    let spans = sink.into_inner().expect("span sink poisoned");
    let solve = Solve {
        dist: dist.into_iter().map(AtomicU64::into_inner).collect(),
        pops: stats.total.pops,
        worker_wall: stats.wall,
    };
    (solve, stats, spans)
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let engine = Engine::of(w);
    let mut setups = Vec::new();
    let mut input = None;
    for rep in 0..SETUP_REPS {
        drop(input.take());
        let cpu0 = process_cpu_ns();
        let i = make_input(w, seed);
        setups.push((process_cpu_ns() - cpu0) as f64 / 1e9);
        if rep == 0 {
            println!(
                "# input: {} vertices, {} edges, {} reachable from {SRC}",
                i.graph.num_vertices(),
                i.graph.num_edges(),
                i.reachable
            );
        }
        input = Some(i);
    }
    let input = input.expect("at least one set-up");
    let mut out = Outcome::default();
    // Warm-up call: page in the graph and the allocator's arenas.
    let warm = engine_call(engine, &input.graph, seed);
    out.check(
        warm.dist == input.want,
        "warm-up result differs from the sequential reference",
    );

    let mut solve_ms = Vec::new();
    let mut pops = 0u64;
    let mut peak_mb = None;
    let started = Instant::now();
    let mut call = 0u64;
    while solve_ms.len() < MIN_CALLS || started.elapsed().as_secs_f64() < seconds {
        call += 1;
        let t = Instant::now();
        let s = engine_call(engine, &input.graph, seed.wrapping_add(call));
        solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempt(
            s.dist == input.want,
            "engine result differs from the sequential reference",
        );
        pops += s.pops;
        // Every call needs the same memory; later calls only add
        // allocator arenas of fresh worker threads, in varying number.
        peak_mb.get_or_insert_with(peak_rss_mb);
    }
    // Means over calls, not medians: the relaxed FIFO's wasted work is
    // bimodal from call to call, and the mean is what a caller making
    // many calls pays. latency = work_ratio × reachable / rate.
    let calls = solve_ms.len();
    let total_ms: f64 = solve_ms.iter().sum();
    let work_ratio = pops as f64 / (calls * input.reachable) as f64;
    println!(
        "# solve_ms: mean {} median {} (n = {calls}); work_ratio {work_ratio}",
        total_ms / calls as f64,
        median(&mut solve_ms).expect("calls made"),
    );
    let mut m = Metrics::end_to_end();
    m.set("latency_ms", total_ms / calls as f64, calls);
    m.set("rate_per_s", pops as f64 / (total_ms / 1e3), calls);
    m.set("work_ratio", work_ratio, calls);
    m.set(
        "setup_s",
        median(&mut setups).expect("set-ups made"),
        SETUP_REPS,
    );
    m.set("peak_rss_mb", peak_mb.expect("a call ran"), 1);
    out.metrics = Some(m);
    out
}

/// The traced run: per-layer metrics.
pub fn measure_traced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let engine = Engine::of(w);
    let input = make_input(w, seed);
    let mut out = Outcome::default();
    let warm = engine_call(engine, &input.graph, seed);
    out.check(
        warm.dist == input.want,
        "warm-up result differs from the sequential reference",
    );

    let mut plain_ms = Vec::new();
    let mut prep_ms = Vec::new();
    let mut calls = Vec::new();
    let started = Instant::now();
    let mut call = 0u64;
    while calls.len() < MIN_CALLS || started.elapsed().as_secs_f64() < seconds {
        call += 1;
        let t = Instant::now();
        let s = engine_call(engine, &input.graph, seed.wrapping_add(call));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        plain_ms.push(ms);
        prep_ms.push(ms - s.worker_wall.as_secs_f64() * 1e3);
        out.attempt(
            s.dist == input.want,
            "engine result differs from the sequential reference",
        );

        let t = Instant::now();
        let (s, stats, spans) = traced_call(engine, &input.graph, seed.wrapping_add(call));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempt(
            s.dist == input.want,
            "traced result differs from the sequential reference",
        );
        calls.push(CallTrace::of(ms, &stats, &spans));
    }
    let n = calls.len();
    let pop_n = calls.iter().map(|c| c.pop_n).sum();
    let push_n = calls.iter().map(|c| c.push_n).sum();
    let handler_n = calls.iter().map(|c| c.handler_n).sum();
    let med = |f: &dyn Fn(&CallTrace) -> f64| {
        let mut v: Vec<f64> = calls.iter().map(f).collect();
        median(&mut v).expect("traced calls made")
    };
    let mut m = Metrics::per_layer();
    m.set("queues.pop_ns_p50", med(&|c| c.pop_p50), pop_n);
    m.set("queues.pop_ns_p99", med(&|c| c.pop_p99), pop_n);
    m.set("queues.pop_empty_ratio", med(&|c| c.pop_empty_ratio), n);
    m.set("queues.push_ns_p50", med(&|c| c.push_p50), push_n);
    m.set("queues.merge_ratio", med(&|c| c.merge_ratio), n);
    m.set("queues.steal_ratio", med(&|c| c.steal_ratio), n);
    m.set("queues.self_share", med(&|c| c.queue_share), n);
    m.set("runtime.idle_share", med(&|c| c.idle_share), n);
    m.set("runtime.pop_misses", med(&|c| c.pop_misses), n);
    m.set("runtime.seed_ms", med(&|c| c.seed_ms), n);
    m.set("runtime.executed", med(&|c| c.executed), n);
    m.set("runtime.stale", med(&|c| c.stale), n);
    m.set("algos.handler_ns_p50", med(&|c| c.handler_p50), handler_n);
    m.set("algos.edges_per_task", med(&|c| c.edges_per_task), n);
    m.set(
        "algos.prep_ms",
        median(&mut prep_ms).expect("calls made"),
        n,
    );
    m.set("graph.seq_ms", input.seq_s * 1e3, 1);
    m.set("graph.gen_s", input.gen_s, 1);
    let traced_ms = med(&|c| c.solve_ms);
    m.set(
        "trace_overhead",
        traced_ms / median(&mut plain_ms).expect("calls made"),
        n,
    );
    m.zero_serving_layers();
    out.metrics = Some(m);
    out
}

/// Per-layer figures of one traced call. Quantiles are exact over the
/// call's raw samples; the run reports the median over calls.
struct CallTrace {
    solve_ms: f64,
    pop_n: usize,
    push_n: usize,
    handler_n: usize,
    pop_p50: f64,
    pop_p99: f64,
    pop_empty_ratio: f64,
    push_p50: f64,
    merge_ratio: f64,
    steal_ratio: f64,
    queue_share: f64,
    idle_share: f64,
    pop_misses: f64,
    seed_ms: f64,
    executed: f64,
    stale: f64,
    handler_p50: f64,
    edges_per_task: f64,
}

impl CallTrace {
    fn of(solve_ms: f64, stats: &PoolStats, spans: &[ThreadSpans]) -> CallTrace {
        let cat = |f: &dyn Fn(&ThreadSpans) -> &[u32]| -> Vec<u32> {
            spans.iter().flat_map(|s| f(s).iter().copied()).collect()
        };
        let sum =
            |f: &dyn Fn(&ThreadSpans) -> u64| -> f64 { spans.iter().map(f).sum::<u64>() as f64 };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut pops = cat(&|s| &s.pop_ns);
        let mut pushes = cat(&|s| &s.push_ns);
        let mut handler = cat(&|s| &s.handler_ns);
        let pop_calls = pops.len() as f64;
        let life = sum(&|s| s.life_ns);
        let queue = sum(&|s| s.queue_ns);
        let busy = queue + sum(&|s| s.handler_self_ns);
        CallTrace {
            solve_ms,
            pop_n: pops.len(),
            push_n: pushes.len(),
            handler_n: handler.len(),
            pop_p50: median(&mut pops).unwrap_or(0.0),
            pop_p99: tail(&mut pops, 0.99).map_or(0.0, |t| t.value),
            pop_empty_ratio: ratio(sum(&|s| s.pop_empty), pop_calls),
            push_p50: median(&mut pushes).unwrap_or(0.0),
            merge_ratio: ratio(sum(&|s| s.push_merged), pushes.len() as f64),
            steal_ratio: ratio(sum(&|s| s.pop_steal), pop_calls - sum(&|s| s.pop_empty)),
            queue_share: ratio(queue, life),
            idle_share: ratio(life - busy, life),
            pop_misses: stats.total.pop_misses as f64,
            seed_ms: (stats.total_wall - stats.wall).as_secs_f64() * 1e3,
            executed: stats.total.executed as f64,
            stale: stats.total.stale as f64,
            handler_p50: median(&mut handler).unwrap_or(0.0),
            edges_per_task: ratio(sum(&|s| s.edges), sum(&|s| s.tasks)),
        }
    }
}
