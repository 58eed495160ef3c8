//! The benchmark's own checks: its metric registry against
//! `BENCHMARK.json`, its ledger and verdict checks on violating
//! fixtures, and traced against untraced engine results.

use perfbench::closed::{engine_call, traced_call, Engine};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::serve::{judge, ledger_violations, Answer, Ledger, Phase, BUDGETS_NS, WORK_NS};
use rsched_graph::gen::{grid_road, power_law};
use rsched_graph::{bfs, dijkstra};
use rsched_serve::codec::{CompletedV2, StatsReply};

/// `BENCHMARK.json` lists `entries` in this order, each as
/// `{"name": "<name>", "<key>": ...`.
fn assert_listed_in_order(text: &str, key: &str, entries: &[String]) {
    let mut from = 0;
    for e in entries {
        let at = text[from..]
            .find(e.as_str())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {e} after offset {from}"));
        from += at + e.len();
    }
    assert_eq!(
        text.matches(&format!("\"{key}\":")).count(),
        entries.len(),
        "BENCHMARK.json lists other entries with a {key}"
    );
}

#[test]
fn registered_metrics_match_benchmark_json() {
    let text = include_str!("../../BENCHMARK.json");
    let metrics: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\""))
        .collect();
    assert_listed_in_order(text, "unit", &metrics);
    let workloads: Vec<String> = perfbench::Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\"", w.name()))
        .collect();
    assert_listed_in_order(text, "why", &workloads);
}

fn stats(submitted: u64, accepted: u64, completed: u64, met: u64, missed: u64) -> StatsReply {
    StatsReply {
        submitted,
        accepted,
        rejected: submitted - accepted,
        completed,
        deadline_met: met,
        deadline_misses: missed,
        ..StatsReply::default()
    }
}

#[test]
fn ledger_checker_flags_each_violation() {
    let client = Ledger {
        submitted: 10,
        accepted: 9,
        rejected: 1,
        completed: 9,
        met: 8,
    };
    assert!(ledger_violations(&client, &stats(10, 9, 9, 8, 1)).is_empty());
    // A completion the server never reported.
    let v = ledger_violations(&client, &stats(10, 9, 8, 7, 1));
    assert!(
        v.iter().any(|e| e.contains("completed != accepted")),
        "{v:?}"
    );
    assert!(
        v.iter().any(|e| e.contains("disagree on completed")),
        "{v:?}"
    );
    // Deadline verdicts that do not add up to the completions.
    let v = ledger_violations(&client, &stats(10, 9, 9, 8, 0));
    assert!(
        v.iter().any(|e| e.contains("met + missed != completed")),
        "{v:?}"
    );
    // Wire ledger: accepted + rejected != submitted.
    let mut s = stats(10, 9, 9, 8, 1);
    s.rejected = 0;
    let v = ledger_violations(&client, &s);
    assert!(
        v.iter()
            .any(|e| e.contains("accepted + rejected != submitted")),
        "{v:?}"
    );
}

fn completed(req_id: u64, sojourn_ns: u64, met: bool) -> CompletedV2 {
    CompletedV2 {
        req_id,
        sojourn_ns,
        inject_ns: 1_000,
        deadline_ns: 0,
        tardiness_ns: 0,
        met,
    }
}

#[test]
fn judge_counts_rejects_losses_and_contradictions_as_failures() {
    let ok = |recv_ns, c| Answer {
        accepted: true,
        rejected: false,
        recv_ns,
        done: Some(c),
    };
    let phase = Phase {
        base: 0,
        sched_ns: vec![0; 5],
        sent_ns: vec![0; 5],
        answers: vec![
            // In budget, judged met: fine.
            ok(100_000, completed(0, 50_000, true)),
            // In budget by the client's clock but judged missed.
            ok(100_000, completed(1, 50_000, false)),
            // A server sojourn longer than the client saw it in flight.
            ok(100_000, completed(2, 200_000, true)),
            Answer {
                rejected: true,
                ..Answer::default()
            },
            // Never answered.
            Answer::default(),
        ],
        ..Phase::default()
    };
    let j = judge(&phase);
    assert_eq!(
        (
            j.counts.submitted,
            j.counts.completed,
            j.counts.rejected,
            j.unanswered
        ),
        (5, 3, 1, 1)
    );
    assert_eq!(j.disagreements, 2);
    assert_eq!(j.failed(), 4);
    assert_eq!(j.client_misses, 2);
    assert!(WORK_NS < BUDGETS_NS[0]);
}

#[test]
fn judge_counts_a_late_completion_as_a_client_miss() {
    let phase = Phase {
        base: 0,
        sched_ns: vec![0],
        sent_ns: vec![10],
        answers: vec![Answer {
            accepted: true,
            rejected: false,
            recv_ns: BUDGETS_NS[0] + 1,
            done: Some(completed(0, 50_000, true)),
        }],
        ..Phase::default()
    };
    let j = judge(&phase);
    assert_eq!((j.client_misses, j.failed()), (1, 0));
}

#[test]
fn traced_and_untraced_runs_return_identical_distances() {
    let cases = [
        (Engine::Sssp, grid_road(40, 40, 3)),
        (Engine::Sssp, power_law(3_000, 10, 1..=100, 4)),
        (Engine::Bfs, grid_road(40, 40, 5)),
    ];
    for (engine, g) in cases {
        let want = match engine {
            Engine::Sssp => dijkstra(&g, 0).dist,
            Engine::Bfs => bfs(&g, 0),
        };
        let plain = engine_call(engine, &g, 7);
        let (traced, stats, spans) = traced_call(engine, &g, 7);
        assert_eq!(plain.dist, want, "{engine:?} untraced");
        assert_eq!(traced.dist, plain.dist, "{engine:?} traced");
        assert_eq!(
            spans.len(),
            perfbench::THREADS,
            "one span record per worker"
        );
        let pops: usize = spans.iter().map(|s| s.pop_ns.len()).sum();
        let empty: u64 = spans.iter().map(|s| s.pop_empty).sum();
        assert_eq!(pops as u64 - empty, stats.total.pops, "every pop was timed");
    }
}
