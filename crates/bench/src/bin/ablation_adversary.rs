//! **ABL-ADV** — adversary-strategy ablation: how much wasted work can each
//! scheduler behaviour inside the RankBound/Fairness envelope actually
//! cause?
//!
//! Compares, on BST-insertion sorting at fixed `k`:
//! * `exact` — always return the minimum (no waste, the Algorithm 1 case);
//! * `random_topk` — uniform over the window (a benign relaxed scheduler);
//! * `max_rank` — always the worst-ranked element;
//! * `max_inversions` — always skip the minimum as long as Fairness allows;
//! * `dependency_aware` — prefer returning *blocked* tasks (the strongest
//!   adversary; state-aware).
//!
//! This is the ablation behind the claim that the paper's
//! bounds hold for *any* admissible scheduler: the gap between benign and
//! worst-case behaviours is the "price of adversariality".
//!
//! ```text
//! cargo run -p rsched-bench --release --bin ablation_adversary
//! ```

use rsched_algos::BstSort;
use rsched_bench::{fmt, Scale, Table};
use rsched_core::theory;
use rsched_core::{
    run_relaxed, run_relaxed_with, AdversarialScheduler, AdversaryStrategy, IncrementalAlgorithm,
};

fn main() {
    let scale = Scale::from_env();
    let n = match scale {
        Scale::Small => 16_000usize,
        _ => 128_000,
    };
    println!("== adversary ablation: BST sorting, n = {n} ==\n");
    let table = Table::new(
        "abl_adv",
        &[
            "k",
            "random_topk",
            "max_rank",
            "max_inv",
            "dep_aware",
            "k4_ln_n",
        ],
    );
    for k in [2usize, 4, 8, 16] {
        let extra_with = |strategy: AdversaryStrategy| {
            let mut alg = BstSort::random(n, 31);
            run_relaxed(&mut alg, &mut AdversarialScheduler::new(k, strategy)).extra_steps
        };
        let rnd = extra_with(AdversaryStrategy::RandomTopK(5));
        let maxrank = extra_with(AdversaryStrategy::MaxRank);
        let maxinv = extra_with(AdversaryStrategy::MaxInversions);
        let dep = {
            let mut alg = BstSort::random(n, 31);
            run_relaxed_with(&mut alg, k, |a, w| {
                w.iter().position(|&t| !a.deps_satisfied(t)).unwrap_or(0)
            })
            .extra_steps
        };
        table.row(&[
            k.to_string(),
            fmt::count(rnd),
            fmt::count(maxrank),
            fmt::count(maxinv),
            fmt::count(dep),
            format!("{:.0}", theory::thm33_extra_steps(k, n)),
        ]);
    }
    println!(
        "\nExpected shape: dependency-aware >= max_rank/max_inv >= random_topk, \
         with even the strongest adversary far below the trivial k·n bound \
         ({}..{} for these k).",
        fmt::count(2 * n as u64),
        fmt::count(16 * n as u64),
    );
}
