//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints `# ...` lines (environment, inputs, every metric with its
//! sample count) and, last, one JSON result line. Exits 1 when an output
//! was wrong, 2 on a usage or environment error.

use perfbench::{run, Args, QUEUE_MULTIPLIER, THREADS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every RSCHED_* knob must stay at its default: a stray one would
    // change the program under test without showing in the figures.
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RSCHED_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with RSCHED_* knobs set: {}",
            knobs.join(" ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# pinned: workload={} seed={} seconds={} trace={} threads={THREADS} queue_multiplier={QUEUE_MULTIPLIER} nproc={nproc} rsched_vars=none",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.render());
    if outcome.correct && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
