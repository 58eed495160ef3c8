//! The repository benchmark: closed-loop graph workloads and an
//! open-loop serving workload against the public APIs of the
//! relaxed-scheduler crates, with a traced mode that splits the time by
//! layer. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod closed;
pub mod report;
pub mod serve;
pub mod stats;
pub mod traced;

use report::Outcome;

/// Worker threads in every pool the benchmark starts.
pub const THREADS: usize = 2;
/// Queues per worker thread in the graph engines.
pub const QUEUE_MULTIPLIER: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SsspRoad,
    SsspSocial,
    BfsRoad,
    ServeEdf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SsspRoad,
        Workload::SsspSocial,
        Workload::BfsRoad,
        Workload::ServeEdf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SsspRoad => "sssp-road",
            Workload::SsspSocial => "sssp-social",
            Workload::BfsRoad => "bfs-road",
            Workload::ServeEdf => "serve-edf",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The command line: `--workload NAME --seed N --seconds S --trace 0|1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds} outside (0, 120]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Run one workload in one mode.
pub fn run(args: Args) -> std::io::Result<Outcome> {
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    Ok(match (workload, trace) {
        (Workload::ServeEdf, false) => serve::measure(seed, seconds)?,
        (Workload::ServeEdf, true) => serve::measure_traced(seed, seconds)?,
        (w, false) => closed::measure(w, seed, seconds),
        (w, true) => closed::measure_traced(w, seed, seconds),
    })
}
