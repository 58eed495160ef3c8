//! The open-loop serving workload: an in-process `Server` with the
//! default configuration on loopback TCP, driven by one v2 EDF
//! connection whose send and receive halves run on two client threads.
//!
//! Requests arrive as a Poisson process at a fixed offered rate; each
//! asks for [`WORK_NS`] of service and carries a relative budget that
//! alternates between [`BUDGETS_NS`]. Every request is timed from its
//! *scheduled* send, so a stalled generator or server shows up in the
//! latency of every request behind the stall. Saturation bursts on the
//! same connection keep a fixed number of requests in flight instead,
//! and measure throughput per CPU-second of the process. A second v2
//! connection carries the `Stats` and `Metrics` polls.

use crate::report::{peak_rss_mb, process_cpu_ns, Metrics, Outcome};
use crate::stats::{median, quantile, tail};
use rsched_serve::codec::{
    decode_response, encode_request, read_frame, CompletedV2, Hello, Request, Response, StatsReply,
    SubmitV2, FEAT_EDF, PROTO_V2,
};
use rsched_serve::{Endpoint, ServeConfig, Server, ServerReport};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The reference offered rate, requests per second: about a tenth of
/// the server's saturated wall throughput on a quiet two-vCPU host, so
/// that the reference load stays below capacity when the host takes a
/// share of the CPUs away.
pub const REF_RATE: f64 = 4_000.0;
/// The sojourn percentile the latency metric reads over every
/// reference request of a run: the serving path's floor. Host
/// interference on a shared virtual machine (vCPU steal, late wake-ups
/// of idle vCPUs) delays most requests at once; between runs on one
/// two-vCPU host it moved the median by more than ten times, the 25th
/// percentile by 40 % and the 1st by 10 % (up to 50 % at 35 % steal).
pub const LATENCY_Q: f64 = 0.01;
/// Service time each request asks for.
pub const WORK_NS: u64 = 20_000;
/// Relative deadline budgets; request `i` gets `BUDGETS_NS[i % 2]`.
pub const BUDGETS_NS: [u64; 2] = [3_000_000, 30_000_000];
/// Length of one reference-rate window.
const REF_WINDOW_SECONDS: f64 = 0.25;
/// Reference windows before each saturation burst.
const WINDOWS_PER_CYCLE: usize = 2;
/// Nominal length of one cycle (its windows plus one burst); a run makes
/// `--seconds / CYCLE_SECONDS` cycles, a count that does not depend on
/// how fast the server is.
const CYCLE_SECONDS: f64 = 0.75;
/// Requests in one saturation burst.
const BURST_REQUESTS: usize = 8_000;
/// Requests a burst keeps in flight: far below the server's admission
/// cap, so nothing is rejected, and far above its two workers.
const BURST_WINDOW: usize = 256;
/// How long the client waits for a reply that is due: stragglers after
/// an open-loop phase's last send, or the next reply in a burst.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 100;

/// Cycles of reference windows and saturation bursts in a run of
/// `seconds`.
fn cycles(seconds: f64) -> usize {
    ((seconds / CYCLE_SECONDS).round() as usize).max(2)
}

/// SplitMix64: the arrival process's generator, seeded per phase.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap at `rate` per second, seconds.
    fn gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// The Poisson schedule of one phase: send offsets from the phase
/// start, seconds.
pub fn schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    let mut t = rng.gap(rate);
    let mut out = Vec::with_capacity((rate * seconds * 1.2) as usize + 16);
    while t < seconds {
        out.push(t);
        t += rng.gap(rate);
    }
    out
}

/// A v2 EDF connection: the raw stream, split by cloning.
fn connect_v2(endpoint: &Endpoint) -> io::Result<TcpStream> {
    let Endpoint::Tcp(addr) = endpoint else {
        return Err(io::Error::other("the benchmark serves over TCP"));
    };
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut buf = Vec::new();
    encode_request(
        &Request::Hello(Hello {
            version: PROTO_V2,
            features: FEAT_EDF,
        }),
        &mut buf,
    );
    s.write_all(&buf)?;
    match read_response(&mut s, &mut buf)? {
        Response::HelloAck(ack) if ack.version == PROTO_V2 && ack.features & FEAT_EDF != 0 => Ok(s),
        other => Err(io::Error::other(format!(
            "v2 EDF handshake refused: {other:?}"
        ))),
    }
}

fn read_response(s: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Response> {
    if !read_frame(s, buf)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    Ok(decode_response(buf)?)
}

/// One request/reply exchange on the control connection.
fn poll(ctrl: &mut TcpStream, req: &Request) -> io::Result<Response> {
    let mut buf = Vec::new();
    encode_request(req, &mut buf);
    ctrl.write_all(&buf)?;
    read_response(ctrl, &mut buf)
}

fn stats(ctrl: &mut TcpStream) -> io::Result<StatsReply> {
    match poll(ctrl, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(io::Error::other(format!("Stats answered with {other:?}"))),
    }
}

/// Mean per-worker busy permille since the previous `Metrics` poll.
fn busy_permille(ctrl: &mut TcpStream) -> io::Result<f64> {
    match poll(ctrl, &Request::Metrics)? {
        Response::Metrics(m) if !m.utilization_permille.is_empty() => {
            let u = &m.utilization_permille;
            Ok(u.iter().sum::<u64>() as f64 / u.len() as f64)
        }
        other => Err(io::Error::other(format!("Metrics answered with {other:?}"))),
    }
}

/// A started server and its two client connections.
struct Rig {
    server: Server,
    load: TcpStream,
    ctrl: TcpStream,
    next_req: u64,
}

impl Rig {
    fn start() -> io::Result<Rig> {
        let server = Server::start(ServeConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })?;
        let load = connect_v2(server.endpoint())?;
        let ctrl = connect_v2(server.endpoint())?;
        Ok(Rig {
            server,
            load,
            ctrl,
            next_req: 0,
        })
    }

    fn shutdown(self) -> ServerReport {
        drop(self.load);
        drop(self.ctrl);
        self.server.shutdown()
    }
}

/// Start the rig `reps` times and keep the last; returns it with the
/// CPU time of each start-up, seconds.
fn set_up(reps: usize) -> io::Result<(Rig, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut rig = None;
    for _ in 0..reps {
        if let Some(old) = rig.take() {
            Rig::shutdown(old);
        }
        let cpu0 = process_cpu_ns();
        rig = Some(Rig::start()?);
        times.push((process_cpu_ns() - cpu0) as f64 / 1e9);
    }
    Ok((rig.expect("at least one start-up"), times))
}

/// The budget of request `req_id`.
pub fn budget_ns(req_id: u64) -> u64 {
    BUDGETS_NS[(req_id % 2) as usize]
}

/// The request with id `req_id`.
fn submit(req_id: u64) -> Request {
    Request::SubmitV2(SubmitV2 {
        req_id,
        deadline: budget_ns(req_id),
        work_ns: WORK_NS,
        absolute: false,
    })
}

/// What the client saw of one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Answer {
    pub accepted: bool,
    pub rejected: bool,
    /// Receipt of the completion, ns after the phase start.
    pub recv_ns: u64,
    pub done: Option<CompletedV2>,
}

/// Everything one phase recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Request id of the phase's first request.
    pub base: u64,
    /// Scheduled send of each request sent, ns after the phase start.
    pub sched_ns: Vec<u64>,
    /// Actual send, ns after the phase start.
    pub sent_ns: Vec<u64>,
    /// Indexed like `sched_ns` (and longer, if sending stopped early).
    pub answers: Vec<Answer>,
    /// Encode plus decode time over every frame, ns (traced phases).
    pub codec_ns: u64,
    /// Frames encoded or decoded (traced phases).
    pub frames: u64,
    /// A protocol or transport error on the load connection.
    pub error: Option<String>,
    /// The phase recorded spans, and is judged with the per-request
    /// split.
    pub traced: bool,
}

/// Drive one open-loop phase at `rate` for `seconds` over the rig's load
/// connection, then wait until every request is answered or the drain
/// times out. `traced` adds spans around the codec calls.
fn drive(rig: &mut Rig, rate: f64, seconds: f64, seed: u64, traced: bool) -> io::Result<Phase> {
    let offsets = schedule(rate, seconds, seed);
    let base = rig.next_req;
    rig.next_req += offsets.len() as u64;
    let tx = rig.load.try_clone()?;
    let rx = rig.load.try_clone()?;
    rx.set_read_timeout(Some(Duration::from_millis(20)))?;
    let sent = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    // Both sides' buffers are allocated here, not on the client
    // threads, so the process's peak memory does not depend on which
    // allocator arena a fresh thread lands in.
    let mut sender = SendSide {
        sent_ns: Vec::with_capacity(offsets.len()),
        ..SendSide::default()
    };
    let mut receiver = RecvSide {
        answers: vec![Answer::default(); offsets.len()],
        ..RecvSide::default()
    };
    let t0 = Instant::now();
    let (sent, sending, offsets) = (&sent, &sending, &offsets);
    std::thread::scope(|scope| {
        let out = &mut sender;
        let s = scope.spawn(move || send_loop(out, tx, offsets, base, t0, traced, sent, sending));
        let out = &mut receiver;
        let r = scope.spawn(move || recv_loop(out, rx, base, t0, traced, sent, sending));
        s.join().expect("sender thread panicked");
        r.join().expect("receiver thread panicked");
    });
    let sched_ns = offsets
        .iter()
        .take(sender.sent_ns.len())
        .map(|&o| (o * 1e9) as u64)
        .collect();
    Ok(Phase {
        base,
        sched_ns,
        frames: receiver.frames + sender.frames,
        sent_ns: sender.sent_ns,
        answers: receiver.answers,
        codec_ns: sender.codec_ns + receiver.codec_ns,
        error: sender.error.or(receiver.error),
        traced,
    })
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from((t - t0).as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Default)]
struct SendSide {
    sent_ns: Vec<u64>,
    codec_ns: u64,
    frames: u64,
    error: Option<String>,
}

/// The open-loop generator: send request `i` at `t0 + offsets[i]`.
#[allow(clippy::too_many_arguments)]
fn send_loop(
    out: &mut SendSide,
    mut tx: TcpStream,
    offsets: &[f64],
    base: u64,
    t0: Instant,
    traced: bool,
    sent: &AtomicUsize,
    sending: &AtomicBool,
) {
    precise_sleeps();
    let mut buf = Vec::with_capacity(64);
    for (i, &off) in offsets.iter().enumerate() {
        wait_until(t0 + Duration::from_secs_f64(off));
        let req_id = base + i as u64;
        let start = Instant::now();
        buf.clear();
        encode_request(&submit(req_id), &mut buf);
        if traced {
            out.codec_ns += ns_since(start, Instant::now());
            out.frames += 1;
        }
        out.sent_ns.push(ns_since(t0, start));
        if let Err(e) = tx.write_all(&buf) {
            out.error = Some(format!("send failed: {e}"));
            break;
        }
        sent.store(i + 1, Ordering::Release);
    }
    sending.store(false, Ordering::Release);
}

/// Sleep until `due`. The sender thread runs with the smallest timer
/// slack (see [`precise_sleeps`]), so a sleep ends close to its deadline
/// without spinning a core the server needs.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Ask the kernel to end this thread's sleeps within 1 ns of their
/// deadline instead of the default 50 µs timer slack.
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[derive(Default)]
struct RecvSide {
    answers: Vec<Answer>,
    codec_ns: u64,
    frames: u64,
    error: Option<String>,
}

/// Read replies until every sent request is answered, or the drain
/// times out after the sender finished.
fn recv_loop(
    out: &mut RecvSide,
    mut rx: TcpStream,
    base: u64,
    t0: Instant,
    traced: bool,
    sent: &AtomicUsize,
    sending: &AtomicBool,
) {
    if let Err(e) = recv_into(out, &mut rx, base, t0, traced, sent, sending) {
        out.error = Some(e);
    }
}

fn recv_into(
    out: &mut RecvSide,
    rx: &mut TcpStream,
    base: u64,
    t0: Instant,
    traced: bool,
    sent: &AtomicUsize,
    sending: &AtomicBool,
) -> Result<(), String> {
    let mut buf = Vec::with_capacity(128);
    let mut answered = 0usize;
    let mut drain_from = None;
    loop {
        if !sending.load(Ordering::Acquire) {
            let start = *drain_from.get_or_insert_with(Instant::now);
            if answered >= sent.load(Ordering::Acquire) || start.elapsed() > DRAIN_TIMEOUT {
                return Ok(());
            }
        }
        match read_frame(rx, &mut buf) {
            Ok(true) => {}
            Ok(false) => return Err("server closed the load connection".into()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("receive failed: {e}")),
        }
        let got = Instant::now();
        let resp = decode_response(&buf).map_err(|e| format!("undecodable reply: {e:?}"))?;
        if traced {
            out.codec_ns += ns_since(got, Instant::now());
            out.frames += 1;
        }
        answered += usize::from(record(&mut out.answers, base, resp, ns_since(t0, got))?);
    }
}

/// Note reply `resp`, received `recv_ns` after the phase start, against
/// the phase's requests (ids from `base`). True when it answers its
/// request for good: a reject or a completion.
fn record(answers: &mut [Answer], base: u64, resp: Response, recv_ns: u64) -> Result<bool, String> {
    let n = answers.len();
    let slot = |id: u64| -> Result<usize, String> {
        id.checked_sub(base)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < n)
            .ok_or_else(|| format!("reply for unknown request {id}"))
    };
    match resp {
        Response::Accepted { req_id } => {
            answers[slot(req_id)?].accepted = true;
            Ok(false)
        }
        Response::Rejected { req_id, .. } => {
            answers[slot(req_id)?].rejected = true;
            Ok(true)
        }
        Response::CompletedV2(c) => {
            let a = &mut answers[slot(c.req_id)?];
            a.done = Some(c);
            a.recv_ns = recv_ns;
            Ok(true)
        }
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// The request and deadline counts the server's `Stats` reply also
/// keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Completions the server judged met.
    pub met: u64,
}

impl Ledger {
    pub fn add(&mut self, other: &Ledger) {
        self.submitted += other.submitted;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.met += other.met;
    }
}

/// The client's view of one phase.
#[derive(Debug, Default)]
pub struct Judged {
    pub counts: Ledger,
    pub unanswered: u64,
    /// Finished past the budget from the scheduled send, rejected or
    /// unanswered.
    pub client_misses: u64,
    /// Completions whose server verdict or stamps the client's own
    /// timings contradict: judged missed although the client saw it
    /// finish in budget, a server sojourn longer than the client's
    /// send → receipt interval, or no Accepted before the Completed.
    pub disagreements: u64,
    /// Scheduled send → Completed receipt, ns, per completion.
    pub total_ns: Vec<f64>,
    /// The per-request split, traced phases only. Scheduled → actual
    /// send, ns.
    pub lag_ns: Vec<f64>,
    /// Server submit → inject, ns.
    pub inject_ns: Vec<f64>,
    /// Server sojourn − inject − work, ns.
    pub wait_ns: Vec<f64>,
    /// Client send → receipt − server sojourn, ns.
    pub wire_ns: Vec<f64>,
}

impl Judged {
    /// Fold another phase's judgement into this one.
    pub fn absorb(&mut self, mut other: Judged) {
        self.counts.add(&other.counts);
        self.unanswered += other.unanswered;
        self.client_misses += other.client_misses;
        self.disagreements += other.disagreements;
        self.total_ns.append(&mut other.total_ns);
        self.lag_ns.append(&mut other.lag_ns);
        self.inject_ns.append(&mut other.inject_ns);
        self.wait_ns.append(&mut other.wait_ns);
        self.wire_ns.append(&mut other.wire_ns);
    }

    /// Requests that count as failed: rejected, unanswered or
    /// contradicted.
    pub fn failed(&self) -> u64 {
        self.counts.rejected + self.unanswered + self.disagreements
    }
}

/// Judge every request sent in `p`.
pub fn judge(p: &Phase) -> Judged {
    let mut j = Judged::default();
    let c = &mut j.counts;
    c.submitted = p.sent_ns.len() as u64;
    for (i, (&sched, &sent)) in p.sched_ns.iter().zip(&p.sent_ns).enumerate() {
        let a = &p.answers[i];
        c.accepted += u64::from(a.accepted);
        if a.rejected {
            c.rejected += 1;
            j.client_misses += 1;
            continue;
        }
        let Some(done) = a.done else {
            j.unanswered += 1;
            j.client_misses += 1;
            continue;
        };
        c.completed += 1;
        c.met += u64::from(done.met);
        let total = a.recv_ns.saturating_sub(sched);
        let client_met = total <= budget_ns(p.base + i as u64);
        j.client_misses += u64::from(!client_met);
        let in_flight = a.recv_ns.saturating_sub(sent);
        if (!done.met && client_met) || in_flight < done.sojourn_ns || !a.accepted {
            j.disagreements += 1;
        }
        j.total_ns.push(total as f64);
        if p.traced {
            j.lag_ns.push(sent.saturating_sub(sched) as f64);
            j.inject_ns.push(done.inject_ns as f64);
            j.wait_ns
                .push(done.sojourn_ns.saturating_sub(done.inject_ns + WORK_NS) as f64);
            j.wire_ns
                .push((in_flight - done.sojourn_ns.min(in_flight)) as f64);
        }
    }
    j
}

/// Every way the server's `Stats` reply and the client's ledger fail to
/// balance; empty when both are exact.
pub fn ledger_violations(client: &Ledger, server: &StatsReply) -> Vec<String> {
    let checks = [
        (
            server.accepted + server.rejected == server.submitted,
            "accepted + rejected != submitted",
        ),
        (server.completed == server.accepted, "completed != accepted"),
        (
            server.deadline_met + server.deadline_misses == server.completed,
            "met + missed != completed",
        ),
        (
            server.in_flight == 0,
            "requests still in flight after drain",
        ),
        (
            client.submitted == server.submitted,
            "client and server disagree on submitted",
        ),
        (
            client.accepted == server.accepted,
            "client and server disagree on accepted",
        ),
        (
            client.rejected == server.rejected,
            "client and server disagree on rejected",
        ),
        (
            client.completed == server.completed,
            "client and server disagree on completed",
        ),
        (
            client.met == server.deadline_met,
            "client and server disagree on deadlines met",
        ),
    ];
    checks
        .iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| format!("ledger: {what} (client {client:?}, server {server:?})"))
        .collect()
}

/// One saturation burst on the rig's load connection: [`BURST_REQUESTS`]
/// requests, sent as replies free room for them with up to
/// [`BURST_WINDOW`] in flight. One thread sends and receives, blocking
/// in reads, so the client spins no core the server needs. Requests are
/// timed from their send. Returns the phase, its wall time and the
/// process's CPU time over it, ns.
fn saturate(rig: &mut Rig) -> io::Result<(Phase, u64, u64)> {
    let base = rig.next_req;
    rig.next_req += BURST_REQUESTS as u64;
    let mut p = Phase {
        base,
        sent_ns: Vec::with_capacity(BURST_REQUESTS),
        answers: vec![Answer::default(); BURST_REQUESTS],
        ..Phase::default()
    };
    rig.load.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    let (cpu0, t0) = (process_cpu_ns(), Instant::now());
    if let Err(e) = burst_into(&mut p, &rig.load, t0) {
        p.error = Some(e);
    }
    let (wall, cpu) = (ns_since(t0, Instant::now()), process_cpu_ns() - cpu0);
    p.sched_ns = p.sent_ns.clone();
    Ok((p, wall, cpu))
}

fn burst_into(p: &mut Phase, mut conn: &TcpStream, t0: Instant) -> Result<(), String> {
    let mut out = Vec::with_capacity(BURST_WINDOW * 32);
    let mut frame = Vec::with_capacity(128);
    let mut answered = 0usize;
    while answered < BURST_REQUESTS {
        let sent = p.sent_ns.len();
        if sent < BURST_REQUESTS && sent - answered <= BURST_WINDOW / 2 {
            out.clear();
            let now = ns_since(t0, Instant::now());
            for i in sent..(answered + BURST_WINDOW).min(BURST_REQUESTS) {
                encode_request(&submit(p.base + i as u64), &mut out);
                p.sent_ns.push(now);
            }
            conn.write_all(&out)
                .map_err(|e| format!("send failed: {e}"))?;
        }
        match read_frame(&mut conn, &mut frame) {
            Ok(true) => {}
            Ok(false) => return Err("server closed the load connection".into()),
            Err(e) => return Err(format!("receive failed: {e}")),
        }
        let got = ns_since(t0, Instant::now());
        let resp = decode_response(&frame).map_err(|e| format!("undecodable reply: {e:?}"))?;
        answered += usize::from(record(&mut p.answers, p.base, resp, got)?);
    }
    Ok(())
}

/// One run against one server: phases, the client ledger and the
/// correctness verdict.
struct Session {
    rig: Rig,
    ledger: Ledger,
    out: Outcome,
    seed: u64,
    phases: u64,
}

impl Session {
    fn new(rig: Rig, seed: u64) -> Session {
        Session {
            rig,
            ledger: Ledger::default(),
            out: Outcome::default(),
            seed,
            phases: 0,
        }
    }

    /// Drive an open-loop phase and account for it.
    fn phase(&mut self, rate: f64, seconds: f64, traced: bool) -> io::Result<(Phase, Judged)> {
        self.phases += 1;
        let seed = self
            .seed
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(self.phases);
        let p = drive(&mut self.rig, rate, seconds, seed, traced)?;
        let j = self.account(&p, &format!("{rate} req/s"));
        Ok((p, j))
    }

    /// Judge a phase and fold it into the ledger; a lost request, a
    /// contradicted verdict or a transport error makes the run wrong.
    fn account(&mut self, p: &Phase, what: &str) -> Judged {
        let j = judge(p);
        self.ledger.add(&j.counts);
        if let Some(e) = &p.error {
            self.out.check(false, e);
        }
        self.out.check(
            j.unanswered == 0,
            &format!("{} requests unanswered at {what}", j.unanswered),
        );
        self.out.check(
            j.disagreements == 0,
            &format!(
                "{} client/server verdict disagreements at {what}",
                j.disagreements
            ),
        );
        j
    }

    /// A reference-rate phase: its requests are the run's attempted
    /// operations.
    fn reference(&mut self, seconds: f64, traced: bool) -> io::Result<(Phase, Judged)> {
        let (p, j) = self.phase(REF_RATE, seconds, traced)?;
        self.out.attempted += j.counts.submitted;
        self.out.failed += j.failed();
        Ok((p, j))
    }

    /// A saturation burst: requests completed per CPU-second of the
    /// process, and per second of wall time.
    fn burst(&mut self) -> io::Result<(f64, f64)> {
        let (p, wall_ns, cpu_ns) = saturate(&mut self.rig)?;
        let j = self.account(&p, "saturation");
        self.out.check(
            j.counts.rejected == 0,
            &format!("{} requests rejected at saturation", j.counts.rejected),
        );
        let done = j.counts.completed as f64;
        Ok((done / (cpu_ns as f64 / 1e9), done / (wall_ns as f64 / 1e9)))
    }

    /// Check the ledger against the server and shut it down.
    fn finish(mut self) -> io::Result<(Outcome, ServerReport)> {
        let server = stats(&mut self.rig.ctrl)?;
        for v in ledger_violations(&self.ledger, &server) {
            self.out.check(false, &v);
        }
        let report = self.rig.shutdown();
        Ok((self.out, report))
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn shown(v: &[f64]) -> String {
    let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", v.join(", "))
}

/// The untraced run: end-to-end metrics. Each of [`cycles`] cycles runs
/// [`WINDOWS_PER_CYCLE`] reference windows and one saturation burst, so
/// host interference falls on both in the same share.
pub fn measure(seed: u64, seconds: f64) -> io::Result<Outcome> {
    let (rig, mut setups) = set_up(SETUP_REPS)?;
    let mut s = Session::new(rig, seed);
    // Warm-up: connections, slab and queue shards reach steady state.
    s.phase(REF_RATE, 0.3, false)?;
    s.burst()?;
    let (mut per_cpu_s, mut per_wall_s) = (Vec::new(), Vec::new());
    let mut reference = Judged::default();
    for _ in 0..cycles(seconds) {
        for _ in 0..WINDOWS_PER_CYCLE {
            let (_, j) = s.reference(REF_WINDOW_SECONDS, false)?;
            reference.absorb(j);
        }
        let (cpu, wall) = s.burst()?;
        per_cpu_s.push(cpu);
        per_wall_s.push(wall);
    }
    let (deferred, collected) = crossbeam::epoch::gc_counters();
    let (mut out, report) = s.finish()?;
    let peak_mb = peak_rss_mb();
    // The server's resident set grows with every request it serves; these
    // counters show whether its queue's retired nodes are reclaimed.
    println!(
        "# serve-edf epoch garbage: {deferred} deferred, {collected} collected, over {} requests completed",
        report.completed
    );
    let j = &mut reference;
    let n = j.total_ns.len();
    let submitted = j.counts.submitted;
    let latency = ms(quantile(&mut j.total_ns, LATENCY_Q).expect("reference requests completed"));
    let p99 = tail(&mut j.total_ns, 0.99);
    println!(
        "# serve-edf at {REF_RATE} req/s: sojourn_p1_ms = {latency} (n = {n}), sojourn_p50_ms = {} (n = {n}), \
         sojourn_p99_ms = {} (q = {}, n = {n}), miss_rate = {} ({} of {submitted}), fail_rate = {} ({} of {submitted})",
        ms(median(&mut j.total_ns).unwrap_or(f64::NAN)),
        p99.map_or(f64::NAN, |t| ms(t.value)),
        p99.map_or(f64::NAN, |t| t.q),
        j.client_misses as f64 / submitted.max(1) as f64,
        j.client_misses,
        j.failed() as f64 / submitted.max(1) as f64,
        j.failed(),
    );
    let bursts = per_cpu_s.len();
    println!(
        "# serve-edf saturation bursts (n = {bursts}), requests per CPU-second: {}; per wall second: {}",
        shown(&per_cpu_s),
        shown(&per_wall_s)
    );
    let mut m = Metrics::end_to_end();
    m.set("latency_ms", latency, n);
    m.set(
        "rate_per_s",
        median(&mut per_cpu_s).expect("bursts made"),
        bursts,
    );
    m.set(
        "work_ratio",
        report.pool.total.pops as f64 / report.completed.max(1) as f64,
        report.completed as usize,
    );
    m.set(
        "setup_s",
        median(&mut setups).expect("set-ups made"),
        SETUP_REPS,
    );
    m.set("peak_rss_mb", peak_mb, 1);
    out.metrics = Some(m);
    Ok(out)
}

/// The traced run: per-layer metrics. Untraced and traced reference
/// windows alternate; the per-request split comes from the traced ones.
pub fn measure_traced(seed: u64, seconds: f64) -> io::Result<Outcome> {
    let (rig, _) = set_up(1)?;
    let mut s = Session::new(rig, seed);
    s.phase(REF_RATE, 0.3, false)?;
    let (mut plain_ns, mut busy) = (Vec::new(), Vec::new());
    let mut traced = Judged::default();
    let (mut codec_ns, mut frames) = (0u64, 0u64);
    let pairs = ((seconds / (2.0 * REF_WINDOW_SECONDS)).round() as usize).max(2);
    for _ in 0..pairs {
        let (_, mut j) = s.reference(REF_WINDOW_SECONDS, false)?;
        plain_ns.append(&mut j.total_ns);
        busy_permille(&mut s.rig.ctrl)?;
        let (p, j) = s.reference(REF_WINDOW_SECONDS, true)?;
        busy.push(busy_permille(&mut s.rig.ctrl)?);
        codec_ns += p.codec_ns;
        frames += p.frames;
        traced.absorb(j);
    }
    let (mut out, report) = s.finish()?;
    let j = &mut traced;
    let n = j.inject_ns.len();
    let p50 = |v: &mut Vec<f64>| median(v).unwrap_or(f64::NAN);
    let p99 = |v: &mut Vec<f64>| tail(v, 0.99).map_or(f64::NAN, |t| t.value);
    let us = |ns: f64| ns / 1e3;
    let pool = &report.pool.total;
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let mut m = Metrics::per_layer();
    m.set("serve.inject_us_p50", us(p50(&mut j.inject_ns)), n);
    m.set("serve.inject_us_p99", us(p99(&mut j.inject_ns)), n);
    m.set("serve.wait_us_p99", us(p99(&mut j.wait_ns)), n);
    m.set("serve.wire_us_p50", us(p50(&mut j.wire_ns)), n);
    m.set("serve.wire_us_p99", us(p99(&mut j.wire_ns)), n);
    m.set(
        "serve.busy_permille",
        median(&mut busy).expect("windows made"),
        busy.len(),
    );
    m.set(
        "serve.codec_ns_per_frame",
        ratio(codec_ns, frames),
        frames as usize,
    );
    m.set("client.gen_lag_ms_p99", ms(p99(&mut j.lag_ns)), n);
    m.set(
        "queues.pop_empty_ratio",
        ratio(pool.pop_misses, pool.pops + pool.pop_misses),
        1,
    );
    m.set(
        "queues.merge_ratio",
        ratio(pool.merged, pool.spawned + pool.merged),
        1,
    );
    m.set("queues.steal_ratio", ratio(pool.steals, pool.pops), 1);
    m.set("runtime.pop_misses", pool.pop_misses as f64, 1);
    m.set("runtime.executed", pool.executed as f64, 1);
    m.set("runtime.stale", pool.stale as f64, 1);
    m.set(
        "trace_overhead",
        quantile(&mut j.total_ns, LATENCY_Q).expect("traced requests completed")
            / quantile(&mut plain_ns, LATENCY_Q).expect("plain requests completed"),
        n,
    );
    m.zero_graph_layers();
    out.metrics = Some(m);
    Ok(out)
}
