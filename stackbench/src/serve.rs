//! The served stage: a `risc1 serve --tcp` child process driven over two
//! TCP connections (one per client) by two threads. Phase 1 is an open
//! loop with seeded Poisson arrivals; phase 2 a closed loop keeping
//! [`CLOSED_OUTSTANDING`] jobs per client in flight. Every result is
//! checked afterwards against an in-process rerun.

use crate::spans::Spans;
use crate::traffic::{Kind, Schedule, Submit, CLIENTS, CLOSED_OUTSTANDING, WARM_DENOM};
use crate::util::{median, ratio, Checks, Report};
use risc1_core::inject::InjectModes;
use risc1_core::json::{get, get_opt, Json, Parser};
use risc1_core::{InjectConfig, Program, SimConfig, Snapshot};
use risc1_ir::{compile_risc, interpret, run_risc_injected, run_risc_resumed, RiscOpts};
use risc1_serve::{wire, JobOutput};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Injection rate of every campaign (the wire default).
const RATE: u32 = 20;

/// Worker threads of the server under test.
const SERVER_THREADS: usize = 2;

/// Shortest gap between two poll rounds on one connection.
const POLL_GAP: Duration = Duration::from_millis(2);

/// Longest the generator naps when it has nothing to do.
const IDLE_NAP: Duration = Duration::from_micros(250);

/// Longest a phase may wait for its last results before they count as
/// timed out.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// A program the served traffic submits, with its interpreter result.
pub struct JobProg {
    pub id: &'static str,
    pub args: Vec<i32>,
    pub prog: Program,
    pub expect: i32,
}

/// Builds and compiles a served program (set-up); its oracle comes later.
pub fn compile_prog(id: &'static str, paper_scale: bool) -> JobProg {
    let w = risc1_workloads::by_id(id).unwrap_or_else(|| panic!("unknown workload {id}"));
    let args = if paper_scale { w.args } else { w.small_args };
    let prog = compile_risc(&w.module, RiscOpts::default()).unwrap_or_else(|e| panic!("{id}: {e}"));
    JobProg {
        id,
        args,
        prog,
        expect: 0,
    }
}

/// Fills in the interpreter's result (untimed: the benchmark's own check).
pub fn add_oracles(progs: &mut [JobProg]) {
    for p in progs {
        let w = risc1_workloads::by_id(p.id).expect("compiled from this id");
        p.expect = interpret(&w.module, &p.args)
            .unwrap_or_else(|e| panic!("{} interp: {e}", p.id))
            .value;
    }
}

fn inject(seed: u64) -> InjectConfig {
    InjectConfig {
        seed,
        rate: RATE,
        modes: InjectModes::transparent(),
    }
}

/// The request lines of a schedule, rendered in set-up, plus the JSON of
/// the warm-start snapshots they carry (keyed by program and point).
pub struct Rendered {
    pub open: Vec<Arc<str>>,
    pub closed: [Vec<Arc<str>>; 2],
    pub warm: HashMap<(usize, u32), Arc<str>>,
    /// One-seed lines for each seed of a repeat with several seeds, keyed
    /// by the repeat's index in [`Schedule::all`] order and the seed: what
    /// a client resends when a dedup ticket is lost (finding 6 in
    /// NOTES.md).
    pub single: HashMap<(usize, u64), Arc<str>>,
}

/// Builds every warm snapshot the schedule uses, then renders every
/// request line.
pub fn render(
    sched: &Schedule,
    short: &[JobProg],
    long: &[JobProg],
    spans: &Spans,
    parent: Option<usize>,
) -> Rendered {
    let cfg = SimConfig::default();
    let all: Vec<&Submit> = sched.all().collect();
    let mut warm = HashMap::new();
    let mut snaps = HashMap::new();
    let mut lengths: HashMap<usize, u64> = HashMap::new();
    for s in sched.all().filter(|s| s.kind == Kind::Warm) {
        let key = (s.prog, s.warm_at);
        if warm.contains_key(&key) {
            continue;
        }
        let p = &short[s.prog];
        let total = *lengths.entry(s.prog).or_insert_with(|| {
            risc1_ir::run_risc_with(&p.prog, &p.args, cfg.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", p.id))
                .1
                .instructions
        });
        let steps = total * u64::from(s.warm_at) / u64::from(WARM_DENOM);
        let snap = spans
            .span("ir.snapshot_risc_prefix", parent, 0, |_| {
                risc1_ir::snapshot_risc_prefix(&p.prog, &p.args, cfg.clone(), false, steps)
            })
            .unwrap_or_else(|e| panic!("{}: snapshot: {e}", p.id));
        let json: Arc<str> = spans
            .span("core.snapshot.to_json", parent, 0, |_| snap.to_json())
            .into();
        warm.insert(key, json);
        snaps.insert(key, snap);
    }
    let line_for = |s: &Submit, seeds: &[u64]| -> Arc<str> {
        let (client, weight) = CLIENTS[s.client];
        let mut text = match s.kind {
            Kind::Warm => {
                let p = &short[s.prog];
                wire::submit_request(
                    client,
                    weight,
                    &p.prog,
                    &p.args,
                    &cfg,
                    &[0],
                    false,
                    RATE,
                    "transparent",
                    false,
                    "direct",
                    None,
                    false,
                    Some(&snaps[&(s.prog, s.warm_at)]),
                )
            }
            _ => {
                let p = match campaign_kind(&all, s) {
                    Kind::Long => &long[s.prog],
                    _ => &short[s.prog],
                };
                wire::submit_request(
                    client,
                    weight,
                    &p.prog,
                    &p.args,
                    &cfg,
                    seeds,
                    true,
                    RATE,
                    "transparent",
                    true,
                    "direct",
                    None,
                    false,
                    None,
                )
            }
        };
        text.push('\n');
        text.into()
    };
    let line = |s: &Submit| line_for(s, &s.seeds);
    let single = all
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == Kind::Repeat && s.seeds.len() > 1)
        .flat_map(|(i, s)| s.seeds.iter().map(move |&seed| (i, s, seed)))
        .map(|(i, s, seed)| ((i, seed), line_for(s, &[seed])))
        .collect();
    Rendered {
        open: sched.open.iter().map(line).collect(),
        closed: [
            sched.closed[0].iter().map(line).collect(),
            sched.closed[1].iter().map(line).collect(),
        ],
        warm,
        single,
    }
}

/// The kind of campaign a submit runs: a repeat runs its original's.
/// `all` is the schedule in [`Schedule::all`] order.
pub fn campaign_kind(all: &[&Submit], s: &Submit) -> Kind {
    match s.repeat_of {
        Some(of) => all[of].kind,
        None => s.kind,
    }
}

/// The server child. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: String,
    dir: PathBuf,
}

impl Server {
    /// Starts `risc1 serve --tcp 127.0.0.1:0` through the same entry point
    /// as the `risc1` binary, with its WAL and artifacts under `dir`.
    pub fn start(dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = dir.join("server.log");
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("risc1")
            .args(["serve", "--tcp", "127.0.0.1:0", "--threads"])
            .arg(SERVER_THREADS.to_string())
            .arg("--wal-dir")
            .arg(dir.join("wal"))
            .arg("--artifact-dir")
            .arg(dir.join("artifacts"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
            dir: dir.to_owned(),
        };
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            // Only a whole line: the log may be read mid-write.
            if let Some(addr) = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix("serving on "))
            {
                server.addr = addr.trim().to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited at start ({status}): {text}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("server did not announce its address".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn wal_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join("wal").join(risc1_serve::wal::WAL_FILE))
            .map_or(0, |m| m.len())
    }

    /// Asks the server to shut down and waits for it; kills it if it has
    /// not exited within a few seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = TcpStream::connect(&self.addr)
            .and_then(|mut s| s.write_all(b"{\"op\":\"shutdown\"}\n").map(|()| s))
            .and_then(|mut s| {
                let mut buf = [0u8; 256];
                s.set_read_timeout(Some(Duration::from_secs(5)))?;
                s.read(&mut buf)
            });
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (a, _) => Err(format!("server shutdown: {a:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server did not exit after shutdown".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One job as a client saw it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of its submit in [`Schedule::all`] order.
    pub submit: usize,
    pub seed: u64,
    pub id: Option<u64>,
    pub dedup: bool,
    /// Seconds after the phase started when it was due (open loop) or
    /// sent (closed loop).
    pub start: f64,
    /// Seconds after the phase started when its result arrived.
    pub done: Option<f64>,
    /// The `result` object of the poll response.
    pub result: Option<Json>,
    pub error: Option<String>,
}

enum Pending {
    /// A submit and the indices of its jobs in the log.
    Submit(usize, std::ops::Range<usize>),
    /// A one-job submit resent for the job at this index in the log.
    Resubmit(usize),
    Poll(usize),
    Status,
}

/// What one client connection recorded in one phase.
#[derive(Default)]
pub struct ClientLog {
    pub jobs: Vec<Job>,
    /// How late each open-loop submit left, in seconds.
    pub late: Vec<f64>,
    /// Submits sent.
    pub sent: usize,
    /// `(queued, running)` from `status` samples.
    pub status: Vec<(f64, f64)>,
    /// Dedup tickets whose job the service evicted before the poll
    /// (`unknown-job`); each job was submitted again.
    pub lost_tickets: usize,
}

/// A client connection. The socket is non-blocking: the generator never
/// waits on the server, and its own sleeps (not socket timeouts, which
/// the kernel rounds to its tick) set when it next looks at the clock.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        })
    }

    fn send(&mut self, text: &str) {
        self.wbuf.extend_from_slice(text.as_bytes());
    }

    /// Writes what the socket takes, reads what has arrived, and returns
    /// the complete response lines.
    fn pump(&mut self) -> Result<Vec<String>, String> {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err("server stopped reading".to_owned()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == WouldBlock => break,
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == WouldBlock => break,
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line[..pos]).into_owned());
        }
        Ok(lines)
    }

    /// One request and its response (nothing else may be in flight).
    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line);
        let t0 = Instant::now();
        loop {
            if let Some(l) = self.pump()?.into_iter().next() {
                return Ok(l);
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("no response within 30 s".to_owned());
            }
            std::thread::sleep(IDLE_NAP);
        }
    }
}

/// A submit response's ticket: the job id and whether it was deduplicated.
fn ticket(t: &Json) -> Result<(Option<u64>, bool), String> {
    let t = t.as_obj("ticket").map_err(|e| e.to_string())?;
    let id = get(t, "id")
        .and_then(|x| x.as_u64("id"))
        .map_err(|e| e.to_string())?;
    let dedup = get(t, "dedup")
        .and_then(|x| x.as_bool("dedup"))
        .map_err(|e| e.to_string())?;
    Ok((Some(id), dedup))
}

fn parse(line: &str) -> Result<Json, String> {
    Parser::new(line)
        .parse_document()
        .map_err(|e| format!("{e}: {line}"))
}

/// Phase parameters for one client.
pub struct Phase<'a> {
    /// `(index in Schedule::all order, submit, request line)`.
    pub submits: Vec<(usize, &'a Submit, Arc<str>)>,
    /// Open loop (send at `due`) or closed loop (keep jobs in flight until
    /// `closed_for` has passed).
    pub closed_for: Option<Duration>,
    /// Sample `status` this often (traced runs only).
    pub status_every: Option<Duration>,
    /// [`Rendered::single`].
    pub single: &'a HashMap<(usize, u64), Arc<str>>,
}

/// Drives one client connection through one phase.
pub fn drive(
    conn: &mut Conn,
    phase: &Phase,
    t0: Instant,
    spans: &Spans,
    parent: Option<usize>,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut pending: VecDeque<(Pending, u64)> = VecDeque::new();
    let mut next = 0usize;
    let mut polls_in_flight = 0usize;
    let mut last_round = f64::NEG_INFINITY;
    let mut last_status = 0.0;
    let mut in_flight = 0usize;
    // Ticketed jobs still without a result: the next poll round's ids.
    let mut waiting: Vec<usize> = Vec::new();
    // Where each submit sits in the phase, by its index in the schedule.
    let positions: HashMap<usize, usize> = phase
        .submits
        .iter()
        .enumerate()
        .map(|(pos, (idx, ..))| (*idx, pos))
        .collect();
    let end = phase.closed_for.map(|d| d.as_secs_f64());
    loop {
        let now = t0.elapsed().as_secs_f64();
        let mut out = String::new();
        // Submits: due ones (open loop), or while there is room (closed).
        while let Some(&(idx, s, ref line)) = phase.submits.get(next) {
            let send = match end {
                None => s.due <= now,
                Some(end) => now < end && in_flight + s.jobs() <= CLOSED_OUTSTANDING,
            };
            if !send {
                break;
            }
            let start = if end.is_none() { s.due } else { now };
            if end.is_none() {
                log.late.push(now - start);
            }
            let first = log.jobs.len();
            for k in 0..s.jobs() {
                log.jobs.push(Job {
                    submit: idx,
                    seed: s.seeds.get(k).copied().unwrap_or(0),
                    id: None,
                    dedup: false,
                    start,
                    done: None,
                    result: None,
                    error: None,
                });
            }
            in_flight += s.jobs();
            out.push_str(line);
            pending.push_back((Pending::Submit(next, first..log.jobs.len()), spans.at()));
            next += 1;
            log.sent = next;
        }
        if let Some(every) = phase.status_every {
            if end.is_none()
                && now - last_status >= every.as_secs_f64()
                && next < phase.submits.len()
            {
                out.push_str("{\"op\":\"status\"}\n");
                pending.push_back((Pending::Status, spans.at()));
                last_status = now;
            }
        }
        // A poll round for every ticketed job without a result.
        if polls_in_flight == 0 && now - last_round >= POLL_GAP.as_secs_f64() {
            for &j in &waiting {
                let id = log.jobs[j].id.expect("waiting jobs are ticketed");
                out.push_str(&format!("{{\"op\":\"poll\",\"id\":{id}}}\n"));
                pending.push_back((Pending::Poll(j), spans.at()));
                polls_in_flight += 1;
            }
            last_round = now;
        }
        conn.send(&out);
        let finished = next == phase.submits.len() || end.is_some_and(|e| now >= e);
        if finished && in_flight == 0 && pending.is_empty() {
            return Ok(log);
        }
        let drain_end = end.unwrap_or_else(|| phase.submits.last().map_or(0.0, |s| s.1.due));
        if now > drain_end + DRAIN_LIMIT.as_secs_f64() {
            for job in log
                .jobs
                .iter_mut()
                .filter(|j| j.done.is_none() && j.error.is_none())
            {
                job.error = Some("no result before the drain limit".to_owned());
            }
            return Ok(log);
        }
        let lines = conn.pump()?;
        if lines.is_empty() && out.is_empty() {
            let until_due = match (end, phase.submits.get(next)) {
                (None, Some(&(_, s, _))) => s.due - t0.elapsed().as_secs_f64(),
                _ => 1.0,
            };
            std::thread::sleep(Duration::from_secs_f64(
                until_due.clamp(0.0, IDLE_NAP.as_secs_f64()),
            ));
        }
        for line in lines {
            let now = t0.elapsed().as_secs_f64();
            let (what, sent) = pending
                .pop_front()
                .ok_or_else(|| format!("unexpected response: {line}"))?;
            let v = parse(&line)?;
            let obj = v.as_obj("response").map_err(|e| e.to_string())?;
            let ok = get(obj, "ok")
                .and_then(|o| o.as_bool("ok"))
                .map_err(|e| e.to_string())?;
            match what {
                Pending::Submit(k, mine) => {
                    spans.record("serve.tcp.submit", parent, k as u64, sent, spans.at());
                    if !ok {
                        for j in mine {
                            log.jobs[j].error = Some(format!("submit refused: {line}"));
                            in_flight -= 1;
                        }
                        continue;
                    }
                    let tickets = get(obj, "jobs")
                        .and_then(|t| t.as_arr("jobs"))
                        .map_err(|e| e.to_string())?;
                    if tickets.len() != mine.len() {
                        return Err(format!("{} tickets for {} jobs", tickets.len(), mine.len()));
                    }
                    for (t, j) in tickets.iter().zip(mine) {
                        (log.jobs[j].id, log.jobs[j].dedup) = ticket(t)?;
                        waiting.push(j);
                    }
                }
                Pending::Resubmit(j) => {
                    spans.record("serve.tcp.submit", parent, j as u64, sent, spans.at());
                    let job = &mut log.jobs[j];
                    if !ok {
                        job.error = Some(format!("submit refused: {line}"));
                        in_flight -= 1;
                        continue;
                    }
                    let tickets = get(obj, "jobs")
                        .and_then(|t| t.as_arr("jobs"))
                        .map_err(|e| e.to_string())?;
                    let [t] = tickets else {
                        return Err(format!("{} tickets for one job", tickets.len()));
                    };
                    (job.id, job.dedup) = ticket(t)?;
                    waiting.push(j);
                }
                Pending::Poll(j) => {
                    polls_in_flight -= 1;
                    let job = &mut log.jobs[j];
                    spans.record(
                        "serve.tcp.poll",
                        parent,
                        job.id.unwrap_or(0),
                        sent,
                        spans.at(),
                    );
                    let lost = get(obj, "error").and_then(|e| e.as_str("error")).ok()
                        == Some("unknown-job");
                    if !ok && lost && job.dedup {
                        // The service evicted the job its dedup ticket
                        // named (finding 6 in NOTES.md): submit the job
                        // again, as a client of a bounded result cache
                        // must, and count the loss.
                        let pos = positions[&job.submit];
                        let again = if phase.submits[pos].1.jobs() == 1 {
                            phase.submits[pos].2.clone()
                        } else {
                            phase.single[&(job.submit, job.seed)].clone()
                        };
                        log.lost_tickets += 1;
                        waiting.retain(|&w| w != j);
                        conn.send(&again);
                        pending.push_back((Pending::Resubmit(j), spans.at()));
                        continue;
                    }
                    if !ok {
                        job.error = Some(format!("poll failed: {line}"));
                        in_flight -= 1;
                        waiting.retain(|&w| w != j);
                        continue;
                    }
                    let state = get(obj, "state")
                        .and_then(|s| s.as_str("state"))
                        .map_err(|e| e.to_string())?;
                    if state == "done" {
                        job.done = Some(now);
                        job.result = get_opt(obj, "result").cloned();
                        in_flight -= 1;
                        waiting.retain(|&w| w != j);
                    }
                }
                Pending::Status => {
                    spans.record("serve.tcp.status", parent, 0, sent, spans.at());
                    let queued = get(obj, "queued")
                        .and_then(|x| x.as_u64("queued"))
                        .map_err(|e| e.to_string())?;
                    let running = get(obj, "running")
                        .and_then(|x| x.as_u64("running"))
                        .map_err(|e| e.to_string())?;
                    log.status.push((queued as f64, running as f64));
                }
            }
        }
    }
}

/// The in-process rerun of one distinct job: its digest, its result and
/// the host seconds and instructions it took.
#[derive(Debug, Clone)]
pub struct Rerun {
    pub digest: String,
    pub result: Option<i32>,
    pub secs: f64,
    pub instructions: u64,
    pub output: Arc<JobOutput>,
}

/// What identifies a distinct job for the rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RerunKey {
    Campaign { long: bool, prog: usize, seed: u64 },
    Warm { prog: usize, at: u32 },
}

pub fn rerun_key(all: &[&Submit], job: &Job) -> RerunKey {
    let s = all[job.submit];
    match campaign_kind(all, s) {
        Kind::Warm => RerunKey::Warm {
            prog: s.prog,
            at: s.warm_at,
        },
        kind => RerunKey::Campaign {
            long: kind == Kind::Long,
            prog: s.prog,
            seed: job.seed,
        },
    }
}

/// Reruns one distinct job in process, the way the server runs it.
pub fn rerun(
    key: RerunKey,
    short: &[JobProg],
    long: &[JobProg],
    warm: &HashMap<(usize, u32), Arc<str>>,
    spans: &Spans,
    parent: Option<usize>,
) -> Rerun {
    let t = Instant::now();
    let report = match key {
        RerunKey::Campaign {
            long: l,
            prog,
            seed,
        } => {
            let p = if l { &long[prog] } else { &short[prog] };
            spans
                .span("core.run_risc_injected", parent, seed, |_| {
                    run_risc_injected(&p.prog, &p.args, SimConfig::default(), inject(seed), true)
                })
                .unwrap_or_else(|e| panic!("{}: rerun setup: {e}", p.id))
        }
        RerunKey::Warm { prog, at } => {
            let json = &warm[&(prog, at)];
            let snap = spans
                .span("core.snapshot.from_json", parent, 0, |_| {
                    Snapshot::from_json(json)
                })
                .expect("a snapshot built in set-up parses");
            spans
                .span("ir.run_risc_resumed", parent, 0, |_| {
                    run_risc_resumed(&snap, None)
                })
                .expect("a snapshot built in set-up restores")
                .finished()
                .expect("no deadline was set")
        }
    };
    let secs = t.elapsed().as_secs_f64();
    let result = match report.outcome {
        risc1_ir::InjectOutcome::Halted { result } => Some(result),
        risc1_ir::InjectOutcome::Faulted { .. } => None,
    };
    let instructions = report.stats.instructions;
    let output = JobOutput::Finished(report);
    Rerun {
        digest: format!("{:016x}", output.digest()),
        result,
        secs,
        instructions,
        output: Arc::new(output),
    }
}

/// Checks a served result against its rerun and the interpreter. A
/// refused submit, a failed poll (such as an `unknown-job` answer), a
/// result that never came or a job that did not finish is a failed
/// operation; a finished job with another digest or value is a wrong
/// output.
pub fn check_job(job: &Job, want: &Rerun, expect: i32, checks: &mut Checks) {
    checks.attempted += 1;
    if let Some(e) = &job.error {
        checks.failed.push(format!("job {:?}: {e}", job.id));
        return;
    }
    let Some(result) = &job.result else {
        checks
            .wrong
            .push(format!("job {:?}: done without a result", job.id));
        return;
    };
    let obj = match result.as_obj("result") {
        Ok(o) => o,
        Err(e) => {
            checks.wrong.push(format!("job {:?}: {e}", job.id));
            return;
        }
    };
    let field = |k: &str| get(obj, k).ok();
    let kind = field("kind").and_then(|v| v.as_str("kind").ok());
    let digest = field("digest").and_then(|v| v.as_str("digest").ok());
    let value = field("result").and_then(|v| v.as_i32("result").ok());
    if kind != Some("finished") {
        checks
            .failed
            .push(format!("job {:?} ended as {kind:?}", job.id));
    } else if digest != Some(want.digest.as_str()) {
        checks.wrong.push(format!(
            "job {:?}: digest {digest:?}, in-process rerun {}",
            job.id, want.digest
        ));
    } else if value != Some(expect) || want.result != Some(expect) {
        checks.wrong.push(format!(
            "job {:?}: result {value:?}, interpreter says {expect}",
            job.id
        ));
    }
}

/// Queue depth and worker occupancy from `status` samples.
pub fn occupancy(report: &mut Report, samples: &[(f64, f64)]) {
    let depth: Vec<f64> = samples.iter().map(|s| s.0).collect();
    // `running` counts every job of the claimed batch; at most
    // `SERVER_THREADS` of them execute at once.
    let busy: Vec<f64> = samples
        .iter()
        .map(|s| s.1.min(SERVER_THREADS as f64) / SERVER_THREADS as f64)
        .collect();
    report.put("serve.queue.depth_mean", crate::util::mean(&depth), "jobs");
    report.put("serve.workers.busy_frac", crate::util::mean(&busy), "frac");
}

/// Median idle `status` round trip on a client connection, before any
/// load is sent.
pub fn idle_rtt_ms(
    conn: &mut Conn,
    n: usize,
    spans: &Spans,
    parent: Option<usize>,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let line = spans.span("serve.tcp.status", parent, 0, |_| {
            conn.round_trip("{\"op\":\"status\"}\n")
        })?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        parse(&line)?;
    }
    Ok(median(&ms))
}

/// Share of tickets served from the in-flight map or the result cache.
pub fn dedup_frac(jobs: &[&Job]) -> f64 {
    let ticketed = jobs.iter().filter(|j| j.id.is_some()).count();
    ratio(
        jobs.iter().filter(|j| j.dedup).count() as f64,
        ticketed as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_seed_of_a_repeat_with_several_has_a_one_seed_line() {
        let short: Vec<JobProg> = ["sieve", "fib"]
            .iter()
            .map(|id| compile_prog(id, false))
            .collect();
        let long = vec![compile_prog("acker", true)];
        let sched = crate::traffic::schedule(7, short.len(), long.len(), 200, 10.0, 400);
        let rendered = render(&sched, &short, &long, &Spans::new(false), None);
        let all: Vec<&Submit> = sched.all().collect();
        let mut lines = 0;
        for (i, s) in all.iter().enumerate() {
            if s.kind != Kind::Repeat || s.seeds.len() < 2 {
                continue;
            }
            for seed in &s.seeds {
                let line = &rendered.single[&(i, *seed)];
                assert!(line.contains(&format!("\"seeds\":[{seed}]")), "{line}");
                lines += 1;
            }
        }
        assert_eq!(rendered.single.len(), lines);
        assert!(lines > 0, "the schedule has repeats with several seeds");
    }
}
