//! `stackbench`: one benchmark for the whole risc1 stack.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload run-loops|run-calls|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload pushes one program class through every layer: timed
//! passes on the default engine (the `risc1 run` path), then a served
//! phase against a `risc1 serve --tcp` child (an open loop, then a closed
//! loop). `--trace 1` is the separate traced run: spans around every call
//! into a layer, an engine-tier sweep and layer probes, reported as the
//! per-layer metrics. See NOTES.md for the design and its findings.

mod calib;
mod engine;
mod layers;
mod serve;
mod spans;
mod traffic;
mod util;

use engine::{EngineProg, Pinned, CALLS, LOOPS, SUITE};
use serve::{Conn, Job, JobProg, Phase, Rerun, RerunKey, Server};
use spans::Spans;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use traffic::Kind;
use util::{median, percentile, ratio, Checks, Report, Rng};

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "run_mips",
    "sim_cycles",
    "peak_rss_mib",
    "serve_short_p50_ms",
    "serve_jobs_s",
    "ok_frac",
];

/// The per-layer metrics, printed by every traced run.
const PER_LAYER: [&str; 38] = [
    "ir.compile_ms",
    "ir.delay_slot_nop_frac",
    "core.uncached.mips",
    "core.cached.mips",
    "core.superblock.mips",
    "core.trace.mips",
    "core.superblock.block_len",
    "core.superblock.fused_frac",
    "core.trace.coverage",
    "core.trace.builds",
    "core.trace.side_exit_frac",
    "core.windows.spills_per_kinsn",
    "core.windows.fills_per_kinsn",
    "core.trap_cycle_frac",
    "core.cpi",
    "core.snapshot.capture_ms",
    "core.snapshot.restore_ms",
    "core.snapshot.json_encode_ms",
    "core.snapshot.json_decode_ms",
    "core.snapshot.json_kib",
    "core.inject.mips",
    "serve.wire.parse_us",
    "serve.wire.parse_snapshot_us",
    "serve.wire.render_us",
    "serve.wire.request_kib",
    "serve.tcp.rtt_ms",
    "serve.queue.wait_ms_p50",
    "serve.queue.wait_ms_p99",
    "serve.queue.depth_mean",
    "serve.workers.busy_frac",
    "serve.cache.dedup_hit_frac",
    "serve.cache.lost_tickets",
    "serve.wal.admit_us",
    "serve.wal.done_us",
    "serve.wal.bytes_per_job",
    "ir.shard.plan_ms",
    "ir.shard.exec_ms",
    "ir.shard.vs_trace",
];

/// One workload: a program class pushed through every layer.
struct Workload {
    name: &'static str,
    /// Programs of the timed engine passes.
    engine_set: &'static [Pinned],
    /// Share of `--seconds` spent in engine passes; the rest is served.
    engine_share: f64,
    /// Share of `--seconds` in the open loop; the closed loop gets the rest.
    open_share: f64,
    /// Peak RSS of the server (serve-mix) rather than of this process.
    rss_of_server: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "run-loops",
        engine_set: &LOOPS,
        engine_share: 0.2,
        open_share: 0.24,
        rss_of_server: false,
    },
    Workload {
        name: "run-calls",
        engine_set: &CALLS,
        engine_share: 0.2,
        open_share: 0.24,
        rss_of_server: false,
    },
    Workload {
        name: "serve-mix",
        engine_set: &SUITE,
        engine_share: 0.12,
        open_share: 0.24,
        rss_of_server: true,
    },
];

/// Programs of the served traffic, the same in every workload: short
/// campaigns and warm starts run the whole suite at `small_args`, long
/// jobs these two at paper-scale `args`.
const SERVED_SHORT: [&str; 11] = [
    "e_string_search",
    "f_bit_test",
    "h_linked_list",
    "sieve",
    "bubble",
    "qsort",
    "intmm",
    "puzzle",
    "acker",
    "fib",
    "hanoi",
];
const SERVED_LONG: [&str; 2] = ["e_string_search", "acker"];

/// Open-loop submits per second: a constant, set at about 40% of
/// serve-mix's closed-loop jobs/s on the commit that introduced the
/// benchmark.
const OPEN_RATE: f64 = 22.0;

/// Slices the engine passes are spread over.
const ENGINE_SLICES: usize = 3;

/// Idle `status` round trips behind `serve.tcp.rtt_ms`.
const RTT_PROBES: usize = 20;

/// The open loop's generator may send a submit at most this late (at the
/// highest of p99 and p90 that has ten samples beyond it) before the run
/// is rejected as invalid.
const LATE_BOUND_MS: f64 = 50.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == v)
                        .ok_or(format!("unknown workload {v}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The served stage re-runs this binary as the server child: exactly
    // the `risc1` binary's entry point.
    if argv.first().map(String::as_str) == Some("risc1") {
        match risc1_cli::dispatch(&argv[1..]) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", util::host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(outcome) => {
            let checks = &outcome.checks;
            for e in checks.wrong.iter().take(20) {
                println!("WRONG {e}");
            }
            for e in checks.failed.iter().take(20) {
                println!("FAILED {e}");
            }
            print!("{}", outcome.text);
            // A wrong output outranks an invalid run: it is reported (and
            // fails the run) whatever else went wrong.
            let correct = checks.wrong.is_empty();
            if correct && !outcome.invalid.is_empty() {
                eprintln!("stackbench: invalid run: {}", outcome.invalid.join("; "));
                std::process::exit(3);
            }
            println!(
                "{}",
                util::result_json(
                    correct,
                    checks.attempted,
                    checks.failures(),
                    &outcome.metrics
                )
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("stackbench: invalid run: {e}");
            std::process::exit(3);
        }
    }
}

struct Outcome {
    checks: Checks,
    /// Why the run cannot be trusted (empty for a valid run).
    invalid: Vec<String>,
    text: String,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Where the run keeps its scratch files and span dumps: under the cargo
/// target directory of the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("stackbench")
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spans = Spans::new(args.trace);
    let work = out_dir().join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = spans.span("workload", None, 0, |root| {
        run_stages(args, &spans, root, &work)
    });
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = result?;
    if args.trace {
        let all_spans = spans.take();
        let dump = out_dir().join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name, args.seed
        ));
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&dump, spans::to_tsv(&all_spans))
            .map_err(|e| format!("{}: {e}", dump.display()))?;
        outcome.text.push_str(&format!(
            "spans {} written to {}\n",
            all_spans.len(),
            dump.display()
        ));
        for (name, u) in spans::usage_by_name(&all_spans) {
            outcome.text.push_str(&format!(
                "span {name} calls={} total_ms={:.3} self_ms={:.3}\n",
                u.calls,
                u.total * 1e3,
                u.self_time * 1e3
            ));
        }
    }
    Ok(outcome)
}

/// How a run sizes its served phases.
struct Sizes {
    open_secs: f64,
    open_n: usize,
    /// Closed-loop submits rendered per client.
    closed_cap: usize,
}

/// What the serve part of a set-up builds.
struct Served {
    short: Vec<JobProg>,
    long: Vec<JobProg>,
    sched: traffic::Schedule,
    rendered: serve::Rendered,
    server: Server,
}

/// The engine part of a set-up: build and compile the engine set.
/// Returns it with the part's seconds and its `compile_risc` seconds.
fn set_up_engine(
    w: &Workload,
    spans: &Spans,
    root: Option<usize>,
    times: &mut Vec<(&'static str, f64)>,
) -> (Vec<engine::Compiled>, f64, f64) {
    let t = Instant::now();
    let (set, compile) = stage(times, spans, "stage.setup.engine", root, |id| {
        engine::compile_set(w.engine_set, spans, id)
    });
    (set, t.elapsed().as_secs_f64(), compile)
}

/// The serve part of a set-up: compile the served programs, build the
/// seeded schedule, its warm-start snapshots and every request line, and
/// start the server with its files under `dir`. Returns what it built
/// with the part's seconds and its compile seconds.
fn set_up_serve(
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    spans: &Spans,
    root: Option<usize>,
    times: &mut Vec<(&'static str, f64)>,
) -> Result<(Served, f64, f64), String> {
    let t = Instant::now();
    let (served, compile) = stage(times, spans, "stage.setup.serve", root, |id| {
        let tc = Instant::now();
        let short: Vec<JobProg> = SERVED_SHORT
            .iter()
            .map(|id| serve::compile_prog(id, false))
            .collect();
        let long: Vec<JobProg> = SERVED_LONG
            .iter()
            .map(|id| serve::compile_prog(id, true))
            .collect();
        let compile = tc.elapsed().as_secs_f64();
        let sched = traffic::schedule(
            seed,
            short.len(),
            long.len(),
            sizes.open_n,
            sizes.open_secs,
            sizes.closed_cap,
        );
        let rendered = serve::render(&sched, &short, &long, spans, id);
        let server = Server::start(dir)?;
        let served = Served {
            short,
            long,
            sched,
            rendered,
            server,
        };
        Ok::<_, String>((served, compile))
    })?;
    Ok((served, t.elapsed().as_secs_f64(), compile))
}

fn run_stages(
    args: &Args,
    spans: &Spans,
    root: Option<usize>,
    work: &Path,
) -> Result<Outcome, String> {
    let w = args.workload;
    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut invalid: Vec<String> = Vec::new();
    let mut rng = Rng::new(args.seed);
    let mut stage_times: Vec<(&'static str, f64)> = Vec::new();
    let serve_secs = args.seconds * (1.0 - w.engine_share);
    let open_secs = args.seconds * w.open_share;
    let closed_secs = serve_secs - open_secs;
    let sizes = Sizes {
        open_secs,
        open_n: (OPEN_RATE * open_secs).round() as usize,
        // Twice the capacity the open-loop rate stands at 40% of (the
        // weight-3 client takes most of it, and the host runs up to 1.5x
        // faster at times), plus slack.
        closed_cap: (2.0 * closed_secs * OPEN_RATE / 0.4) as usize + 64,
    };
    // Engine passes on the default engine, in slices spread over the run:
    // before the served phase, between its loops and after them. The
    // engine part of set-up comes first, so the peak RSS of run-* is that
    // of the engine passes alone.
    let (compiled, engine_setup, engine_compile) = set_up_engine(w, spans, root, &mut stage_times);
    let set: Vec<EngineProg> = engine::with_oracle(compiled);
    let slice = Duration::from_secs_f64(args.seconds * w.engine_share / ENGINE_SLICES as f64);
    let mut passes = engine::Passes::new();
    stage(&mut stage_times, spans, "stage.engine", root, |id| {
        passes.slice(&set, slice, &mut rng, spans, id)
    });
    let bench_rss = util::peak_rss_mib(std::process::id())?;
    let (served, serve_setup, serve_compile) = set_up_serve(
        args.seed,
        &sizes,
        &work.join("setup0"),
        spans,
        root,
        &mut stage_times,
    )?;
    let Served {
        mut short,
        mut long,
        sched,
        rendered,
        server,
    } = served;
    serve::add_oracles(&mut short);
    serve::add_oracles(&mut long);
    // `setup_s` is the median of five set-ups spread over the run, as the
    // engine slices are: the first is used, the other four are timed,
    // their servers stopped and their products dropped.
    let mut setup_secs = vec![engine_setup + serve_setup];
    let mut compile_secs = vec![engine_compile + serve_compile];
    let mut set_up_again = |i: usize, times: &mut Vec<(&'static str, f64)>| {
        let (_, e, ec) = set_up_engine(w, spans, root, times);
        let (served, s, sc) = set_up_serve(
            args.seed,
            &sizes,
            &work.join(format!("setup{i}")),
            spans,
            root,
            times,
        )?;
        drop(served);
        setup_secs.push(e + s);
        compile_secs.push(ec + sc);
        Ok::<_, String>(())
    };

    // Served phases.
    let all: Vec<&traffic::Submit> = sched.all().collect();
    let mut conns = [Conn::open(&server.addr)?, Conn::open(&server.addr)?];
    let rtt_ms = if args.trace {
        Some(serve::idle_rtt_ms(&mut conns[0], RTT_PROBES, spans, root)?)
    } else {
        None
    };
    let open_phases: Vec<Phase> = (0..2)
        .map(|c| Phase {
            submits: sched
                .open
                .iter()
                .enumerate()
                .filter(|(_, s)| s.client == c)
                .map(|(i, s)| (i, s, rendered.open[i].clone()))
                .collect(),
            closed_for: None,
            status_every: (args.trace && c == 0).then_some(Duration::from_millis(100)),
            single: &rendered.single,
        })
        .collect();
    let open_logs = stage(&mut stage_times, spans, "stage.serve.open", root, |id| {
        run_phase(&mut conns, &open_phases, spans, id)
    })?;
    set_up_again(1, &mut stage_times)?;
    stage(&mut stage_times, spans, "stage.engine", root, |id| {
        passes.slice(&set, slice, &mut rng, spans, id)
    });
    let base = sched.open.len();
    let closed_phases: Vec<Phase> = (0..2)
        .map(|c| Phase {
            submits: sched.closed[c]
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let idx = base + if c == 0 { 0 } else { sched.closed[0].len() } + i;
                    (idx, s, rendered.closed[c][i].clone())
                })
                .collect(),
            closed_for: Some(Duration::from_secs_f64(closed_secs)),
            status_every: None,
            single: &rendered.single,
        })
        .collect();
    let probe = calib::Probe::start(Instant::now());
    let closed_logs = stage(&mut stage_times, spans, "stage.serve.closed", root, |id| {
        run_phase(&mut conns, &closed_phases, spans, id)
    });
    let host_closed = probe.finish();
    let closed_logs = closed_logs?;
    set_up_again(2, &mut stage_times)?;
    stage(&mut stage_times, spans, "stage.engine", root, |id| {
        passes.slice(&set, slice, &mut rng, spans, id)
    });
    let server_rss = util::peak_rss_mib(server.pid())?;
    let wal_bytes = server.wal_bytes();
    drop(conns);
    server.stop()?;

    // Generator validity: how late the open loop sent its submits.
    let late_ms: Vec<f64> = open_logs
        .iter()
        .flat_map(|l| l.late.iter().map(|s| s * 1e3))
        .collect();
    let late_max = late_ms.iter().copied().fold(0.0, f64::max);
    let late_p50 = percentile(&late_ms, 0.5).unwrap_or(late_max);
    let (tail, late_tail) = [(99, 0.99), (90, 0.9)]
        .into_iter()
        .find_map(|(name, p)| Some((name, percentile(&late_ms, p)?)))
        .unwrap_or((100, late_max));
    let mut text = format!(
        "generator late_p50_ms={late_p50:.3} late_p{tail}_ms={late_tail:.3} late_max_ms={late_max:.3} submits={} (bound {LATE_BOUND_MS} ms)\n",
        late_ms.len()
    );
    if late_tail > LATE_BOUND_MS {
        invalid.push(format!(
            "open-loop generator ran late: p{tail} {late_tail:.1} ms > {LATE_BOUND_MS} ms"
        ));
    }
    for (c, l) in closed_logs.iter().enumerate() {
        if l.sent >= sched.closed[c].len() {
            invalid.push(format!("client {c}'s closed-loop stream ran dry"));
        }
    }

    // Correctness: rerun every distinct served job in process.
    let open_jobs: Vec<&Job> = open_logs.iter().flat_map(|l| &l.jobs).collect();
    let closed_jobs: Vec<&Job> = closed_logs.iter().flat_map(|l| &l.jobs).collect();
    let keys: Vec<RerunKey> = open_jobs
        .iter()
        .chain(&closed_jobs)
        .map(|j| serve::rerun_key(&all, j))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let reruns: HashMap<RerunKey, Rerun> =
        stage(&mut stage_times, spans, "stage.verify", root, |id| {
            std::thread::scope(|s| {
                // Alternate keys between the threads so both get long jobs.
                let halves: Vec<_> = [0, 1]
                    .into_iter()
                    .map(|h| keys.iter().skip(h).step_by(2).copied().collect::<Vec<_>>())
                    .map(|chunk| {
                        let (short, long, warm, spans) = (&short, &long, &rendered.warm, spans);
                        s.spawn(move || {
                            chunk
                                .into_iter()
                                .map(|k| (k, serve::rerun(k, short, long, warm, spans, id)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                halves
                    .into_iter()
                    .flat_map(|h| h.join().expect("rerun thread"))
                    .collect()
            })
        });
    set_up_again(3, &mut stage_times)?;
    set_up_again(4, &mut stage_times)?;
    report.timing("setup_s", median(&setup_secs), "s", setup_secs.len());
    let engine_line = passes.describe();
    checks.merge(passes.finish(&mut report));
    for job in open_jobs.iter().chain(&closed_jobs) {
        let key = serve::rerun_key(&all, job);
        let expect = match key {
            RerunKey::Campaign {
                long: true, prog, ..
            } => long[prog].expect,
            RerunKey::Campaign { prog, .. } | RerunKey::Warm { prog, .. } => short[prog].expect,
        };
        serve::check_job(job, &reruns[&key], expect, &mut checks);
    }

    // Latency of the open loop, throughput of the closed loop.
    let lat = |want: Kind| -> Vec<f64> {
        open_jobs
            .iter()
            .filter(|j| {
                serve::campaign_kind(&all, all[j.submit]) == want
                    && all[j.submit].kind != Kind::Repeat
            })
            .filter_map(|j| j.done.map(|d| (d - j.start) * 1e3))
            .collect()
    };
    // Only the short p50 is gated; the tails and the long-job latency are
    // printed (NOTES.md says why). A latency without ten samples beyond
    // its percentile is not reported, and a gated one missing makes the
    // run invalid.
    for (name, p, kind) in [
        ("serve_short_p50_ms", 0.5, Kind::Short),
        ("serve_short_p99_ms", 0.99, Kind::Short),
        ("serve_long_p50_ms", 0.5, Kind::Long),
        ("serve_long_p90_ms", 0.9, Kind::Long),
    ] {
        let ms = lat(kind);
        match util::hd_quantile(&ms, p) {
            Some(v) => report.timing(name, v, "ms", ms.len()),
            None => text.push_str(&format!(
                "unsupported {name}: {} samples leave fewer than 10 beyond the percentile\n",
                ms.len()
            )),
        }
    }
    let done_in_window: Vec<f64> = closed_jobs
        .iter()
        .filter_map(|j| j.done.filter(|&d| d <= closed_secs))
        .collect();
    let completed = done_in_window.len();
    let mut per_sec = vec![0usize; closed_secs.ceil() as usize];
    for d in closed_jobs.iter().filter_map(|j| j.done) {
        if let Some(n) = per_sec.get_mut(d as usize) {
            *n += 1;
        }
    }
    // The closed loop's throughput at the reference host speed: each job
    // counts at the reference sampled around the moment it completed.
    let at_ref: f64 = done_in_window
        .iter()
        .map(|&d| calib::to_ref(calib::speed_at(&host_closed, d)))
        .sum();
    report.timing("serve_jobs_s", at_ref / closed_secs, "jobs/s", completed);
    report.put("serve_jobs_s_raw", completed as f64 / closed_secs, "jobs/s");
    report.put(
        "peak_rss_mib",
        if w.rss_of_server {
            server_rss
        } else {
            bench_rss
        },
        "MiB",
    );
    report.put(
        "ok_frac",
        1.0 - ratio(checks.failures() as f64, checks.attempted as f64),
        "frac",
    );
    let lost_tickets: usize = open_logs
        .iter()
        .chain(&closed_logs)
        .map(|l| l.lost_tickets)
        .sum();
    let mut short_ms = lat(Kind::Short);
    short_ms.sort_by(f64::total_cmp);
    let q = |p: f64| short_ms[((p * short_ms.len() as f64) as usize).min(short_ms.len() - 1)];
    text.push_str(&format!(
        "short latency ms p10={:.1} p25={:.1} p50={:.1} p75={:.1} p90={:.1} mean={:.1}\n",
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        util::mean(&short_ms)
    ));
    text.push_str(&format!(
        "lost dedup tickets {lost_tickets} (each job submitted again; NOTES.md finding 6)\n"
    ));
    text.push_str(&format!(
        "closed loop jobs per second {} host_ref_mops {}\n",
        per_sec
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
        (0..per_sec.len())
            .map(|s| format!("{:.0}", calib::speed_at(&host_closed, s as f64 + 0.5)))
            .collect::<Vec<_>>()
            .join(",")
    ));
    text.push_str(&engine_line);
    text.push_str(&format!(
        "served open_jobs={} closed_jobs={} open_submits={} server_rss_mib={server_rss:.1} bench_rss_mib={bench_rss:.1}\n",
        open_jobs.len(),
        closed_jobs.len(),
        sizes.open_n
    ));

    if args.trace {
        let rtt = rtt_ms.expect("measured in traced runs");
        let layers = stage(
            &mut stage_times,
            spans,
            "stage.layers",
            root,
            |id| -> Result<(), String> {
                checks.merge(engine::engine_layers(&set, spans, id, &mut report));
                report.timing(
                    "ir.compile_ms",
                    median(&compile_secs) * 1e3,
                    "ms",
                    compile_secs.len(),
                );
                report.timing("serve.tcp.rtt_ms", rtt, "ms", RTT_PROBES);
                // Over both phases: the open loop alone leaves too few samples
                // beyond p99 at this length.
                let wait: Vec<f64> = open_jobs
                    .iter()
                    .chain(&closed_jobs)
                    .filter(|j| !j.dedup)
                    .filter_map(|j| {
                        let exec = reruns[&serve::rerun_key(&all, j)].secs;
                        Some((j.done? - j.start - exec) * 1e3 - rtt)
                    })
                    .collect();
                for (name, p) in [
                    ("serve.queue.wait_ms_p50", 0.5),
                    ("serve.queue.wait_ms_p99", 0.99),
                ] {
                    let v =
                        percentile(&wait, p).ok_or(format!("{name}: {} samples", wait.len()))?;
                    report.timing(name, v, "ms", wait.len());
                }
                serve::occupancy(&mut report, &open_logs[0].status);
                let every: Vec<&Job> = open_jobs.iter().chain(&closed_jobs).copied().collect();
                report.put(
                    "serve.cache.dedup_hit_frac",
                    serve::dedup_frac(&every),
                    "frac",
                );
                report.put("serve.cache.lost_tickets", lost_tickets as f64, "count");
                let admitted = every.iter().filter(|j| j.id.is_some() && !j.dedup).count();
                report.put(
                    "serve.wal.bytes_per_job",
                    ratio(wal_bytes as f64, admitted as f64),
                    "B",
                );
                let (insns, secs) = reruns
                    .iter()
                    .filter(|(k, _)| matches!(k, RerunKey::Campaign { .. }))
                    .fold((0u64, 0f64), |(i, s), (_, r)| {
                        (i + r.instructions, s + r.secs)
                    });
                report.put("core.inject.mips", ratio(insns as f64, secs) / 1e6, "MIPS");
                let lines: Vec<(&str, bool)> = sched
                    .open
                    .iter()
                    .zip(&rendered.open)
                    .map(|(s, l)| (&**l, s.kind == Kind::Warm))
                    .collect();
                let outputs: Vec<&risc1_serve::JobOutput> =
                    reruns.values().map(|r| &*r.output).collect();
                layers::wire_layer(&lines, &outputs, spans, id, &mut report, &mut checks);
                let plain: Vec<&str> = lines.iter().filter(|l| !l.1).map(|l| l.0).collect();
                layers::wal_layer(
                    &work.join("probe-wal"),
                    &plain,
                    &outputs,
                    spans,
                    id,
                    &mut report,
                    &mut checks,
                )?;
                let jsons: Vec<&str> = rendered.warm.values().map(|j| &**j).collect();
                layers::snapshot_layer(&jsons, spans, id, &mut report, &mut checks);
                let sieve = engine::with_oracle(engine::compile_set(&[LOOPS[1]], spans, id).0);
                layers::shard_layer(&sieve[0], spans, id, &mut report, &mut checks);
                Ok(())
            },
        );
        invalid.extend(layers.err());
    }

    text.push_str(&format!(
        "stages_s {}\n",
        stage_times
            .iter()
            .map(|(n, t)| format!("{n}={t:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let metrics = report
        .select(if args.trace { &PER_LAYER } else { &END_TO_END })
        .unwrap_or_else(|e| {
            invalid.push(e);
            Vec::new()
        });
    match report.render() {
        Ok(lines) => text.push_str(&lines),
        Err(e) => invalid.push(e),
    }
    Ok(Outcome {
        checks,
        invalid,
        text,
        metrics,
    })
}

/// Runs one phase: each client on its own thread and connection.
fn run_phase(
    conns: &mut [Conn; 2],
    phases: &[Phase],
    spans: &Spans,
    parent: Option<usize>,
) -> Result<Vec<serve::ClientLog>, String> {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(phases)
            .map(|(conn, phase)| s.spawn(move || serve::drive(conn, phase, t0, spans, parent)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// A stage of the run: a span plus its wall time in the stage summary.
fn stage<T>(
    times: &mut Vec<(&'static str, f64)>,
    spans: &Spans,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    let t = Instant::now();
    let out = spans.span(name, parent, 0, f);
    times.push((name, t.elapsed().as_secs_f64()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name"` values of one metric list in BENCHMARK.json (the JSON
    /// reader of the workspace admits integers only, so this scans text).
    fn names_in(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        assert_eq!(names_in("end_to_end"), END_TO_END);
        assert_eq!(names_in("per_layer"), PER_LAYER);
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_in("workloads"), workloads);
    }

    #[test]
    fn metric_names_match_the_pattern() {
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(util::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn each_workload_splits_its_seconds_sensibly() {
        for w in &WORKLOADS {
            assert!(w.engine_share > 0.0 && w.open_share > 0.0, "{}", w.name);
            assert!(w.engine_share + w.open_share < 1.0, "{}", w.name);
        }
    }
}
