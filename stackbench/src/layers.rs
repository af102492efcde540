//! Layer probes of the traced run: calls into the wire, WAL, snapshot
//! and shard layers' public functions on the run's own inputs, timed from
//! outside the program.

use crate::engine::EngineProg;
use crate::spans::Spans;
use crate::util::{mean, ratio, Checks, Report};
use risc1_core::{Cpu, ExecEngine, SimConfig, Snapshot};
use risc1_ir::run_sharded_with;
use risc1_serve::{wire, JobOutput, WalWriter};
use std::path::Path;
use std::time::Instant;

fn timed<T>(
    spans: &Spans,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = spans.span(name, parent, 0, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// `wire::parse_request` on the run's submit lines (with and without a
/// snapshot) and `wire::output_json` on the reruns' outputs. A line that
/// does not parse is a wrong output of the wire layer.
pub fn wire_layer(
    lines: &[(&str, bool)],
    outputs: &[&JobOutput],
    spans: &Spans,
    parent: Option<usize>,
    report: &mut Report,
    checks: &mut Checks,
) {
    let (mut plain, mut snap, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for &(line, warm) in lines {
        let (parsed, secs) = timed(spans, "serve.wire.parse_request", parent, || {
            wire::parse_request(line.trim_end())
        });
        checks.wrong_if(
            parsed
                .err()
                .map(|e| format!("a submit line does not parse: {e}")),
        );
        if warm { &mut snap } else { &mut plain }.push(secs * 1e6);
        bytes.push(line.len() as f64 / 1024.0);
    }
    let render: Vec<f64> = outputs
        .iter()
        .map(|o| {
            timed(spans, "serve.wire.output_json", parent, || {
                wire::output_json(o)
            })
            .1 * 1e6
        })
        .collect();
    report.timing("serve.wire.parse_us", mean(&plain), "us", plain.len());
    report.timing(
        "serve.wire.parse_snapshot_us",
        mean(&snap),
        "us",
        snap.len(),
    );
    report.timing("serve.wire.render_us", mean(&render), "us", render.len());
    report.put("serve.wire.request_kib", mean(&bytes), "KiB");
}

/// `WalWriter::append_admit` and `append_done` into a scratch log, on the
/// specs of the run's submit lines and the reruns' outputs. Write errors
/// end the run; a line that does not parse as a submit is a wrong output.
pub fn wal_layer(
    dir: &Path,
    lines: &[&str],
    outputs: &[&JobOutput],
    spans: &Spans,
    parent: Option<usize>,
    report: &mut Report,
    checks: &mut Checks,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut wal = WalWriter::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut admit = Vec::new();
    let mut id = 0u64;
    for line in lines {
        let Ok(wire::Request::Submit {
            client,
            weight,
            specs,
        }) = wire::parse_request(line.trim_end())
        else {
            checks.wrong_if(Some("a submit line does not parse as a submit".to_owned()));
            continue;
        };
        for spec in &specs {
            id += 1;
            let (r, secs) = timed(spans, "serve.wal.append_admit", parent, || {
                wal.append_admit(id, &client, weight, spec)
            });
            r.map_err(|e| format!("WAL admit: {e}"))?;
            admit.push(secs * 1e6);
        }
    }
    let mut done = Vec::new();
    for (i, out) in outputs.iter().enumerate() {
        let (r, secs) = timed(spans, "serve.wal.append_done", parent, || {
            wal.append_done(i as u64 + 1, out)
        });
        r.map_err(|e| format!("WAL done: {e}"))?;
        done.push(secs * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    report.timing("serve.wal.admit_us", mean(&admit), "us", admit.len());
    report.timing("serve.wal.done_us", mean(&done), "us", done.len());
    Ok(())
}

/// Snapshot capture, restore and JSON coding on the warm-start snapshots.
/// Each must decode, restore and capture again to the same JSON.
pub fn snapshot_layer(
    jsons: &[&str],
    spans: &Spans,
    parent: Option<usize>,
    report: &mut Report,
    checks: &mut Checks,
) {
    let (mut cap, mut res, mut enc, mut dec, mut kib) = (vec![], vec![], vec![], vec![], vec![]);
    for json in jsons {
        let (snap, d) = timed(spans, "core.snapshot.from_json", parent, || {
            Snapshot::from_json(json)
        });
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                checks.wrong_if(Some(format!("snapshot JSON: {e}")));
                continue;
            }
        };
        let mut cpu = Cpu::new(snap.config().clone());
        let (r, rs) = timed(spans, "core.cpu.restore", parent, || cpu.restore(&snap));
        if let Err(e) = r {
            checks.wrong_if(Some(format!("restore: {e}")));
            continue;
        }
        let (again, c) = timed(spans, "core.cpu.snapshot", parent, || cpu.snapshot());
        let (text, e) = timed(spans, "core.snapshot.to_json", parent, || again.to_json());
        checks.wrong_if(
            (text != *json)
                .then(|| "a restored snapshot does not capture to the same JSON".to_owned()),
        );
        dec.push(d * 1e3);
        res.push(rs * 1e3);
        cap.push(c * 1e3);
        enc.push(e * 1e3);
        kib.push(json.len() as f64 / 1024.0);
    }
    report.timing("core.snapshot.capture_ms", mean(&cap), "ms", cap.len());
    report.timing("core.snapshot.restore_ms", mean(&res), "ms", res.len());
    report.timing("core.snapshot.json_encode_ms", mean(&enc), "ms", enc.len());
    report.timing("core.snapshot.json_decode_ms", mean(&dec), "ms", dec.len());
    report.put("core.snapshot.json_kib", mean(&kib), "KiB");
}

/// Sharding on sieve@x100 with 2 threads, against one sequential run on
/// the trace engine. No workload shards, so this moves no end-to-end
/// metric. The sharded result must equal the sequential one.
pub fn shard_layer(
    sieve: &EngineProg,
    spans: &Spans,
    parent: Option<usize>,
    report: &mut Report,
    checks: &mut Checks,
) {
    let ((result, _, _), seq) = timed(spans, "core.run_to_halt.trace", parent, || {
        crate::engine::run_once(sieve, ExecEngine::Trace)
    });
    let shard_cycles = sieve.instructions.div_ceil(8);
    let (sharded, _) = timed(spans, "ir.run_sharded_with", parent, || {
        run_sharded_with(
            &sieve.prog,
            &sieve.args,
            SimConfig::default(),
            shard_cycles,
            2,
        )
    });
    let sharded = match sharded {
        Ok(s) => s,
        Err(e) => {
            checks.wrong_if(Some(format!("sharded sieve: {e}")));
            return;
        }
    };
    let value = match sharded.report.outcome {
        risc1_ir::InjectOutcome::Halted { result } => Some(result),
        risc1_ir::InjectOutcome::Faulted { .. } => None,
    };
    checks.wrong_if(
        (value != Some(sieve.expect) || result != Ok(sieve.expect))
            .then(|| format!("sharded sieve returned {value:?}, sequential {result:?}")),
    );
    let plan = sharded.plan_wall.as_secs_f64();
    let exec = sharded.exec_wall.as_secs_f64();
    report.timing("ir.shard.plan_ms", plan * 1e3, "ms", 1);
    report.timing("ir.shard.exec_ms", exec * 1e3, "ms", 1);
    report.put("ir.shard.vs_trace", ratio(seq, plan + exec), "x");
}
