//! The engine stage: the path `risc1 run` takes. Each program runs on a
//! fresh `Cpu::new(SimConfig::default())` through `load_program`,
//! `set_args` and `run_to_halt`, so every run pays cache fill, block
//! formation and trace build, as a user does.

use crate::calib;
use crate::spans::Spans;
use crate::util::{median, ratio, Checks, Report, Rng};
use risc1_core::{Cpu, ExecEngine, ExecStats, Program, SimConfig};
use risc1_ir::{compile_risc, interpret, RiscOpts};
use std::time::{Duration, Instant};

/// One program of an engine set: workload id, scale and the instruction
/// count it must retire (pinned; a change means the program or the code
/// generator changed, and the benchmark's numbers are no longer
/// comparable).
pub type Pinned = (&'static str, u32, u64);

/// Loop-dominated programs (run-loops).
pub const LOOPS: [Pinned; 5] = [
    ("e_string_search", 20, 58_424_016),
    ("sieve", 100, 51_605_822),
    ("f_bit_test", 20, 14_600_269),
    ("bubble", 20, 14_264_452),
    ("h_linked_list", 20, 8_524_938),
];

/// Recursive, call-heavy programs (run-calls).
pub const CALLS: [Pinned; 4] = [
    ("acker", 4, 11_104_446),
    ("fib", 20, 7_945_272),
    ("hanoi", 20, 13_631_484),
    ("qsort", 100, 14_568_936),
];

/// The whole suite at paper scale (serve-mix, whose engines stay nearly
/// idle: this pass is short next to its served phase).
pub const SUITE: [Pinned; 11] = [
    ("e_string_search", 1, 2_921_216),
    ("f_bit_test", 1, 729_657),
    ("h_linked_list", 1, 258_679),
    ("sieve", 1, 374_185),
    ("bubble", 1, 448_645),
    ("qsort", 1, 80_524),
    ("intmm", 1, 171_698),
    ("puzzle", 1, 91_943),
    ("acker", 1, 2_756_239),
    ("fib", 1, 273_647),
    ("hanoi", 1, 425_980),
];

/// An engine-set program as set-up leaves it: its arguments, IR module
/// (for the oracle) and compiled program.
pub type Compiled = (Pinned, Vec<i32>, risc1_ir::Module, Program);

/// A compiled engine-set program with its expected outputs.
pub struct EngineProg {
    pub id: &'static str,
    pub scale: u32,
    pub args: Vec<i32>,
    pub prog: Program,
    /// The IR interpreter's result.
    pub expect: i32,
    pub instructions: u64,
}

/// Builds and compiles an engine set: the timed part of set-up. Also
/// returns the seconds spent in `compile_risc`.
pub fn compile_set(set: &[Pinned], spans: &Spans, parent: Option<usize>) -> (Vec<Compiled>, f64) {
    let mut compile = 0.0;
    let progs = set
        .iter()
        .map(|&p| {
            let w = risc1_workloads::by_id_scaled(p.0, p.1)
                .unwrap_or_else(|| panic!("unknown workload {}", p.0));
            let t = Instant::now();
            let prog = spans
                .span("ir.compile_risc", parent, 0, |_| {
                    compile_risc(&w.module, RiscOpts::default())
                })
                .unwrap_or_else(|e| panic!("{}@x{}: {e}", p.0, p.1));
            compile += t.elapsed().as_secs_f64();
            (p, w.args, w.module, prog)
        })
        .collect();
    (progs, compile)
}

/// Adds the oracle value (untimed: it is the benchmark's own check).
pub fn with_oracle(compiled: Vec<Compiled>) -> Vec<EngineProg> {
    compiled
        .into_iter()
        .map(|((id, scale, instructions), args, module, prog)| {
            let expect = interpret(&module, &args)
                .unwrap_or_else(|e| panic!("{id}@x{scale} interp: {e}"))
                .value;
            EngineProg {
                id,
                scale,
                args,
                prog,
                expect,
                instructions,
            }
        })
        .collect()
}

/// One program on one engine: result, statistics and host seconds.
pub fn run_once(p: &EngineProg, engine: ExecEngine) -> (Result<i32, String>, ExecStats, f64) {
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let t = Instant::now();
    let mut cpu = Cpu::new(cfg);
    let run = cpu
        .load_program(&p.prog)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            cpu.set_args(&p.args);
            cpu.run_to_halt().map_err(|e| e.to_string())
        });
    let secs = t.elapsed().as_secs_f64();
    (run.map(|()| cpu.result()), cpu.stats(), secs)
}

/// Checks one run against the oracle and the pinned count.
fn check(p: &EngineProg, result: &Result<i32, String>, stats: &ExecStats) -> Option<String> {
    match result {
        Err(e) => Some(format!("{}@x{}: {e}", p.id, p.scale)),
        Ok(v) if *v != p.expect => Some(format!(
            "{}@x{}: result {v}, interpreter says {}",
            p.id, p.scale, p.expect
        )),
        Ok(_) if stats.instructions != p.instructions => Some(format!(
            "{}@x{}: {} instructions, pinned {}",
            p.id, p.scale, stats.instructions, p.instructions
        )),
        Ok(_) => None,
    }
}

/// Timed passes over the set on the default engine, each in a seeded
/// order. A run measures them in slices spread over its length (the host
/// this benchmark was built on changes speed for seconds at a time), then
/// reports the median pass's simulated instructions over host seconds, at
/// the reference host speed of [`calib`], and the exact simulated cycles
/// per pass, which must be equal in every pass.
pub struct Passes {
    mips: Vec<f64>,
    /// The host-speed reference's M operations per second beside each pass.
    host: Vec<f64>,
    cycles: Vec<u64>,
    checks: Checks,
}

impl Passes {
    pub fn new() -> Passes {
        Passes {
            mips: Vec::new(),
            host: Vec::new(),
            cycles: Vec::new(),
            checks: Checks::default(),
        }
    }

    /// One slice: passes until about `budget` has elapsed (at least one).
    pub fn slice(
        &mut self,
        set: &[EngineProg],
        budget: Duration,
        rng: &mut Rng,
        spans: &Spans,
        parent: Option<usize>,
    ) {
        let engine = SimConfig::default().engine;
        let t0 = Instant::now();
        loop {
            let mut order: Vec<usize> = (0..set.len()).collect();
            rng.shuffle(&mut order);
            let (mut insns, mut cyc, mut secs) = (0u64, 0u64, 0f64);
            let mut host = Vec::with_capacity(order.len());
            for i in order {
                let p = &set[i];
                // The host-speed reference brackets each program, each side
                // for about a twentieth of its time (at 50 MIPS).
                let bracket = p.instructions as f64 / 50e6 / 20.0;
                let before = calib::measure(bracket);
                let (result, stats, dt) = spans.span("core.run_to_halt", parent, i as u64, |_| {
                    run_once(p, engine)
                });
                host.push(((before + calib::measure(bracket)) / 2.0, dt));
                self.checks.wrong_if(check(p, &result, &stats));
                insns += stats.instructions;
                cyc += stats.cycles;
                secs += dt;
            }
            self.mips.push(insns as f64 / secs / 1e6);
            // Weighted by each program's time.
            self.host
                .push(secs / host.iter().map(|(mops, dt)| dt / mops).sum::<f64>());
            self.cycles.push(cyc);
            // Stop where the next pass would end closer past the budget
            // than short of it (a pass takes about 1.1 times its programs'
            // time, with the reference beside them).
            if t0.elapsed().as_secs_f64() + secs * 0.55 >= budget.as_secs_f64() {
                return;
            }
        }
    }

    /// Every pass's MIPS, in the order run: how much the host's speed
    /// moved during the run.
    pub fn describe(&self) -> String {
        let mips: Vec<String> = self.mips.iter().map(|m| format!("{m:.1}")).collect();
        let host: Vec<String> = self.host.iter().map(|m| format!("{m:.0}")).collect();
        format!(
            "engine passes={} raw_mips={} host_ref_mops={}\n",
            self.mips.len(),
            mips.join(","),
            host.join(",")
        )
    }

    pub fn finish(mut self, report: &mut Report) -> Checks {
        let first = self.cycles[0];
        if self.cycles.iter().any(|&c| c != first) {
            self.checks.wrong.push(format!(
                "simulated cycles differ between passes: {:?}",
                self.cycles
            ));
        }
        // Each pass at the reference host speed, from the reference
        // measured beside it.
        let at_ref: Vec<f64> = self
            .mips
            .iter()
            .zip(&self.host)
            .map(|(m, h)| m * calib::to_ref(*h))
            .collect();
        report.timing("run_mips", median(&at_ref), "MIPS", at_ref.len());
        report.put("run_mips_raw", median(&self.mips), "MIPS");
        report.put("sim_cycles", first as f64, "cycles");
        self.checks
    }
}

/// The traced sweep: every program once on each engine tier. The
/// architectural statistics must be identical across the four tiers.
pub fn engine_layers(
    set: &[EngineProg],
    spans: &Spans,
    parent: Option<usize>,
    report: &mut Report,
) -> Checks {
    let engines = [
        ExecEngine::Uncached,
        ExecEngine::Cached,
        ExecEngine::Superblock,
        ExecEngine::Trace,
    ];
    let mut out = Checks::default();
    let mut per_engine: Vec<(u64, f64, ExecStats)> = Vec::new();
    for engine in engines {
        let (mut insns, mut secs, mut sum) = (0u64, 0f64, ExecStats::default());
        for (i, p) in set.iter().enumerate() {
            let name = match engine {
                ExecEngine::Uncached => "core.run_to_halt.uncached",
                ExecEngine::Cached => "core.run_to_halt.cached",
                ExecEngine::Superblock => "core.run_to_halt.superblock",
                ExecEngine::Trace => "core.run_to_halt.trace",
            };
            let (result, stats, dt) = spans.span(name, parent, i as u64, |_| run_once(p, engine));
            out.wrong_if(check(p, &result, &stats).map(|e| format!("{}: {e}", engine.name())));
            insns += stats.instructions;
            secs += dt;
            accumulate(&mut sum, &stats);
        }
        per_engine.push((insns, secs, sum));
    }
    for (engine, (_, _, stats)) in engines.iter().zip(&per_engine).skip(1) {
        if *stats != per_engine[0].2 {
            out.wrong.push(format!(
                "architectural statistics on {} differ from uncached",
                engine.name()
            ));
        }
    }
    for (engine, (insns, secs, _)) in engines.iter().zip(&per_engine) {
        let name = format!("core.{}.mips", engine.name());
        report.timing(&name, *insns as f64 / secs / 1e6, "MIPS", set.len());
    }
    let arch = &per_engine[0].2;
    let sb = &per_engine[2].2;
    let tr = &per_engine[3].2;
    let n = arch.instructions as f64;
    report.put(
        "ir.delay_slot_nop_frac",
        ratio(arch.delay_slot_nops as f64, arch.delay_slots as f64),
        "frac",
    );
    report.put(
        "core.superblock.block_len",
        ratio(sb.block_instructions as f64, sb.blocks_entered as f64),
        "insns",
    );
    report.put(
        "core.superblock.fused_frac",
        ratio(2.0 * sb.fused_total() as f64, n),
        "frac",
    );
    report.put(
        "core.trace.coverage",
        ratio(tr.trace_instructions as f64, n),
        "frac",
    );
    report.put("core.trace.builds", tr.traces_built as f64, "count");
    report.put(
        "core.trace.side_exit_frac",
        ratio(tr.trace_side_exits as f64, tr.trace_entries as f64),
        "frac",
    );
    report.put(
        "core.windows.spills_per_kinsn",
        ratio(1e3 * arch.window_overflows as f64, n),
        "1/kinsn",
    );
    report.put(
        "core.windows.fills_per_kinsn",
        ratio(1e3 * arch.window_underflows as f64, n),
        "1/kinsn",
    );
    report.put(
        "core.trap_cycle_frac",
        ratio(arch.trap_cycles as f64, arch.cycles as f64),
        "frac",
    );
    report.put("core.cpi", ratio(arch.cycles as f64, n), "cycles/insn");
    out
}

/// Sums the counters the layer metrics read. Architectural fields that
/// `PartialEq` compares are summed too, so equality across tiers is
/// checked on the whole set.
fn accumulate(sum: &mut ExecStats, s: &ExecStats) {
    sum.instructions += s.instructions;
    sum.cycles += s.cycles;
    sum.bubble_cycles += s.bubble_cycles;
    sum.ifetches += s.ifetches;
    sum.data_reads += s.data_reads;
    sum.data_writes += s.data_writes;
    sum.calls += s.calls;
    sum.rets += s.rets;
    sum.taken_transfers += s.taken_transfers;
    sum.window_overflows += s.window_overflows;
    sum.window_underflows += s.window_underflows;
    sum.trap_cycles += s.trap_cycles;
    sum.delay_slots += s.delay_slots;
    sum.delay_slot_nops += s.delay_slot_nops;
    sum.max_depth = sum.max_depth.max(s.max_depth);
    sum.trap_entries += s.trap_entries;
    sum.trap_returns += s.trap_returns;
    sum.trap_entry_cycles += s.trap_entry_cycles;
    for (a, b) in sum.trap_counts.iter_mut().zip(&s.trap_counts) {
        *a += b;
    }
    sum.interrupts_taken += s.interrupts_taken;
    for (op, n) in s.opcode_counts.iter() {
        sum.opcode_counts.add(op, n);
    }
    for (a, b) in sum.fused_pairs.iter_mut().zip(&s.fused_pairs) {
        *a += b;
    }
    sum.blocks_entered += s.blocks_entered;
    sum.block_instructions += s.block_instructions;
    sum.traces_built += s.traces_built;
    sum.trace_entries += s.trace_entries;
    sum.trace_exits += s.trace_exits;
    sum.trace_side_exits += s.trace_side_exits;
    sum.trace_instructions += s.trace_instructions;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The instruction counts the engine sets are pinned to. Run with
    /// `--release`: the sets retire about 200 M instructions.
    #[test]
    fn engine_set_instruction_counts_are_pinned() {
        for set in [&LOOPS[..], &CALLS[..], &SUITE[..]] {
            let progs = with_oracle(compile_set(set, &Spans::new(false), None).0);
            for p in &progs {
                let (result, stats, _) = run_once(p, ExecEngine::Trace);
                assert_eq!(check(p, &result, &stats), None);
            }
        }
    }
}
