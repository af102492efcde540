//! The host-speed reference: a small register-window bytecode VM of the
//! benchmark's own, running a fixed program (a sieve, then Ackermann's
//! function). It shares no code with the repository, so no change to the
//! program under test moves it; it moves only with the host.
//!
//! The host this benchmark was built on changes speed by up to 2x for
//! seconds to minutes at a time, and an interpreter's speed moves with it
//! far more than a tight native loop's does. The reference is an
//! interpreter too, run on both sides of every engine-pass program and
//! sampled through the closed loop ([`Probe`]), so `run_mips` and
//! `serve_jobs_s` are reported at a fixed reference speed ([`REF_MOPS`]);
//! the raw figures are printed beside them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The reference speed the throughputs are reported at: about the VM's
/// rate on the host the benchmark was built on, in its slow regime.
pub const REF_MOPS: f64 = 360.0;

#[derive(Clone, Copy)]
enum Op {
    Li(u8, i32),
    Mov(u8, u8),
    Add(u8, u8, u8),
    Addi(u8, u8, i32),
    Ld(u8, u8, i32),
    St(u8, u8, i32),
    Bne(u8, u8, u32),
    Blt(u8, u8, u32),
    Bge(u8, u8, u32),
    Jmp(u32),
    Call(u32),
    Ret,
    Halt,
}

/// Registers a call slides the window by; a callee's `r0`, `r1` are its
/// caller's `r12`, `r13`.
const WINDOW: usize = 12;

/// Operations between two clock reads of a run.
const CHUNK: u64 = 1 << 15;

struct Vm {
    regs: Vec<i32>,
    base: usize,
    mem: Vec<i32>,
    stack: Vec<(usize, usize)>,
    /// Seconds each [`CHUNK`] of operations took.
    chunks: Vec<f64>,
}

impl Vm {
    fn new() -> Vm {
        Vm {
            regs: vec![0; 1 << 16],
            base: 0,
            mem: vec![0; 1 << 18],
            stack: Vec::new(),
            chunks: Vec::with_capacity(128),
        }
    }

    /// Runs from `entry` to `Halt`: `r0` and the operations executed.
    fn run(&mut self, code: &[Op], entry: usize) -> (i32, u64) {
        let mut pc = entry;
        let mut n = 0u64;
        let mut last = Instant::now();
        macro_rules! r {
            ($i:expr) => {
                self.regs[self.base + $i as usize]
            };
        }
        loop {
            n += 1;
            if n % CHUNK == 0 {
                let now = Instant::now();
                self.chunks.push((now - last).as_secs_f64());
                last = now;
            }
            let mut next = pc + 1;
            match code[pc] {
                Op::Li(d, v) => r!(d) = v,
                Op::Mov(d, a) => r!(d) = r!(a),
                Op::Add(d, a, b) => r!(d) = r!(a).wrapping_add(r!(b)),
                Op::Addi(d, a, v) => r!(d) = r!(a).wrapping_add(v),
                Op::Ld(d, a, o) => r!(d) = self.mem[(r!(a).wrapping_add(o) as usize) & 0x3FFFF],
                Op::St(s, a, o) => {
                    let i = (r!(a).wrapping_add(o) as usize) & 0x3FFFF;
                    self.mem[i] = r!(s);
                }
                Op::Bne(a, b, t) if r!(a) != r!(b) => next = t as usize,
                Op::Blt(a, b, t) if r!(a) < r!(b) => next = t as usize,
                Op::Bge(a, b, t) if r!(a) >= r!(b) => next = t as usize,
                Op::Bne(..) | Op::Blt(..) | Op::Bge(..) => {}
                Op::Jmp(t) => next = t as usize,
                Op::Call(t) => {
                    self.stack.push((pc + 1, self.base));
                    self.base += WINDOW;
                    next = t as usize;
                }
                Op::Ret => {
                    let (p, b) = self.stack.pop().expect("return without a call");
                    self.base = b;
                    next = p;
                }
                Op::Halt => return (r!(0), n),
            }
            pc = next;
        }
    }
}

/// The fixed program: `sieve(60000) + ack(2, 300)`, and its entry.
fn program() -> (Vec<Op>, usize) {
    use Op::*;
    // sieve(n = r0): primes below n, counted in r6 (zero on entry).
    let mut c = vec![
        Li(1, 2),
        Li(2, 0),
        Li(3, 1),
        Li(4, 0),
        // 4: clear mem[0..n]
        St(2, 4, 0),
        Addi(4, 4, 1),
        Blt(4, 0, 4),
        Li(4, 2),
        // 8: for i in 2..n
        Bge(4, 0, 19),
        Ld(5, 4, 0),
        Bne(5, 2, 17),
        Addi(6, 6, 1),
        Add(7, 4, 4),
        // 13: mark multiples of i
        Bge(7, 0, 17),
        St(3, 7, 0),
        Add(7, 7, 4),
        Jmp(13),
        // 17
        Addi(4, 4, 1),
        Jmp(8),
        // 19
        Mov(0, 6),
        Ret,
    ];
    // ack(m = r0, n = r1) -> r0
    let a = c.len() as u32;
    c.extend([
        Li(2, 0),
        Bne(0, 2, a + 4),
        Addi(0, 1, 1),
        Ret,
        // a+4: n == 0 -> ack(m-1, 1)
        Bne(1, 2, a + 9),
        Addi(12, 0, -1),
        Li(13, 1),
        Call(a),
        Jmp(a + 15),
        // a+9: ack(m-1, ack(m, n-1))
        Mov(12, 0),
        Addi(13, 1, -1),
        Call(a),
        Mov(13, 12),
        Addi(12, 0, -1),
        Call(a),
        // a+15
        Mov(0, 12),
        Ret,
    ]);
    let main = c.len();
    c.extend([
        Li(12, 60000),
        Li(6, 0),
        Call(0),
        Mov(1, 12),
        Li(12, 2),
        Li(13, 300),
        Call(a),
        Add(0, 1, 12),
        Halt,
    ]);
    (c, main)
}

/// `sieve(60000) + ack(2, 300)`: 6057 primes and 603.
const EXPECT: i32 = 6057 + 603;

/// One run of the reference program.
pub struct Sample {
    pub ops: u64,
    /// Host seconds of the whole run (about 7 ms on the host above).
    pub secs: f64,
    /// The median speed of its chunks of [`CHUNK`] operations, in M
    /// operations per second: a chunk during which another thread held
    /// the CPU reads slow, and the median passes over a few of them.
    pub chunk_mops: f64,
}

/// Runs the reference program once.
pub fn sample() -> Sample {
    let (code, entry) = program();
    let t = Instant::now();
    let mut vm = Vm::new();
    let (value, ops) = vm.run(&code, entry);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        value, EXPECT,
        "the host-speed reference computed a wrong value"
    );
    let rates: Vec<f64> = vm.chunks.iter().map(|s| CHUNK as f64 / s / 1e6).collect();
    Sample {
        ops,
        secs,
        chunk_mops: crate::util::median(&rates),
    }
}

/// Runs the reference until at least `secs` have passed (at least once):
/// its speed in M operations per second over that stretch.
pub fn measure(secs: f64) -> f64 {
    let (mut ops, mut spent) = (0u64, 0f64);
    while ops == 0 || spent < secs {
        let s = sample();
        ops += s.ops;
        spent += s.secs;
    }
    ops as f64 / spent / 1e6
}

/// Gap between two reference samples of a [`Probe`].
const PROBE_GAP: Duration = Duration::from_millis(200);

/// The reference sampled on a thread of its own while the served phase
/// keeps both CPUs busy: one run every [`PROBE_GAP`] (about 3% of one
/// CPU), each read as its median chunk speed, so that the time the
/// server's threads hold the CPU does not count as a slow host.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, f64)>>,
}

impl Probe {
    /// Starts sampling; sample times count from `t0`.
    pub fn start(t0: Instant) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let at = t0.elapsed().as_secs_f64();
                let s = sample();
                samples.push((at + s.secs / 2.0, s.chunk_mops));
                thread::sleep(PROBE_GAP);
            }
            samples
        });
        Probe { stop, handle }
    }

    /// Stops the probe: `(seconds after t0, M operations per second)` of
    /// every sample, in time order.
    pub fn finish(self) -> Vec<(f64, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("probe thread")
    }
}

/// The host's speed at `t` from a [`Probe`]'s samples: the median of
/// those within half a second of it (a sample preempted mid-run can read
/// far off), or the nearest one.
pub fn speed_at(samples: &[(f64, f64)], t: f64) -> f64 {
    let near: Vec<f64> = samples
        .iter()
        .filter(|(at, _)| (at - t).abs() <= 0.5)
        .map(|s| s.1)
        .collect();
    if near.is_empty() {
        samples
            .iter()
            .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
            .expect("the probe took at least one sample")
            .1
    } else {
        crate::util::median(&near)
    }
}

/// The factor that brings a speed measured at `mops` to the reference.
pub fn to_ref(mops: f64) -> f64 {
    REF_MOPS / mops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_program_is_fixed() {
        let s = sample();
        assert_eq!(s.ops, 2_468_155);
        assert!(s.secs > 0.0 && s.chunk_mops > 0.0);
    }
}
