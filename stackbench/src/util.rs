//! Small pieces every stage shares: the seeded generator, order statistics
//! with the "ten samples beyond" rule, the metric report and host facts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_D1CE_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Samples needed beyond a reported percentile.
const BEYOND_MIN: usize = 10;

/// Nearest-rank percentile of `samples` (`0 < p < 1`), or `None` when
/// fewer than [`BEYOND_MIN`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < BEYOND_MIN {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Harrell-Davis estimate of the `p` quantile, under the same
/// ten-beyond rule as [`percentile`]: a weighted mean of every order
/// statistic, weighted by the Beta(p(n+1), (1-p)(n+1)) distribution of
/// the quantile's rank. The served latencies cluster at multiples of the
/// 44 ms round trip (NOTES.md finding 1), and the sample p50 jumps
/// between clusters with a few samples' shift; this estimate moves
/// smoothly with them.
pub fn hd_quantile(samples: &[f64], p: f64) -> Option<f64> {
    percentile(samples, p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    // The Beta density in logs, integrated over each rank's interval by
    // the midpoint rule, then normalised.
    const STEPS: usize = 8;
    let ln_pdf = |t: f64| (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln();
    let mids = |i: usize| (0..STEPS).map(move |k| (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n);
    let peak = (0..sorted.len())
        .flat_map(mids)
        .map(ln_pdf)
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = (0..sorted.len())
        .map(|i| mids(i).map(|t| (ln_pdf(t) - peak).exp()).sum())
        .collect();
    let total: f64 = weights.iter().sum();
    Some(sorted.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total)
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 for an empty denominator (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units whose values are timings: each needs a sample-count line.
fn is_timing(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// The metrics of one run, in the order they were recorded, plus the
/// sample count behind every timing.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    samples: BTreeMap<String, usize>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, ..)| n != name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// A timing with the number of samples it summarises.
    pub fn timing(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.put(name, value, unit);
        self.samples.insert(name.to_owned(), n);
    }

    /// Keeps only `names`, in that order; every one must be present.
    pub fn select(&self, names: &[&str]) -> Result<Vec<(String, f64, &'static str)>, String> {
        names
            .iter()
            .map(|want| {
                self.metrics
                    .iter()
                    .find(|(n, ..)| n == want)
                    .cloned()
                    .ok_or_else(|| format!("metric {want} was not measured"))
            })
            .collect()
    }

    /// Human-readable lines: every metric with its unit, and a sample
    /// line for every timing. A timing without one is a validity error.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {value} {unit}");
            if is_timing(unit) {
                let n = self
                    .samples
                    .get(name)
                    .ok_or_else(|| format!("timing {name} has no sample-count line"))?;
                let _ = writeln!(out, "samples {name} n={n}");
            }
        }
        Ok(out)
    }
}

/// What a run checked. A wrong output makes the run incorrect; a failed
/// operation (an error, a shed, a timeout, a lost result) is counted but
/// says nothing about the outputs that did arrive.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub wrong: Vec<String>,
    pub failed: Vec<String>,
}

impl Checks {
    /// One attempted operation and its verdict.
    pub fn wrong_if(&mut self, error: Option<String>) {
        self.attempted += 1;
        self.wrong.extend(error);
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.wrong.extend(other.wrong);
        self.failed.extend(other.failed);
    }

    /// Wrong outputs and failed operations together.
    pub fn failures(&self) -> u64 {
        (self.wrong.len() + self.failed.len()) as u64
    }
}

/// The result line: the last line of standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

/// Peak resident set of a process in MiB (`VmHWM` from procfs).
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Host facts printed with every result: cores, CPU model and the commit
/// of the checkout (read from `.git` in the working directory, so nothing
/// outside the checkout is read; "unknown" when it is not a work tree).
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let commit = git_head().unwrap_or_else(|| "unknown".to_owned());
    format!("host nproc={cores} cpu=\"{model}\" commit={commit}")
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    std::fs::read_to_string(format!(".git/{name}"))
        .ok()
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| {
                    let (hash, r) = l.split_once(' ')?;
                    (r == name).then(|| hash.to_owned())
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // 999 samples leave only 9 beyond p99.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn hd_quantile_is_smooth_and_keeps_the_rule() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let mid = hd_quantile(&xs, 0.5).unwrap();
        assert!((mid - 51.0).abs() < 1e-6, "{mid}");
        // Two clusters split 51/50: the sample median sits in the upper
        // one; the estimate lies between them, near the edge it is on.
        let mut two: Vec<f64> = vec![44.0; 50];
        two.extend(vec![88.0; 51]);
        let hd = hd_quantile(&two, 0.5).unwrap();
        assert_eq!(percentile(&two, 0.5), Some(88.0));
        assert!(hd > 44.0 && hd < 88.0, "{hd}");
        assert_eq!(hd_quantile(&xs[..99], 0.9), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for good in [
            "setup_s",
            "core.trace.mips",
            "serve.wal.admit_us",
            "ir.shard.vs_trace",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", ".x", "a b", "p99%", "x/y", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn a_timing_without_a_sample_count_is_rejected() {
        let mut r = Report::default();
        r.timing("lat_ms", 1.5, "ms", 40);
        r.put("count", 3.0, "count");
        assert!(r.render().is_ok());
        r.put("other_ms", 2.0, "ms");
        assert!(r.render().unwrap_err().contains("other_ms"));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
