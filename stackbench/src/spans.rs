//! Spans recorded by the traced run: one per call into a layer, made
//! from the benchmark's own code around the layer's public functions.
//!
//! Spans live in memory while the workload runs and are written out once
//! it ends; self times come from them afterwards. An untraced run keeps
//! a disabled recorder, which records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was made.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Job (or program) the span belongs to; 0 when none.
    pub job: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's index (or `None`
    /// when tracing is off) to parent the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span table");
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
                job,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span table")[id].end = end;
        out
    }

    /// Records a span whose interval was measured elsewhere (a request
    /// sent at `start` and answered at `end`, both from [`Spans::at`]).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        start: u64,
        end: u64,
    ) {
        if self.enabled {
            self.spans.lock().expect("span table").push(Span {
                name,
                start,
                end,
                parent,
                job,
            });
        }
    }

    /// The recorder's clock, for [`Spans::record`].
    pub fn at(&self) -> u64 {
        if self.enabled {
            self.now()
        } else {
            0
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span table"))
    }
}

/// Per span name: calls, total seconds and self seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub calls: usize,
    pub total: f64,
    pub self_time: f64,
}

/// Self time of a span: its duration minus the part of it that its
/// children's intervals cover (children may overlap one another).
pub fn usage_by_name(spans: &[Span]) -> BTreeMap<&'static str, Usage> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Usage> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let u = out.entry(s.name).or_default();
        u.calls += 1;
        u.total += s.secs();
        u.self_time += (s.end - s.start - covered) as f64 * 1e-9;
    }
    out
}

/// All spans as tab-separated lines: id, parent, job, name, start and end
/// in nanoseconds.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tjob\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.job, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 30, 50, Some(0)),
            span("b", 60, 70, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        let u = usage_by_name(&spans);
        assert!((u["root"].self_time - 50e-9).abs() < 1e-15);
        assert_eq!(u["a"].calls, 2);
        assert!((u["a"].self_time - 42e-9).abs() < 1e-15);
        assert!((u["c"].total - 8e-9).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let s = Spans::new(false);
        assert_eq!(s.span("x", None, 0, |id| id), None);
        assert!(s.take().is_empty());
    }
}
