//! A span recorder for the traced run. Spans wrap the benchmark's own
//! calls into each layer's public functions; nothing inside the program
//! is instrumented. Spans are kept in memory and summarised when the
//! run ends. An untraced recorder runs the closures and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span: its name, its interval, and the span that was open
/// when it started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A per-thread span recorder.
pub struct Trace {
    on: bool,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let now = Instant::now();
            spans.push(Span {
                name,
                start: now,
                end: now,
                parent,
            });
            spans.len() - 1
        };
        self.open.set(Some(idx));
        let out = f();
        self.spans.borrow_mut()[idx].end = Instant::now();
        self.open.set(parent);
        out
    }

    /// Moves every span out of the recorder.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    /// Duration minus the part of it covered by child spans.
    pub self_time: Duration,
}

impl SpanTotals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.count as f64
        }
    }

    pub fn total_ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3
    }
}

impl std::fmt::Display for SpanTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} total_ms={:.3} self_ms={:.3}",
            self.count,
            self.total_ms(),
            self.self_time.as_secs_f64() * 1e3
        )
    }
}

/// Totals per span name, with self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_time) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += s.duration().saturating_sub(child);
    }
    out
}

/// Summed duration of the spans with no parent: the wall time attributed
/// to some named span.
pub fn attributed(spans: &[Span]) -> Duration {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let t = Trace::new(true);
        t.span("outer", || {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", || std::thread::sleep(Duration::from_millis(3)));
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let tot = totals(&spans);
        let (outer, inner) = (tot["outer"], tot["inner"]);
        assert_eq!(outer.self_time + inner.total, outer.total);
        assert_eq!(attributed(&spans), outer.total);
    }

    #[test]
    fn untraced_recorder_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.take().is_empty());
    }
}
