//! The traced run's spans, recorded from the benchmark's own code
//! around each call into a layer of the program.
//!
//! Spans live in a thread-local arena (the traced run is single
//! threaded; the cache's publish hook runs on the publishing thread,
//! inside the `publish` span), nest by a stack, and are read back once
//! the run ends. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `kernel` or `cache.lookup`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Stop recording and return every span, in opening order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// An open span; closes when dropped. A no-op while not recording.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    index: Option<usize>,
}

/// Open a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len();
        let start = now_ns(rec.origin);
        rec.spans.push(Span {
            name,
            parent: rec.stack.last().copied(),
            start,
            end: start,
        });
        rec.stack.push(index);
        Some(index)
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end = now_ns(rec.origin);
                if rec.stack.last() == Some(&index) {
                    rec.stack.pop();
                }
            }
        });
    }
}

impl Guard {
    /// The span's index in [`finish`]'s output.
    ///
    /// # Panics
    /// If the span was opened while not recording.
    pub fn index(&self) -> usize {
        self.index.expect("span opened while recording")
    }
}

/// Run `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = enter(name);
    f()
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the parent's own interval, so
/// overlapping or overhanging children are never counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Measured cost of one span open/close pair, in nanoseconds: the
/// median over `rounds` batches of `per_round` empty spans.
pub fn calibrate_ns(rounds: usize, per_round: usize) -> f64 {
    let mut per_span: Vec<f64> = (0..rounds)
        .map(|_| {
            start();
            let t = Instant::now();
            for _ in 0..per_round {
                drop(std::hint::black_box(enter("calibrate")));
            }
            let ns = t.elapsed().as_nanos() as f64;
            finish();
            ns / per_round as f64
        })
        .collect();
    per_span.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_span[per_span.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ prepare [10,40) ⊃ candidates [12,20), lists [20,38)
        //           ⊃ kernel [40,95)
        let spans = vec![
            span("op", None, 0, 100),
            span("prepare", Some(0), 10, 40),
            span("candidates", Some(1), 12, 20),
            span("lists", Some(1), 20, 38),
            span("kernel", Some(0), 40, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 4, 8, 18, 55]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur(), "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_by_scope_and_is_off_by_default() {
        drop(enter("ignored"));
        assert!(finish().is_empty(), "nothing is recorded before start()");
        start();
        {
            let _op = enter("op");
            timed("inner", || drop(enter("leaf")));
        }
        let spans = finish();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("op", None), ("inner", Some(0)), ("leaf", Some(1))]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
        let st = self_times(&spans);
        assert_eq!(st.iter().sum::<u64>(), spans[0].dur());
    }
}
