//! Span recorder. Spans are recorded in the harness around each call
//! into a layer, held in memory, and written as JSONL when the run
//! ends. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover; all spans of one rep share a
//! trace id.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no span".
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one; `0` for the root of a rep.
    pub parent: SpanId,
    /// Shared by every span of one rep.
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `0` is the harness thread; pool workers count from 1.
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the harness thread, innermost last (indices into
    /// `spans`).
    stack: Vec<usize>,
    trace: u32,
}

/// Records spans when enabled and nothing when not, so the code that
/// drives a layer is the same in the traced and the untraced run.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a recorder method never panics while holding the lock")
    }

    /// Run `f` as one rep: a root span with a fresh trace id.
    pub fn rep<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            self.lock().trace += 1;
        }
        self.span(name, f)
    }

    /// Run `f` inside a span named `name`, a child of the innermost
    /// open span of the harness thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let start_ns = self.now_ns();
            let mut inner = self.lock();
            let parent = inner.stack.last().map_or(0, |&i| inner.spans[i].id);
            let id = inner.spans.len() as SpanId + 1;
            let trace = inner.trace;
            inner.spans.push(Span {
                id,
                parent,
                trace,
                name,
                start_ns,
                end_ns: start_ns,
                thread: 0,
            });
            let index = inner.spans.len() - 1;
            inner.stack.push(index);
            index
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[index].end_ns = end_ns;
        let open = inner.stack.pop();
        debug_assert_eq!(open, Some(index), "spans close innermost first");
        out
    }

    /// Id of the innermost open span of the harness thread — the parent
    /// to hand to [`Recorder::record`] from a worker thread.
    pub fn current(&self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let inner = self.lock();
        inner.stack.last().map_or(0, |&i| inner.spans[i].id)
    }

    /// Record a finished span measured on another thread.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        thread: u32,
    ) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        let id = inner.spans.len() as SpanId + 1;
        let trace = inner.trace;
        inner.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
            thread,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans_since(0)
    }

    /// The spans recorded after the first `mark`.
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.lock().spans[mark..].to_vec()
    }
}

/// Durations, in ns, of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Self time of every span, in the order of `spans`: duration minus the
/// part of the span's interval that its children cover. Children may
/// overlap one another (pool workers) and are clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len() + 1];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = &mut children[s.id as usize];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Share of the root spans' time that their descendants account for:
/// `1 − Σ root self time ÷ Σ root duration`. What is left is the
/// harness's own glue between the calls into the layers.
pub fn root_coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if s.parent == 0 {
            total += s.duration_ns();
            own += self_ns;
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - own as f64 / total as f64
}

/// Write `spans` to `path`, one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t",
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 holding a grandchild 20..30;
        // second child 70..90.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 2, 20, 30),
            span(4, 1, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert!((root_coverage(&spans) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Two workers overlap on 20..40; a third child sticks out of the
        // parent and is clipped to it.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            span(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn spans_of_one_rep_share_a_trace_id_and_nest() {
        let rec = Recorder::new(true);
        for _ in 0..2 {
            rec.rep("rep", || {
                rec.span("outer", || {
                    let parent = rec.current();
                    rec.record("worker", parent, rec.now_ns(), rec.now_ns(), 1);
                    rec.span("inner", || ());
                });
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        for rep in spans.chunks(4) {
            let [root, outer, worker, inner] = rep else {
                panic!("four spans per rep")
            };
            assert_eq!(root.parent, 0);
            assert_eq!(outer.parent, root.id);
            assert_eq!(worker.parent, outer.id);
            assert_eq!(inner.parent, outer.id);
            assert_eq!(worker.thread, 1);
            assert!(rep.iter().all(|s| s.trace == root.trace));
        }
        assert_ne!(spans[0].trace, spans[4].trace);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.rep("rep", || rec.span("x", || 7)), 7);
        assert_eq!(rec.current(), 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
        write_jsonl(&path, &[span(1, 0, 5, 9), span(2, 1, 6, 7)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"id\":1,\"parent\":0,\"trace\":1,\"name\":\"t\",\"start_ns\":5,\"end_ns\":9,\"thread\":0}"
        );
    }
}
