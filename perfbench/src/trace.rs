//! Outside-in spans: the benchmark times each layer around its calls into
//! the layer's public functions, keeps the spans in memory, and writes
//! them out when the traced run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent` is 0 for a top-level span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// The enclosing span's id, 0 at top level.
    pub parent: u64,
    /// Layer-qualified name, e.g. `ctrlplane.barrier`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Records an interval measured by the caller.
    pub fn record(&self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        // Ids only need to be unique; no other data is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f` the
    /// new span's id so nested calls can attach to it.
    pub fn span<R>(&self, parent: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now();
        let r = f(id);
        let end_ns = self.now();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span log poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its children's intervals cover. Children on
/// worker threads may overlap one another; their union is what counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans as TSV, one row per span with its self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns
        );
    }
    out
}
