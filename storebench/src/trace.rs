//! Spans recorded by the benchmark around its calls into the store's layers.
//!
//! A span has a name, a start and an end on one process-wide monotonic base, the span
//! that caused it, and the id of the operation it belongs to. Spans are kept in memory
//! and written out when the run ends. A layer's self time is its span's duration minus
//! the time its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span collector for one thread.
pub struct Tracer {
    base: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A collector whose timestamps count from `base`; span ids start at `first_id`
    /// so collectors of different threads never share an id.
    pub fn new(base: Instant, first_id: u64) -> Tracer {
        Tracer {
            base,
            next_id: first_id.max(1),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes the most recently opened span with id `id`.
    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span that was opened");
        span.end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Writes spans as tab-separated lines (`id parent op name start_ns end_ns`).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                op: 1,
                name: "op",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                op: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                op: 1,
                name: "b",
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (60, 1));
        assert_eq!(t["a"], (30, 1));
        assert_eq!(t["b"], (10, 1));
    }
}
