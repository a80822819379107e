//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code, around each call into a layer's public function — nothing
//! is added inside the program. Each thread records into its own
//! [`SpanBuf`] (no locking on the hot path); buffers are merged when the
//! run ends and written out as one tab-separated file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request the span belongs to (spans of one request share it).
    pub query: u64,
    /// Layer-qualified name of the call, e.g. `core.run_on`.
    pub name: &'static str,
    /// A class label (algorithm and channel count, or empty).
    pub class: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same buffer.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans, timed against a shared origin.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer timing against `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanBuf {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`SpanBuf::close`].
    pub fn open(
        &mut self,
        query: u64,
        name: &'static str,
        class: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            query,
            name,
            class,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        query: u64,
        name: &'static str,
        class: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(query, name, class, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, the time its children cover. Children run on the
    /// parent's thread, one after another, so their durations add up
    /// without overlap.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        child_ns
    }
}

/// Per span name: call count, total and self wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// The merged spans of a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    bufs: Vec<SpanBuf>,
}

impl Trace {
    /// Adds one thread's buffer.
    pub fn push(&mut self, buf: SpanBuf) {
        self.bufs.push(buf);
    }

    /// Every span of `name` (and, when given, of `class`), as durations
    /// in nanoseconds.
    pub fn durations_ns(&self, name: &str, class: Option<&str>) -> Vec<f64> {
        self.bufs
            .iter()
            .flat_map(|b| b.spans.iter())
            .filter(|s| s.name == name && class.is_none_or(|c| s.class == c))
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for buf in &self.bufs {
            for (s, children) in buf.spans.iter().zip(buf.child_ns()) {
                let entry = out.entry(s.name).or_default();
                entry.count += 1;
                entry.total_ns += s.duration_ns();
                entry.self_ns += s.duration_ns().saturating_sub(children);
            }
        }
        out
    }

    /// Writes every span as a tab-separated row: buffer, index, request,
    /// name, class, start, end, parent, self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "thread\tspan\tquery\tname\tclass\tstart_ns\tend_ns\tparent\tself_ns"
        )?;
        for (t, buf) in self.bufs.iter().enumerate() {
            let child_ns = buf.child_ns();
            for (i, s) in buf.spans.iter().enumerate() {
                let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
                writeln!(
                    out,
                    "{t}\t{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                    s.query,
                    s.name,
                    s.class,
                    s.start_ns,
                    s.end_ns,
                    s.duration_ns().saturating_sub(child_ns[i])
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut buf = SpanBuf::new(Instant::now());
        let root = buf.open(1, "root", "", None);
        buf.time(1, "child", "", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        buf.close(root);
        let mut trace = Trace::default();
        trace.push(buf);
        let st = trace.self_times();
        let (root, child) = (st["root"], st["child"]);
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.self_ns >= 2_000_000);
    }
}
