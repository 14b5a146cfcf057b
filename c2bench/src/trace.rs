//! Bench-side spans: name, start, end and parent, kept in memory and
//! written out as JSON when the run ends. Spans wrap calls into the
//! library's public API or are synthesised from the durations its reports
//! return; nothing inside the library is instrumented.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Record {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one run; records nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    records: Mutex<Vec<Record>>,
}

/// An open span; recorded when ended or dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        self.records.lock().expect("trace lock poisoned").push(Record {
            id,
            parent,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }

    /// Opens a span under `parent` (0 = root).
    pub fn span(&self, name: &'static str, parent: u64) -> Span<'_> {
        let id = if self.on { self.next_id() } else { 0 };
        Span { tracer: self, id, parent, name, start: Instant::now() }
    }

    /// Records a child span of known duration starting at `start`, taken
    /// from a report the library returned; returns its id.
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, dur: Duration) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id();
        self.push(id, parent, name, start, start + dur);
        id
    }

    /// Writes every recorded span as a JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let records = self.records.lock().expect("trace lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, r) in records.iter().enumerate() {
            let sep = if i + 1 == records.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                r.id, r.parent, r.name, r.start_ns, r.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.records.lock().expect("trace lock poisoned").len()
    }
}

impl Span<'_> {
    /// The id children pass as their parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Ends the span and returns its duration.
    pub fn end(self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.tracer.on {
            self.tracer.push(self.id, self.parent, self.name, self.start, Instant::now());
        }
    }
}
