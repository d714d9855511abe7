//! Span-based flight-recorder tracing.
//!
//! The metrics layer ([`crate::metrics`]) aggregates *how much* time each
//! phase costs; this module records *when* — a bounded, always-on event
//! timeline per rank/thread ("flight recorder" semantics: fixed-capacity
//! ring buffers, old events overwritten, so a run can trace forever and
//! still replay its last moments after a fault).
//!
//! * [`Tracer`] owns the per-track ring buffers and the trace epoch. One
//!   tracer is shared by every rank of a run, like a metrics `Registry`.
//! * [`Track`] is one timeline: `pid` is the owning rank (a Perfetto
//!   *process*), `tid` a thread/stream within it (main loop, device
//!   queue). Tracks record three event kinds: **spans** (begin/end with a
//!   duration), **instants** (points in time: a suspicion, a breaker
//!   trip) and **counters** (sampled values: the physics-health series).
//! * Timestamps use the same virtual-time-aware convention as the phase
//!   histograms: in virtual-time universes the caller stamps events with
//!   the rank's virtual clock (a rank's wall clock there also runs while
//!   it waits for a message, or for the CPU token of a universe with more
//!   ranks than cores); otherwise with wall time since the trace epoch.
//!   [`Tracer::stamp`] implements the choice.
//!
//! The sink is the Chrome trace-event JSON format, loadable by Perfetto
//! (`ui.perfetto.dev`) and `chrome://tracing`: one process per rank, one
//! track per thread, hand-rolled JSON like the BENCH reports (this crate
//! stays dependency-free). [`Tracer::write`] exports on demand;
//! [`Tracer::dump_on_fault`] is a one-shot latch the driver pulls on
//! fault escalation so the recorder's last window survives a dying run.
//!
//! A run is traced when its caller builds a [`Tracer`] and attaches it (the
//! benches do on `--trace-out <path>`, with rings of [`DEFAULT_CAPACITY`]
//! events). Disabled tracing is one `Option` check per event site, and
//! instrumentation never changes the numbers.

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-track ring capacity (events) of the benches' flight recorders.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A begin/end interval; `dur_ns` holds the duration.
    Span,
    /// A point in time (`arg` carries a small payload, e.g. a peer rank).
    Instant,
    /// A sampled value series (`arg` is the sample).
    Counter,
}

/// One trace event. 40 bytes, `Copy`, no allocation on the record path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Start time in nanoseconds since the trace epoch (virtual
    /// nanoseconds in virtual-time universes).
    pub t_ns: u64,
    /// Span duration in nanoseconds (0 for instants/counters).
    pub dur_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Static event name (`phase.halo.wait`, `liveness.suspect`, …).
    pub name: &'static str,
    /// Payload: counter value, instant argument, span annotation.
    pub arg: f64,
}

/// Fixed-capacity overwrite-oldest ring.
struct Ring {
    cap: usize,
    buf: Vec<Event>,
    /// Next write position once the buffer has filled.
    next: usize,
    /// Events overwritten (total recorded = buf.len() + dropped).
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap,
            buf: Vec::with_capacity(cap),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// One timeline of the flight recorder (a Perfetto thread track).
pub struct Track {
    pid: u32,
    tid: u32,
    name: String,
    ring: Mutex<Ring>,
}

impl Track {
    /// The owning rank (Perfetto process id).
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Record a completed span `[t0_ns, t1_ns]`.
    pub fn span(&self, name: &'static str, t0_ns: u64, t1_ns: u64) {
        self.span_arg(name, t0_ns, t1_ns, 0.0);
    }

    /// Record a completed span with an annotation payload.
    pub fn span_arg(&self, name: &'static str, t0_ns: u64, t1_ns: u64, arg: f64) {
        self.ring.lock().push(Event {
            t_ns: t0_ns,
            dur_ns: t1_ns.saturating_sub(t0_ns),
            kind: EventKind::Span,
            name,
            arg,
        });
    }

    /// Record an instant event.
    pub fn instant(&self, name: &'static str, t_ns: u64, arg: f64) {
        self.ring.lock().push(Event {
            t_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            name,
            arg,
        });
    }

    /// Record a counter sample.
    pub fn counter(&self, name: &'static str, t_ns: u64, value: f64) {
        self.ring.lock().push(Event {
            t_ns,
            dur_ns: 0,
            kind: EventKind::Counter,
            name,
            arg: value,
        });
    }

    /// Snapshot the ring: events oldest-first, plus the overwrite count.
    pub fn events(&self) -> (Vec<Event>, u64) {
        let ring = self.ring.lock();
        (ring.ordered(), ring.dropped)
    }
}

/// The flight recorder: a set of ring-buffer tracks plus the export
/// sinks. Shared across ranks behind an `Arc`, like a metrics registry.
pub struct Tracer {
    capacity: usize,
    epoch: Instant,
    tracks: Mutex<Vec<Arc<Track>>>,
    dump_path: Mutex<Option<PathBuf>>,
    dumped: AtomicBool,
}

impl Tracer {
    /// A tracer whose tracks each hold `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(16),
            epoch: Instant::now(),
            tracks: Mutex::new(Vec::new()),
            dump_path: Mutex::new(None),
            dumped: AtomicBool::new(false),
        }
    }

    /// Per-track ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Where [`Tracer::dump_on_fault`] writes.
    fn dump_path(&self) -> Option<PathBuf> {
        self.dump_path.lock().clone()
    }

    /// Set the fault-dump/export path.
    pub fn set_dump_path(&self, path: Option<PathBuf>) {
        *self.dump_path.lock() = path;
    }

    /// Wall nanoseconds since the trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Timestamp "now" for an event: the rank's virtual clock when
    /// `vtime` is `Some` (virtual-time universes), wall time otherwise.
    pub fn stamp(&self, vtime: Option<f64>) -> u64 {
        match vtime {
            Some(v) => (v.max(0.0) * 1e9) as u64,
            None => self.now_ns(),
        }
    }

    /// Get or create the track `(pid, tid)`. The first creation names
    /// it; later callers share the same ring.
    pub fn track(&self, pid: u32, tid: u32, name: &str) -> Arc<Track> {
        let mut tracks = self.tracks.lock();
        if let Some(t) = tracks.iter().find(|t| t.pid == pid && t.tid == tid) {
            return t.clone();
        }
        let t = Arc::new(Track {
            pid,
            tid,
            name: name.to_string(),
            ring: Mutex::new(Ring::new(self.capacity)),
        });
        tracks.push(t.clone());
        t
    }

    /// Every event of every track, merged into one globally ordered
    /// timeline: sorted by timestamp, ties broken by `(pid, tid)` and
    /// then per-track record order (the sort is stable), so merged order
    /// is deterministic under virtual time.
    fn merged_events(&self) -> Vec<(u32, u32, Event)> {
        let mut all = Vec::new();
        for track in self.tracks.lock().iter() {
            let (events, _) = track.events();
            all.extend(events.into_iter().map(|e| (track.pid, track.tid, e)));
        }
        all.sort_by_key(|e| (e.2.t_ns, e.0, e.1));
        all
    }

    /// Render the whole recorder as Chrome trace-event JSON (Perfetto
    /// loadable): process/thread metadata per track, `"X"` complete
    /// events for spans, `"i"` instants, `"C"` counters, timestamps in
    /// microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&s);
        };
        let tracks = self.tracks.lock().clone();
        let mut seen_pids = Vec::new();
        for track in &tracks {
            if !seen_pids.contains(&track.pid) {
                seen_pids.push(track.pid);
                emit(
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\
                         \"args\":{{\"name\":\"rank{}\"}}}}",
                        track.pid, track.pid
                    ),
                    &mut out,
                );
            }
            let (_, dropped) = track.events();
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{},\"dropped\":{}}}}}",
                    track.pid,
                    track.tid,
                    json_str(&track.name),
                    dropped
                ),
                &mut out,
            );
        }
        for (pid, tid, ev) in self.merged_events() {
            let ts = ev.t_ns as f64 / 1e3;
            let common = format!(
                "\"pid\":{},\"tid\":{},\"ts\":{},\"name\":{}",
                pid,
                tid,
                json_num(ts),
                json_str(ev.name)
            );
            let line = match ev.kind {
                EventKind::Span => format!(
                    "{{\"ph\":\"X\",{common},\"dur\":{},\"args\":{{\"arg\":{}}}}}",
                    json_num(ev.dur_ns as f64 / 1e3),
                    json_num(ev.arg)
                ),
                EventKind::Instant => format!(
                    "{{\"ph\":\"i\",{common},\"s\":\"t\",\"args\":{{\"arg\":{}}}}}",
                    json_num(ev.arg)
                ),
                EventKind::Counter => format!(
                    "{{\"ph\":\"C\",{common},\"args\":{{\"value\":{}}}}}",
                    json_num(ev.arg)
                ),
            };
            emit(line, &mut out);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Write the trace to `path`, creating missing parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())
    }

    /// Like [`Tracer::write`], but degrades gracefully: on failure (e.g.
    /// a read-only results tree) it warns on stderr and skips the write
    /// instead of erroring. Returns whether the file was written.
    pub fn write_or_warn(&self, path: &Path) -> bool {
        match self.write(path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "[trace] warning: cannot write trace to {}: {e}; skipping",
                    path.display()
                );
                false
            }
        }
    }

    /// One-shot fault dump: the first call writes the trace to the
    /// configured dump path (see [`Tracer::set_dump_path`]) with a
    /// `fault.dump` instant appended; later calls (and runs with no dump
    /// path) are no-ops. The driver pulls this on fault escalation so
    /// the recorder's last window survives the crash.
    pub fn dump_on_fault(&self, pid: u32, reason: &'static str, t_ns: u64) {
        let Some(path) = self.dump_path() else {
            return;
        };
        if self.dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.track(pid, 0, "main").instant("fault.dump", t_ns, 0.0);
        eprintln!(
            "[trace] fault escalation ({reason}) on rank {pid}: dumping flight record to {}",
            path.display()
        );
        self.write_or_warn(&path);
    }
}

/// JSON string literal with escaping (control chars, quotes, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite `f64` (non-finite values clamp to 0, which JSON
/// cannot represent), trimmed via Rust's round-trip `Display`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let tracer = Tracer::new(16);
        let track = tracer.track(0, 0, "main");
        for i in 0..40u64 {
            track.instant("tick", i, i as f64);
        }
        let (events, dropped) = track.events();
        assert_eq!(events.len(), 16);
        assert_eq!(dropped, 24);
        // The survivors are exactly the newest 16, oldest-first.
        let ts: Vec<u64> = events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, (24..40).collect::<Vec<_>>());
    }

    #[test]
    fn wraparound_is_deterministic_across_capacities() {
        // A fixed pseudo-random event sequence recorded into a small and
        // a large ring: the small ring's content must equal the tail of
        // the large ring's — crossing the wrap boundary changes what is
        // *kept*, never the sequence itself.
        let gen_events = |n: usize| -> Vec<Event> {
            let mut state = 0x9e3779b97f4a7c15u64; // fixed seed
            (0..n)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let kind = match state % 3 {
                        0 => EventKind::Span,
                        1 => EventKind::Instant,
                        _ => EventKind::Counter,
                    };
                    Event {
                        t_ns: i as u64 * 10 + (state % 7),
                        dur_ns: if kind == EventKind::Span {
                            state % 100
                        } else {
                            0
                        },
                        kind,
                        name: "e",
                        arg: (state % 1000) as f64,
                    }
                })
                .collect()
        };
        let seq = gen_events(1000);
        let record = |cap: usize| -> Vec<Event> {
            let tracer = Tracer::new(cap);
            let track = tracer.track(0, 0, "t");
            for e in &seq {
                match e.kind {
                    EventKind::Span => track.span_arg(e.name, e.t_ns, e.t_ns + e.dur_ns, e.arg),
                    EventKind::Instant => track.instant(e.name, e.t_ns, e.arg),
                    EventKind::Counter => track.counter(e.name, e.t_ns, e.arg),
                }
            }
            track.events().0
        };
        let small = record(64);
        let large = record(512);
        assert_eq!(small.len(), 64);
        assert_eq!(large.len(), 512);
        assert_eq!(
            small[..],
            large[512 - 64..],
            "small ring must be the tail of the large one"
        );
        // And the large ring is itself the tail of the full sequence.
        assert_eq!(large[..], seq[1000 - 512..]);
    }

    #[test]
    fn tracks_are_shared_by_id() {
        let tracer = Tracer::new(64);
        let a = tracer.track(3, 1, "dev");
        let b = tracer.track(3, 1, "other-name-ignored");
        assert!(Arc::ptr_eq(&a, &b));
        a.instant("x", 5, 0.0);
        assert_eq!(b.events().0.len(), 1);
        assert_eq!(tracer.tracks.lock().len(), 1);
    }

    #[test]
    fn merged_events_are_time_ordered() {
        let tracer = Tracer::new(64);
        let r0 = tracer.track(0, 0, "rank0");
        let r1 = tracer.track(1, 0, "rank1");
        r1.instant("b", 20, 0.0);
        r0.instant("a", 10, 0.0);
        r0.span("s", 5, 30);
        r1.instant("c", 10, 0.0);
        let merged = tracer.merged_events();
        let ts: Vec<u64> = merged.iter().map(|(_, _, e)| e.t_ns).collect();
        assert_eq!(ts, vec![5, 10, 10, 20]);
        // Equal timestamps break ties by pid.
        assert_eq!(merged[1].0, 0);
        assert_eq!(merged[2].0, 1);
    }

    #[test]
    fn chrome_json_shape() {
        let tracer = Tracer::new(64);
        let t = tracer.track(0, 0, "main");
        t.span("phase.x", 1000, 3000);
        t.instant("evt \"quoted\"", 1500, 2.0);
        t.counter("health.drift", 2000, 1e-9);
        let json = tracer.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\\\"quoted\\\""));
        // Non-finite payloads never reach the JSON.
        t.counter("bad", 2500, f64::NAN);
        assert!(!tracer.to_chrome_json().contains("NaN"));
    }

    #[test]
    fn write_creates_parent_dirs_and_degrades_gracefully() {
        let dir = std::env::temp_dir().join("rhrsc-trace-writer-test");
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new(64);
        tracer.track(0, 0, "main").instant("x", 1, 0.0);
        let nested = dir.join("a/b/trace.json");
        assert!(tracer.write_or_warn(&nested));
        assert!(nested.exists());
        // A path whose "parent directory" is a regular file cannot be
        // created: the writer must warn and skip, not panic or error.
        let file = dir.join("plainfile");
        std::fs::write(&file, b"x").unwrap();
        let bad = file.join("sub/trace.json");
        assert!(!tracer.write_or_warn(&bad));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_dump_latches_once() {
        let dir = std::env::temp_dir().join("rhrsc-trace-dump-test");
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new(64);
        // No dump path: a no-op.
        tracer.dump_on_fault(0, "test", 10);
        let path = dir.join("fault/trace.json");
        tracer.set_dump_path(Some(path.clone()));
        tracer.track(0, 0, "main").instant("x", 1, 0.0);
        tracer.dump_on_fault(0, "test", 20);
        assert!(path.exists());
        let first = std::fs::read_to_string(&path).unwrap();
        // Second dump is a no-op even after more events.
        tracer.track(0, 0, "main").instant("y", 30, 0.0);
        tracer.dump_on_fault(0, "again", 40);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stamp_prefers_virtual_time() {
        let tracer = Tracer::new(16);
        assert_eq!(tracer.stamp(Some(1.5)), 1_500_000_000);
        assert_eq!(tracer.stamp(Some(-1.0)), 0);
        let w = tracer.stamp(None);
        assert!(w < 10_000_000_000, "wall stamp should be near the epoch");
    }
}
