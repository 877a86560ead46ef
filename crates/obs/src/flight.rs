//! Flight recorder: a bounded, lock-light journal of runtime events.
//!
//! The recorder keeps one fixed-capacity ring segment per thread; a
//! thread records into its own segment under a mutex nobody else
//! touches except during [`snapshot`], so the hot path is one relaxed
//! load of the enable flag, and — when enabled — one uncontended lock
//! plus a ring write. With the recorder disabled (the default) a call
//! to [`record`] returns after the flag load, the same discipline the
//! metrics registry keeps for its 2% disabled-path budget.
//!
//! Events are fixed-size, and recording one allocates nothing once its
//! thread's ring has grown and has seen its kind: a monotonic
//! microsecond timestamp (shared origin across threads, from
//! [`std::time::Instant`] so wall-clock steps cannot reorder them), a
//! `&'static` kind tag, a correlation `key` (request id, frame index),
//! and two `u64` payload words whose meaning is per-kind. A segment
//! stores each one in a 32-byte slot: the timestamp in the low 48 bits
//! of one word (about 8.9 years of µs; later stamps read back as
//! [`MAX_TS_US`]), a segment-local kind index in its high 16 bits, then
//! the three payload words. The thread id lives once on the segment and
//! the kind tags in its small kind table, so [`snapshot`] rebuilds the
//! public 56-byte [`FlightEvent`]s. When a segment fills, the oldest
//! events on that thread are overwritten and counted in `dropped` — the
//! journal is a flight recorder, not a log: it answers "what was the
//! system doing just before X", not "everything that ever happened".
//!
//! [`snapshot`] merges every segment oldest-first and stable-sorts by
//! timestamp, so per-thread event order is preserved exactly and
//! cross-thread order is as good as the clock. [`FlightSnapshot::to_jsonl`]
//! renders the `lamps-flight-v1` dump format (one header line, then one
//! JSON object per event) that the last-gasp hook writes and
//! `lamps_verify` structurally checks.

use crate::json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static FLIGHT: AtomicBool = AtomicBool::new(false);

/// Turn flight recording on process-wide.
pub fn enable_flight() {
    FLIGHT.store(true, Ordering::Relaxed);
}

/// Turn flight recording off process-wide (already-recorded events are
/// kept until [`clear`]).
pub fn disable_flight() {
    FLIGHT.store(false, Ordering::Relaxed);
}

/// Whether flight recording is currently enabled.
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT.load(Ordering::Relaxed)
}

/// Default per-thread ring capacity, in events.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4096;

static SEGMENT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_SEGMENT_CAPACITY);

/// Set the per-thread ring capacity for segments created *after* this
/// call (existing segments keep their size). Clamped to at least 16 so
/// a request lifecycle always fits.
pub fn set_segment_capacity(events: usize) {
    SEGMENT_CAPACITY.store(events.max(16), Ordering::Relaxed);
}

// --- Event kinds -----------------------------------------------------
//
// Kinds are `&'static str` tags, namespaced by the recording crate.
// The constants live here so recorders and checkers agree on spelling.

/// Connection accepted; `key` = connection ordinal.
pub const SERVE_ACCEPT: &str = "serve.accept";
/// Request admitted to the queue; `key` = request id, `a` = queue depth.
pub const SERVE_ADMIT: &str = "serve.admit";
/// Request rejected with `overloaded`; `key` = request id, `a` = depth.
pub const SERVE_OVERLOAD: &str = "serve.overload";
/// Worker began solving; `key` = request id.
pub const SERVE_SOLVE_START: &str = "serve.solve.start";
/// Worker finished; `key` = request id, `a` = steps explored,
/// `b` = 0 ok / 1 degraded / 2 error.
pub const SERVE_SOLVE_DONE: &str = "serve.solve.done";
/// Reply handed to the connection writer; `key` = request id.
pub const SERVE_REPLY: &str = "serve.reply";
/// Queue-depth sample; `a` = depth, `b` = capacity.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// A worker panicked while solving; `key` = request id.
pub const SERVE_PANIC: &str = "serve.panic";
// The `online.*` kinds are journaled by `lamps-sim`'s frame executor,
// with one payload set for both runtimes: an online frame's `key` is its
// index in the stream, a fault run is frame 0.

/// Online frame admitted; `key` = frame index, `a` = backlog (0).
pub const ONLINE_ADMIT: &str = "online.admit";
/// Online frame deferred; `key` = frame index, `a` = backlog,
/// `b` = delay in µs.
pub const ONLINE_DEFER: &str = "online.defer";
/// Online frame shed; `key` = frame index, `a` = backlog.
pub const ONLINE_SHED: &str = "online.shed";
/// Slack-reclamation suffix re-solve after an early completion;
/// `key` = frame index, `a` = candidate levels evaluated, `b` = 1 if the
/// re-plan was feasible (and adopted).
pub const ONLINE_RECLAIM: &str = "online.reclaim";
/// Fail-stop suffix re-plan; `key` = frame index, `a` = candidate levels
/// evaluated, `b` = 1 if the re-plan meets the frame's deadlines.
pub const ONLINE_RESOLVE: &str = "online.resolve";
/// Fault-ladder rung taken; `key` = frame index, `a` = rung
/// (0 rescheduled after a fail-stop / 1 base level raised / 2 task
/// boosted), `b` = tasks migrated (rung 0), the failed processor
/// (rung 1), or the boosted task (rung 2).
pub const ONLINE_FAULT: &str = "online.fault";
/// A frame missed a deadline; `key` = frame index, `a` = late (or
/// never-finished) jobs.
pub const ONLINE_MISS: &str = "online.miss";
/// A solve budget expired; `a` = explored, `b` = total candidates.
pub const CORE_BUDGET_EXPIRED: &str = "core.budget.expired";
/// Suffix re-solve completed; `a` = steps, `b` = 1 if key-cache hit.
pub const CORE_SUFFIX_RESOLVE: &str = "core.suffix.resolve";

/// One recorded event, as [`snapshot`] returns it. Fixed-size and
/// `Copy`; payload words `a`/`b` are per-kind (see the kind constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the recorder's origin (monotonic clock), at
    /// most [`MAX_TS_US`].
    pub ts_us: u64,
    /// Small per-process thread id, assigned in first-record order.
    pub tid: u64,
    /// Event kind tag (one of the constants above, by convention).
    pub kind: &'static str,
    /// Correlation key: request id, frame index, or 0.
    pub key: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// The latest timestamp a slot can hold: 2^48 − 1 µs, about 8.9 years
/// after the recorder's origin. A later stamp is stored as this.
pub const MAX_TS_US: u64 = (1 << KIND_SHIFT) - 1;

/// The kind a thread's events read back with once its kind table is
/// full (65,535 distinct kinds): the last of the slot's 16-bit kind
/// indices is reserved for it.
pub const KIND_OVERFLOW: &str = "flight.kind_overflow";

const KIND_SHIFT: u32 = 48;
const OVERFLOW_INDEX: u16 = u16::MAX;

/// One stored event: 32 bytes. `ts_kind` holds the timestamp in its
/// low 48 bits and the segment-local kind index in its high 16; the
/// thread id is the segment's.
struct Slot {
    ts_kind: u64,
    key: u64,
    a: u64,
    b: u64,
}

/// A segment's kind tags, indexed by the 16-bit index its slots store.
/// A tag is looked up by address first (every use of a constant in one
/// crate shares it), then by text, so equal tags at two addresses — a
/// constant inlined into two crates, a leaked copy — share one index.
#[derive(Default)]
struct KindTable {
    names: Vec<&'static str>,
    /// Indices into `names`, ordered by text.
    by_text: Vec<u16>,
}

/// How many of a table's first kinds the address lookup scans. A thread
/// records a handful of kinds; any past these are found by text alone,
/// so even a full table costs a bounded scan and a binary search.
const ADDR_SCAN: usize = 64;

impl KindTable {
    fn index(&mut self, kind: &'static str) -> u16 {
        let scanned = &self.names[..self.names.len().min(ADDR_SCAN)];
        if let Some(i) = scanned.iter().position(|&k| std::ptr::eq(k, kind)) {
            return i as u16;
        }
        let names = &self.names;
        let at = match self
            .by_text
            .binary_search_by(|&i| names[usize::from(i)].cmp(kind))
        {
            Ok(p) => return self.by_text[p],
            Err(p) => p,
        };
        if names.len() >= usize::from(OVERFLOW_INDEX) {
            return OVERFLOW_INDEX;
        }
        let i = names.len() as u16;
        self.names.push(kind);
        self.by_text.insert(at, i);
        i
    }

    fn name(&self, index: u16) -> &'static str {
        self.names
            .get(usize::from(index))
            .copied()
            .unwrap_or(KIND_OVERFLOW)
    }
}

struct Segment {
    tid: u64,
    kinds: KindTable,
    ring: Vec<Slot>,
    capacity: usize,
    /// Insertion index once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl Segment {
    fn push(&mut self, ts_us: u64, kind: &'static str, key: u64, a: u64, b: u64) {
        let kind = u64::from(self.kinds.index(kind));
        let ts_kind = (kind << KIND_SHIFT) | ts_us.min(MAX_TS_US);
        let slot = Slot { ts_kind, key, a, b };
        if self.ring.len() < self.capacity {
            if self.ring.len() == self.ring.capacity() {
                // Double, but never past the capacity: it is user input
                // (`--flight-capacity`), so a ring holds only what its
                // thread has recorded, and no slack beyond the capacity.
                let len = self.ring.len();
                self.ring.reserve_exact(len.max(8).min(self.capacity - len));
            }
            self.ring.push(slot);
        } else {
            self.ring[self.next] = slot;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events oldest-first.
    fn ordered(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        let (newer, older) = self.ring.split_at(self.next);
        older.iter().chain(newer).map(|s| FlightEvent {
            ts_us: s.ts_kind & MAX_TS_US,
            tid: self.tid,
            kind: self.kinds.name((s.ts_kind >> KIND_SHIFT) as u16),
            key: s.key,
            a: s.a,
            b: s.b,
        })
    }
}

struct Recorder {
    origin: Instant,
    segments: Mutex<Vec<Arc<Mutex<Segment>>>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        segments: Mutex::new(Vec::new()),
    })
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static SEGMENT: std::cell::OnceCell<Arc<Mutex<Segment>>> =
        const { std::cell::OnceCell::new() };
}

/// Record one event. One relaxed atomic load when disabled.
#[inline]
pub fn record(kind: &'static str, key: u64, a: u64, b: u64) {
    if !flight_enabled() {
        return;
    }
    let ts_us = now_us();
    record_event(ts_us, kind, key, a, b);
}

/// The recorder's monotonic clock, in microseconds since its origin.
/// Returns 0 without touching the clock when recording is disabled.
///
/// Use with [`record_at`] to stamp an event *before* the action it
/// describes becomes visible to other threads — e.g. take the timestamp
/// before pushing a job onto a shared queue, so a worker that dequeues
/// it immediately cannot journal its own event with an earlier time.
#[inline]
pub fn now_us() -> u64 {
    if !flight_enabled() {
        return 0;
    }
    Instant::now().duration_since(recorder().origin).as_micros() as u64
}

/// Record one event with a timestamp captured earlier via [`now_us`].
/// One relaxed atomic load when disabled.
#[inline]
pub fn record_at(ts_us: u64, kind: &'static str, key: u64, a: u64, b: u64) {
    if !flight_enabled() {
        return;
    }
    record_event(ts_us, kind, key, a, b);
}

#[cold]
fn new_segment() -> Arc<Mutex<Segment>> {
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    let seg = Arc::new(Mutex::new(Segment {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        kinds: KindTable::default(),
        ring: Vec::new(),
        capacity: SEGMENT_CAPACITY.load(Ordering::Relaxed),
        next: 0,
        dropped: 0,
    }));
    lock(&recorder().segments).push(Arc::clone(&seg));
    seg
}

fn record_event(ts_us: u64, kind: &'static str, key: u64, a: u64, b: u64) {
    SEGMENT.with(|cell| lock(cell.get_or_init(new_segment)).push(ts_us, kind, key, a, b));
}

/// A merged point-in-time copy of every thread's segment.
#[derive(Debug, Clone, Default)]
pub struct FlightSnapshot {
    /// Events stable-sorted by timestamp (per-thread order preserved).
    pub events: Vec<FlightEvent>,
    /// Events overwritten by ring wraparound, summed over threads.
    pub dropped: u64,
}

impl FlightSnapshot {
    /// The last `n` events (the freshest tail of the journal).
    pub fn tail(&self, n: usize) -> &[FlightEvent] {
        &self.events[self.events.len().saturating_sub(n)..]
    }

    /// Render the `lamps-flight-v1` dump: one JSON header line
    /// (`schema`, `reason`, `events`, `dropped`), then one JSON object
    /// per event.
    pub fn to_jsonl(&self, reason: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\": \"lamps-flight-v1\", \"reason\": ");
        json::write_string(&mut out, reason);
        let _ = writeln!(
            out,
            ", \"events\": {}, \"dropped\": {}}}",
            self.events.len(),
            self.dropped
        );
        for ev in &self.events {
            write_event_json(&mut out, ev);
            out.push('\n');
        }
        out
    }
}

/// Append one event as a single-line JSON object (no trailing newline).
pub fn write_event_json(out: &mut String, ev: &FlightEvent) {
    out.push_str("{\"ts_us\": ");
    json::write_u64(out, ev.ts_us);
    out.push_str(", \"tid\": ");
    json::write_u64(out, ev.tid);
    out.push_str(", \"kind\": ");
    json::write_string(out, ev.kind);
    for (name, value) in [
        (", \"key\": ", ev.key),
        (", \"a\": ", ev.a),
        (", \"b\": ", ev.b),
    ] {
        out.push_str(name);
        json::write_u64(out, value);
    }
    out.push('}');
}

/// Merge every segment into a timestamp-ordered snapshot. Segments are
/// locked one at a time, so the snapshot is consistent per thread but
/// only loosely ordered across threads (as good as the shared clock).
pub fn snapshot() -> FlightSnapshot {
    let segments = lock(&recorder().segments).clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for seg in &segments {
        let s = lock(seg);
        events.extend(s.ordered());
        dropped += s.dropped;
    }
    // Stable sort: events from one thread keep their recorded order.
    events.sort_by_key(|e| e.ts_us);
    FlightSnapshot { events, dropped }
}

/// Number of events currently buffered across all threads.
pub fn event_count() -> usize {
    let segments = lock(&recorder().segments).clone();
    segments.iter().map(|s| lock(s).ring.len()).sum()
}

/// Empty every segment and zero the drop counters (segments stay
/// registered to their threads). For tests and benchmarks.
pub fn clear() {
    let segments = lock(&recorder().segments).clone();
    for seg in &segments {
        let mut s = lock(seg);
        s.ring.clear();
        s.next = 0;
        s.dropped = 0;
    }
}

// --- Last gasp -------------------------------------------------------

fn last_gasp_path() -> &'static Mutex<Option<std::path::PathBuf>> {
    static PATH: OnceLock<Mutex<Option<std::path::PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Configure (or clear) the file the flight buffer is dumped to when
/// [`last_gasp`] fires — on a serve worker panic or a structured
/// deadline miss.
pub fn set_last_gasp_path(path: Option<std::path::PathBuf>) {
    *lock(last_gasp_path()) = path;
}

/// Dump the current flight buffer to the configured last-gasp file,
/// tagged with `reason`. Returns the path written, or `None` when no
/// path is configured or the write failed — a post-mortem hook must
/// never take the process down with it.
pub fn last_gasp(reason: &str) -> Option<std::path::PathBuf> {
    let path = lock(last_gasp_path()).clone()?;
    match dump_to_file(&path, reason) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

/// Write the current flight buffer to `path` as a `lamps-flight-v1`
/// dump, atomically (temp file + rename) so readers never see a torn
/// file.
pub fn dump_to_file(path: &std::path::Path, reason: &str) -> std::io::Result<()> {
    let text = snapshot().to_jsonl(reason);
    crate::expo::write_atomic(path, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::test_lock;

    #[test]
    fn a_slot_is_32_bytes_and_a_default_segment_128_kib() {
        // A ring stores 8 ts_kind + 3 × 8 payload per event, so a default
        // segment is 4096 × 32 bytes = 128 KiB. The public event keeps
        // its 56 bytes: 8 ts_us + 8 tid + 16 kind (pointer and length) +
        // 3 × 8 payload.
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(
            DEFAULT_SEGMENT_CAPACITY * std::mem::size_of::<Slot>(),
            128 * 1024
        );
        assert_eq!(std::mem::size_of::<FlightEvent>(), 56);
    }

    /// Record on a fresh thread, so the events have a segment of their
    /// own, and return them as the snapshot reads them back.
    fn recorded_on_a_fresh_thread(record_all: impl FnOnce() + Send + 'static) -> Vec<FlightEvent> {
        enable_flight();
        clear();
        let tid = std::thread::spawn(move || {
            record_all();
            SEGMENT.with(|c| lock(c.get().expect("recorded")).tid)
        })
        .join()
        .unwrap();
        disable_flight();
        let events = snapshot()
            .events
            .into_iter()
            .filter(|e| e.tid == tid)
            .collect();
        clear();
        events
    }

    #[test]
    fn equal_kind_text_at_two_addresses_is_one_kind() {
        let _g = test_lock();
        let leaked: &'static str = Box::leak(String::from("test.flight.alias").into_boxed_str());
        let constant: &'static str = "test.flight.alias";
        assert_ne!(leaked.as_ptr(), constant.as_ptr());
        let mut table = KindTable::default();
        let first = table.index(constant);
        assert_eq!(table.index(leaked), first);
        assert_eq!(table.index(constant), first);
        assert_eq!(table.names.len(), 1, "one text, one kind");
        assert_eq!(table.index("test.flight.other"), first + 1);
        let events = recorded_on_a_fresh_thread(move || {
            record_at(1, constant, 1, 0, 0);
            record_at(2, leaked, 2, 0, 0);
        });
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.key)).collect();
        assert_eq!(kinds, [(constant, 1), (constant, 2)]);
    }

    #[test]
    fn dump_format_is_pinned() {
        let event = |ts_us, tid, kind, key, a, b| FlightEvent {
            ts_us,
            tid,
            kind,
            key,
            a,
            b,
        };
        let snap = FlightSnapshot {
            events: vec![
                event(0, 0, SERVE_ADMIT, 7, 3, 0),
                event(15, 1, SERVE_SOLVE_DONE, 7, 120, 1),
                event(MAX_TS_US, 2, "test.\"quoted\"", u64::MAX, 0, 42),
            ],
            dropped: 5,
        };
        let expected = concat!(
            "{\"schema\": \"lamps-flight-v1\", \"reason\": \"pin\", \"events\": 3, \"dropped\": 5}\n",
            "{\"ts_us\": 0, \"tid\": 0, \"kind\": \"serve.admit\", \"key\": 7, \"a\": 3, \"b\": 0}\n",
            "{\"ts_us\": 15, \"tid\": 1, \"kind\": \"serve.solve.done\", \"key\": 7, \"a\": 120, \"b\": 1}\n",
            "{\"ts_us\": 281474976710655, \"tid\": 2, \"kind\": \"test.\\\"quoted\\\"\", ",
            "\"key\": 18446744073709551615, \"a\": 0, \"b\": 42}\n",
        );
        assert_eq!(snap.to_jsonl("pin"), expected);
    }

    #[test]
    fn timestamps_past_48_bits_read_back_as_the_maximum() {
        let _g = test_lock();
        let stamps = [0, 12_345, MAX_TS_US, MAX_TS_US + 1, u64::MAX];
        let events = recorded_on_a_fresh_thread(move || {
            for (i, &ts) in stamps.iter().enumerate() {
                record_at(ts, "test.flight.ts", i as u64, ts, !ts);
            }
        });
        let got: Vec<_> = events
            .iter()
            .map(|e| (e.ts_us, e.kind, e.key, e.a, e.b))
            .collect();
        let want: Vec<_> = stamps
            .iter()
            .enumerate()
            .map(|(i, &ts)| (ts.min(MAX_TS_US), "test.flight.ts", i as u64, ts, !ts))
            .collect();
        assert_eq!(
            got, want,
            "the stamp saturates; kind and payload stay intact"
        );
    }

    #[test]
    fn kinds_past_the_table_read_back_as_the_overflow_kind() {
        let _g = test_lock();
        // 65,537 distinct six-digit tags, sliced from one leaked string.
        let text: &'static str = Box::leak(
            (0..65_537)
                .map(|i| format!("{i:06}"))
                .collect::<String>()
                .into_boxed_str(),
        );
        let tag = |i: usize| &text[6 * i..6 * i + 6];
        set_segment_capacity(16);
        let events = recorded_on_a_fresh_thread(move || {
            for i in 0..65_537 {
                record_at(i as u64, tag(i), i as u64, 0, 0);
            }
            record_at(65_537, tag(0), 0, 0, 0);
            record_at(65_538, tag(1000), 1000, 0, 0);
        });
        set_segment_capacity(DEFAULT_SEGMENT_CAPACITY);
        let kinds: Vec<_> = events.iter().map(|e| (e.key, e.kind)).collect();
        // The table holds 65,535 kinds; the 65,536th and 65,537th share
        // the overflow kind, and known kinds, inside and past the address
        // scan, still read back as themselves.
        assert_eq!(
            &kinds[10..],
            [
                (65_533, tag(65_533)),
                (65_534, tag(65_534)),
                (65_535, KIND_OVERFLOW),
                (65_536, KIND_OVERFLOW),
                (0, tag(0)),
                (1000, tag(1000))
            ]
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        disable_flight();
        clear();
        record("test.flight.off", 1, 2, 3);
        assert!(!snapshot()
            .events
            .iter()
            .any(|e| e.kind == "test.flight.off"));
    }

    #[test]
    fn events_record_in_order_with_monotonic_timestamps() {
        let _g = test_lock();
        enable_flight();
        clear();
        for i in 0..10u64 {
            record("test.flight.order", i, i * 2, 0);
        }
        disable_flight();
        let snap = snapshot();
        let ours: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == "test.flight.order")
            .collect();
        assert_eq!(ours.len(), 10);
        for (i, ev) in ours.iter().enumerate() {
            assert_eq!(ev.key, i as u64);
            assert_eq!(ev.a, i as u64 * 2);
            if i > 0 {
                assert!(ev.ts_us >= ours[i - 1].ts_us);
            }
        }
        clear();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = test_lock();
        enable_flight();
        clear();
        // Record from a fresh thread with a tiny segment so this test
        // controls its own ring.
        set_segment_capacity(16);
        let handle = std::thread::spawn(|| {
            for i in 0..40u64 {
                record("test.flight.ring", i, 0, 0);
            }
        });
        handle.join().unwrap();
        set_segment_capacity(DEFAULT_SEGMENT_CAPACITY);
        disable_flight();
        let snap = snapshot();
        let ours: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == "test.flight.ring")
            .collect();
        assert_eq!(ours.len(), 16, "ring keeps exactly its capacity");
        assert!(snap.dropped >= 24, "dropped {} < 24", snap.dropped);
        // The survivors are the newest 24..40, oldest-first.
        assert_eq!(ours.first().unwrap().key, 24);
        assert_eq!(ours.last().unwrap().key, 39);
        clear();
    }

    #[test]
    fn threads_get_distinct_ids_and_merge_preserves_per_thread_order() {
        let _g = test_lock();
        enable_flight();
        clear();
        let handles: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        record("test.flight.threads", t * 100 + i, 0, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable_flight();
        let snap = snapshot();
        let ours: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == "test.flight.threads")
            .collect();
        assert_eq!(ours.len(), 150);
        let mut tids: Vec<u64> = ours.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "three recording threads, three ids");
        // Per-thread key order must survive the merge sort.
        for tid in tids {
            let keys: Vec<u64> = ours
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.key % 100)
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "tid {tid} reordered");
        }
        clear();
    }

    #[test]
    fn jsonl_dump_round_trips_through_the_parser() {
        let _g = test_lock();
        enable_flight();
        clear();
        record(SERVE_ADMIT, 7, 3, 0);
        record(SERVE_REPLY, 7, 0, 0);
        disable_flight();
        let text = snapshot().to_jsonl("test");
        clear();
        let mut lines = text.lines();
        let header = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").unwrap().as_str(),
            Some("lamps-flight-v1")
        );
        assert_eq!(header.get("reason").unwrap().as_str(), Some("test"));
        let n = header.get("events").unwrap().as_number().unwrap() as usize;
        let body: Vec<_> = lines.collect();
        assert_eq!(body.len(), n);
        for line in body {
            let ev = crate::json::parse(line).unwrap();
            for field in ["ts_us", "tid", "key", "a", "b"] {
                assert!(ev.get(field).unwrap().as_number().is_some());
            }
            assert!(ev.get("kind").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn last_gasp_writes_configured_file() {
        let _g = test_lock();
        enable_flight();
        clear();
        record(SERVE_PANIC, 9, 0, 0);
        disable_flight();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lamps-flight-gasp-{}.jsonl", std::process::id()));
        set_last_gasp_path(Some(path.clone()));
        let written = last_gasp("worker-panic").expect("dump written");
        set_last_gasp_path(None);
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        let header = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("reason").unwrap().as_str(), Some("worker-panic"));
        std::fs::remove_file(&path).ok();
        assert!(last_gasp("no path").is_none());
        clear();
    }
}
