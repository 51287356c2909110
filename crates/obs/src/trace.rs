//! The span/event recorder: thread-local buffers drained into a process-wide
//! flight recorder, exported as Chrome-trace JSON.
//!
//! # Design
//!
//! Tracing is **off by default** and every recording entry point starts with
//! a single relaxed load of one [`AtomicBool`] — when disabled, a span is a
//! branch and nothing else, so instrumented hot loops pay no measurable cost
//! (an ignored release test in `mvn-bench`, run alone in CI, guards this
//! < 5% of a factor + solve even when *enabled*). When enabled, each thread appends events to its own buffer
//! behind a thread-local handle (one uncontended lock per event, no
//! allocation for the common ≤ 3-argument case) and the exporter sweeps all
//! registered thread buffers at drain time — recording threads never contend
//! with each other.
//!
//! Timestamps are nanoseconds since a process-wide epoch captured once at
//! first use ([`now_ns`]), so events from every thread share one monotonic
//! axis. Cross-process timelines (the `mvn-dist` coordinator merging worker
//! ranks) are aligned by giving each process its own `pid` at export time;
//! Chrome-trace viewers render pids as separate process lanes.
//!
//! # Non-perturbation
//!
//! Recording only reads the clock and appends to side buffers: no code path
//! branches on a numeric result, no synchronization is added on any task
//! dependency edge. Enabling tracing therefore cannot change a single result
//! bit — the workspace's bitwise non-interference suite asserts this for the
//! engine, served and distributed paths.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Maximum number of `(key, value)` arguments carried inline by an [`Event`]
/// (no heap allocation per event; excess arguments are dropped).
pub const MAX_ARGS: usize = 3;

/// What an [`Event`] marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span begin (`ph: "B"`); must be closed by an [`EventKind::End`] on the
    /// same thread — [`SpanGuard`] guarantees the pairing.
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// A complete span (`ph: "X"`) with an explicit duration: used for phases
    /// whose begin and end are observed on different threads (e.g. a request's
    /// queue wait) or reconstructed after the fact (per-rank aggregates).
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
}

/// One recorded trace event. `label` is interned ([`intern`]) so events are
/// small and comparisons are pointer-cheap; `ts_ns` is nanoseconds since the
/// process epoch; `tid` is a small per-thread id assigned on first use.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event kind (span begin/end, complete).
    pub kind: EventKind,
    /// Static (or interned) label.
    pub label: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Recording thread id (process-local, assigned on first use).
    pub tid: u64,
    /// Inline `(key, value)` arguments; only the first `nargs` are valid.
    pub args: [(&'static str, u64); MAX_ARGS],
    /// Number of valid entries in `args`.
    pub nargs: u8,
}

impl Event {
    /// The valid argument slice.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.nargs as usize]
    }
}

fn pack_args(args: &[(&'static str, u64)]) -> ([(&'static str, u64); MAX_ARGS], u8) {
    let mut packed = [("", 0u64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    (packed, n as u8)
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

type ThreadBuf = Mutex<Vec<Event>>;

/// All per-thread buffers ever registered (buffers outlive their threads so
/// events from finished workers are still swept at drain time).
static THREADS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: OnceCell<(u64, Arc<ThreadBuf>)> = const { OnceCell::new() };
}

/// Is tracing currently enabled? One relaxed load — this is the whole cost of
/// every instrumented site while tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable recording. Captures the process epoch on first enable so
/// all subsequent timestamps share one monotonic axis.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process trace epoch (captured once, on first use).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(u64, &ThreadBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let (tid, buf) = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let buf: Arc<ThreadBuf> = Arc::new(Mutex::new(Vec::new()));
            THREADS.lock().unwrap().push(Arc::clone(&buf));
            (tid, buf)
        });
        f(*tid, buf)
    })
}

fn push(kind: EventKind, label: &'static str, args: &[(&'static str, u64)]) {
    let ts_ns = now_ns();
    let (packed, nargs) = pack_args(args);
    with_local(|tid, buf| {
        buf.lock().unwrap().push(Event {
            kind,
            label,
            ts_ns,
            tid,
            args: packed,
            nargs,
        });
    });
}

/// RAII span: [`span`]/[`span_with`] emit the begin event, dropping the guard
/// emits the matching end. If tracing was disabled at creation the guard is a
/// complete no-op; if it was enabled, the end event is emitted even if
/// tracing is switched off mid-span, so begin/end events always balance.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard {
    label: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(label) = self.label {
            push(EventKind::End, label, &[]);
        }
    }
}

/// Open a span with no arguments (see [`span_with`]).
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    span_with(label, &[])
}

/// Open a span carrying up to [`MAX_ARGS`] `(key, value)` arguments. Costs a
/// single relaxed load when tracing is disabled.
#[inline]
pub fn span_with(label: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard { label: None };
    }
    push(EventKind::Begin, label, args);
    SpanGuard { label: Some(label) }
}

/// Record a complete (`ph: "X"`) span from an explicit start timestamp
/// (a previous [`now_ns`]) to now — for phases observed across threads.
#[inline]
pub fn complete_since(label: &'static str, start_ns: u64, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let end = now_ns();
    let dur_ns = end.saturating_sub(start_ns);
    let ts_ns = start_ns.min(end);
    let (packed, nargs) = pack_args(args);
    with_local(|tid, buf| {
        buf.lock().unwrap().push(Event {
            kind: EventKind::Complete { dur_ns },
            label,
            ts_ns,
            tid,
            args: packed,
            nargs,
        });
    });
}

/// Drain every registered thread buffer into one list, sorted by timestamp
/// (stable, so same-timestamp events keep per-thread recording order and
/// begin/end pairs never invert). The recorder is left empty.
pub fn take_events() -> Vec<Event> {
    let threads = THREADS.lock().unwrap();
    let mut all = Vec::new();
    for buf in threads.iter() {
        all.append(&mut buf.lock().unwrap());
    }
    drop(threads);
    all.sort_by_key(|e| e.ts_ns);
    all
}

/// Interned copy of a dynamic label: returns a `&'static str` that compares
/// equal (and pointer-equal) for equal inputs. Backed by a leaked read-mostly
/// map; the leak is bounded by the number of *distinct* labels, which for
/// task names is small and fixed.
pub fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<RwLock<BTreeMap<String, &'static str>>> = OnceLock::new();
    let map = INTERNED.get_or_init(|| RwLock::new(BTreeMap::new()));
    if let Some(&v) = map.read().unwrap().get(s) {
        return v;
    }
    let mut w = map.write().unwrap();
    if let Some(&v) = w.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    w.insert(s.to_owned(), leaked);
    leaked
}

fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_event(out: &mut String, pid: u64, e: &Event) {
    let (ph, dur): (&str, Option<u64>) = match e.kind {
        EventKind::Begin => ("B", None),
        EventKind::End => ("E", None),
        EventKind::Complete { dur_ns } => ("X", Some(dur_ns)),
    };
    out.push_str("{\"name\":\"");
    write_escaped(out, e.label);
    out.push_str("\",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&e.tid.to_string());
    // Chrome trace timestamps are microseconds; emit fractional µs so ns
    // resolution survives.
    out.push_str(",\"ts\":");
    out.push_str(&format!("{:.3}", e.ts_ns as f64 / 1000.0));
    if let Some(d) = dur {
        out.push_str(",\"dur\":");
        out.push_str(&format!("{:.3}", d as f64 / 1000.0));
    }
    if e.nargs > 0 {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            write_escaped(out, k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push('}');
    }
    out.push('}');
}

/// Render event groups — one `(pid, events)` pair per process lane — as a
/// Chrome-trace (`chrome://tracing` / Perfetto) JSON object.
pub fn export_chrome_trace(groups: &[(u64, &[Event])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, events) in groups {
        for e in *events {
            if !first {
                out.push(',');
            }
            first = false;
            write_event(&mut out, *pid, e);
        }
    }
    out.push_str("]}");
    out
}

/// Drain the recorder ([`take_events`]) and export it as a single-process
/// Chrome-trace JSON string with the given `pid`.
pub fn export_current(pid: u64) -> String {
    let events = take_events();
    export_chrome_trace(&[(pid, &events)])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace tests share the process-global recorder; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = locked();
        set_enabled(false);
        let _ = take_events();
        {
            let _s = span_with("noop", &[("k", 1)]);
            complete_since("phase", now_ns(), &[]);
        }
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_balance_and_nest_per_thread() {
        let _g = locked();
        set_enabled(true);
        let _ = take_events();
        {
            let _outer = span_with("outer", &[("worker", 3)]);
            {
                let _inner = span("inner");
            }
            complete_since("tick", now_ns(), &[("n", 7)]);
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 5);
        // Per-thread begin/end discipline: a stack replay must stay balanced.
        let mut stack = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Begin => stack.push(e.label),
                EventKind::End => {
                    assert_eq!(stack.pop(), Some(e.label), "unbalanced end for {}", e.label)
                }
                _ => {}
            }
        }
        assert!(stack.is_empty());
        assert_eq!(events[0].label, "outer");
        assert_eq!(events[0].args(), &[("worker", 3)]);
    }

    #[test]
    fn end_event_still_emitted_if_disabled_mid_span() {
        let _g = locked();
        set_enabled(true);
        let _ = take_events();
        let s = span("torn");
        set_enabled(false);
        drop(s);
        let events = take_events();
        let begins = events.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = events.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
    }

    #[test]
    fn multithreaded_events_get_distinct_tids_and_sorted_export() {
        let _g = locked();
        set_enabled(true);
        let _ = take_events();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span_with("work", &[("i", i)]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 8);
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread gets its own tid");
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns, "export must be time-sorted");
        }
    }

    #[test]
    fn chrome_export_contains_all_phases_and_valid_framing() {
        let _g = locked();
        set_enabled(true);
        let _ = take_events();
        {
            let _s = span("alpha");
        }
        set_enabled(false);
        let mut events = take_events();
        let (args, nargs) = pack_args(&[("rank", 2)]);
        events.push(Event {
            kind: EventKind::Complete { dur_ns: 20 },
            label: "gamma",
            ts_ns: 10,
            tid: 0,
            args,
            nargs,
        });
        let json = export_chrome_trace(&[(5, &events)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":5"));
        assert!(json.contains("\"dur\":0.020"));
        assert!(json.contains("\"rank\":2"));
    }

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("panel_sweep");
        let b = intern(&String::from("panel_sweep"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "panel_sweep");
        assert_ne!(intern("other"), a);
    }

    #[test]
    fn complete_since_clamps_inverted_clocks() {
        let _g = locked();
        set_enabled(true);
        let _ = take_events();
        // A start stamp "in the future" must not underflow.
        complete_since("weird", now_ns() + 1_000_000_000, &[]);
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 1);
        match events[0].kind {
            EventKind::Complete { dur_ns } => assert_eq!(dur_ns, 0),
            _ => panic!("expected complete event"),
        }
    }
}
