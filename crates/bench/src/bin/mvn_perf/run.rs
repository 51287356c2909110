//! The per-process run context: options, the metric table, the correctness
//! tally, and the benchmark-side spans the per-layer times are computed from.

use crate::catalog::{self, RUN_SECONDS};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often set-up is rebuilt from scratch in one run; `setup_s` takes the
/// median of the repetitions (plus the single warm-up repetition).
pub const SETUPS: usize = 3;

/// Idle time before `dist_dense`'s warm-up (see [`Run::settle`]).
const SETTLE: Duration = Duration::from_secs(4);

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Run {
    pub opts: Opts,
    pub metrics: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
    /// Chrome-trace lanes `(pid, events)` collected by the traced repetition.
    pub lanes: Vec<(u64, Vec<obs::Event>)>,
}

impl Run {
    pub fn new(opts: Opts) -> Self {
        Self {
            opts,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            lanes: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.opts.seed
    }

    /// Record a metric; the name must be declared in the catalog.
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(catalog::decl(name).is_some(), "undeclared metric {name:?}");
        self.metrics.insert(name, summary);
    }

    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// One checked operation: counts as attempted, and as failed (with the
    /// reason on stderr) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("mvn_perf: CHECK FAILED [{}] {}", self.opts.workload, what());
        }
    }

    /// Timed repetitions for a workload whose stated count is `base`: scaled
    /// by `--seconds / run_seconds`, never below 3 (smoke runs do one). A
    /// traced run times a quarter of them, untraced, as the reference its
    /// one traced repetition is held against.
    pub fn reps(&self, base: usize) -> usize {
        if self.opts.smoke {
            1
        } else if self.opts.trace {
            (base / 4).max(1)
        } else {
            ((base as f64 * self.opts.seconds / RUN_SECONDS).round() as usize).max(3)
        }
    }

    /// Run `build` [`SETUPS`] times from scratch (dropping the previous
    /// state first), keeping the last state; returns it with the median
    /// wall time of one set-up.
    pub fn setup<S>(&mut self, mut build: impl FnMut(&mut Run) -> S) -> (S, f64) {
        let count = if self.opts.smoke { 1 } else { SETUPS };
        let mut walls = Vec::with_capacity(count);
        let mut state = None;
        for _ in 0..count {
            drop(state.take());
            let t = Instant::now();
            state = Some(build(self));
            walls.push(t.elapsed().as_secs_f64());
        }
        (state.expect("at least one set-up"), stats::median(&walls))
    }

    /// Let the machine go idle before `dist_dense` starts its warm-up. On the
    /// 2-core reference box a repetition started straight after 4 s of busy
    /// cores takes 0.33 s, one started from idle 0.46–0.50 s; with this wait
    /// both read 0.43–0.50 s (README, suspect 4). The wait is not part of
    /// `setup_s`.
    pub fn settle(&self) {
        if !self.opts.smoke {
            std::thread::sleep(SETTLE);
        }
    }

    /// The end-to-end metrics of a serve workload — it reports `req_per_s`,
    /// `p50_ms` and `p99_ms` — from its segments: their walls, how many
    /// requests each answered correctly, and each one's request latencies in
    /// seconds. `solve_s`, which only the contract line carries, is the
    /// median segment wall.
    pub fn set_end_to_end_serve(
        &mut self,
        setup_s: f64,
        walls: &[f64],
        answered: &[f64],
        latencies: &[&[f64]],
    ) {
        let pooled = latencies.concat();
        let rates: Vec<f64> = walls.iter().zip(answered).map(|(w, ok)| ok / w).collect();
        let ms = |s: f64| s * 1e3;
        let p50s: Vec<f64> = latencies.iter().map(|l| ms(stats::median(l))).collect();
        let tails: Vec<f64> = latencies.iter().map(|l| ms(stats::tail(l).0)).collect();
        // When every segment is long enough to support its own p99, report
        // the median of the segments' p99 (one disturbed segment cannot move
        // it); otherwise the tail of the pooled latencies.
        let segments_support_p99 = latencies
            .iter()
            .all(|l| stats::percentile(l, 0.99).1 >= stats::MIN_BEYOND);
        let tail = if segments_support_p99 {
            stats::median(&tails)
        } else {
            ms(stats::tail(&pooled).0)
        };
        self.set_value("setup_s", setup_s);
        self.set("solve_s", Summary::median_of(walls));
        self.set("req_per_s", Summary::median_of(&rates));
        self.set("p50_ms", Summary::around(ms(stats::median(&pooled)), &p50s));
        self.set("p99_ms", Summary::around(tail, &tails));
        self.set_value("peak_rss_mb", peak_rss_mb());
    }

    /// The end-to-end metrics of a batch workload — it reports `solve_s`, the
    /// median repetition wall. One repetition is one operation, so the
    /// request metrics the contract line must still carry restate that clock
    /// (the tail too: a handful of repetitions supports no percentile).
    pub fn set_end_to_end_batch(&mut self, setup_s: f64, walls: &[f64]) {
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
        self.set_value("setup_s", setup_s);
        self.set("solve_s", Summary::median_of(walls));
        self.set("req_per_s", Summary::median_of(&rates));
        self.set("p50_ms", Summary::median_of(&ms));
        self.set("p99_ms", Summary::median_of(&ms));
        self.set_value("peak_rss_mb", peak_rss_mb());
    }

    /// Open the benchmark-side span `bench.<workload>.<phase>`.
    pub fn span(&self, phase: &str, rep: u64) -> obs::SpanGuard {
        obs::span_with(self.label(phase), &[("rep", rep), ("seed", self.opts.seed)])
    }

    /// The interned label of `bench.<workload>.<phase>`.
    pub fn label(&self, phase: &str) -> &'static str {
        obs::intern(&format!("bench.{}.{phase}", self.opts.workload))
    }

    /// Run one repetition with tracing on and return its benchmark spans.
    /// The drained events (the program's own included) are kept as lane 0 of
    /// the Chrome trace.
    pub fn traced<T>(&mut self, rep: impl FnOnce(&mut Run) -> T) -> (T, Spans) {
        obs::take_events(); // discard anything recorded before the repetition
        obs::set_enabled(true);
        let out = rep(self);
        obs::set_enabled(false);
        let events = obs::take_events();
        let spans = Spans::from_events(&events);
        self.set_value("obs.events", events.len() as f64);
        self.lanes.push((0, events));
        (out, spans)
    }

    /// The guard metrics of a traced repetition against the untraced one.
    pub fn set_trace_guards(&mut self, spans: &Spans, untraced_wall: f64) {
        let root = self.label("rep");
        let traced_wall = spans.total(root);
        self.set_value(
            "obs.trace_overhead_pct",
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
        );
        self.set_value("bench.attributed_frac", spans.attributed_frac(root));
    }

    /// Seconds spent in `bench.<workload>.<phase>` spans.
    pub fn phase_s(&self, spans: &Spans, phase: &str) -> f64 {
        spans.total(self.label(phase))
    }
}

/// Closed benchmark spans (`bench.*` labels only) of one traced repetition.
pub struct Spans(Vec<SpanRec>);

struct SpanRec {
    label: &'static str,
    start: u64,
    end: u64,
}

impl Spans {
    /// Pair begin/end events per thread, keeping `bench.*` spans — the only
    /// spans a per-layer time may be computed from, so renaming a span inside
    /// the program cannot move a metric.
    pub fn from_events(events: &[obs::Event]) -> Self {
        let mut open: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
        let mut spans = Vec::new();
        for e in events.iter().filter(|e| e.label.starts_with("bench.")) {
            match e.kind {
                obs::EventKind::Begin => open.entry(e.tid).or_default().push((e.label, e.ts_ns)),
                obs::EventKind::End => {
                    let (label, start) = open
                        .get_mut(&e.tid)
                        .and_then(Vec::pop)
                        .expect("bench span ends without a begin");
                    assert_eq!(label, e.label, "bench spans must nest");
                    spans.push(SpanRec {
                        label,
                        start,
                        end: e.ts_ns,
                    });
                }
                _ => {}
            }
        }
        Spans(spans)
    }

    /// Summed duration of the spans labelled `label`, in seconds.
    pub fn total(&self, label: &str) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.end - s.start)
            .sum();
        ns as f64 * 1e-9
    }

    /// Share of the `root` span's wall covered by the other benchmark spans
    /// (on any thread): 1 − self time / duration.
    pub fn attributed_frac(&self, root: &str) -> f64 {
        let Some(root_span) = self.0.iter().find(|s| s.label == root) else {
            return 0.0;
        };
        let mut children: Vec<(u64, u64)> = self
            .0
            .iter()
            .filter(|s| s.label != root)
            .map(|s| (s.start.max(root_span.start), s.end.min(root_span.end)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0u64, root_span.start);
        for (s, e) in children {
            if e > reach {
                covered += e - s.max(reach);
                reach = e;
            }
        }
        covered as f64 / (root_span.end - root_span.start).max(1) as f64
    }
}

/// One idle-priority busy loop per core (`nice -n 19 mvn_perf spin`) for the
/// life of the value, so that no core of this virtual machine ever halts.
///
/// `serve_hot` is a chain of thread wake-ups (client → connection handler →
/// shard → client) of which every one that lands on a halted core is paid to
/// the hypervisor, and what the hypervisor charges changes with what else
/// the host is doing: on the reference box a two-thread ping-pong round trip
/// costs 31–42 µs from halted cores and 2.5–2.9 µs when they never halt, and
/// the same `serve_hot` binary answered 1,230 req/s (p50 12.9 ms) in one set
/// of ten runs and 1,516 req/s (10.3 ms) in the next, half an hour later.
/// With the loops it answers the higher figure either way; they give way to
/// every other thread and cost the workload under 2 % of a core.
pub struct KeepAwake(Vec<Child>);

impl KeepAwake {
    pub fn start() -> Self {
        let exe = std::env::current_exe().expect("path of this binary");
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let spinners = (0..cores).map(|_| {
            Command::new("nice")
                .args(["-n", "19"])
                .arg(&exe)
                .arg("spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()
        });
        match spinners.collect() {
            Ok(children) => Self(children),
            Err(e) => {
                eprintln!("mvn_perf: cannot start `nice`, the cores may halt ({e})");
                Self(Vec::new())
            }
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Errors mean it is gone already.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `mvn_perf spin`: busy until the parent closes this process's stdin, which
/// it does by [`KeepAwake`]'s drop or by dying in any other way.
pub fn spin_until_orphaned() -> ! {
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}

/// Run `f`, returning its result and wall time in seconds. A result that is
/// expensive to drop (a factor) is dropped by the caller, after the clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|t| t.parse().expect("tick count"))
        .collect();
    (ticks[7], ticks.iter().sum())
}

/// Share of the machine's CPU time the hypervisor gave to someone else since
/// `since`, in percent.
pub fn steal_pct(since: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    100.0 * (now.0 - since.0) as f64 / (now.1 - since.1).max(1) as f64
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Busy seconds and task count a pool accrued under `label` between two
/// [`task_runtime::PoolStats`] snapshots.
pub fn label_delta(
    before: &task_runtime::PoolStats,
    after: &task_runtime::PoolStats,
    label: &str,
) -> (f64, u64) {
    let (c0, ns0) = before.label_timing(label).unwrap_or((0, 0));
    let (c1, ns1) = after.label_timing(label).unwrap_or((0, 0));
    ((ns1 - ns0) as f64 * 1e-9, c1 - c0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: obs::EventKind, label: &'static str, ts_ns: u64, tid: u64) -> obs::Event {
        obs::Event {
            kind,
            label,
            ts_ns,
            tid,
            args: [("", 0); obs::MAX_ARGS],
            nargs: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_covered_children() {
        use obs::EventKind::{Begin, End};
        let events = vec![
            ev(Begin, "bench.w.rep", 0, 1),
            ev(Begin, "bench.w.a", 100, 1),
            ev(Begin, "engine_internal", 150, 1), // program spans are ignored
            ev(End, "engine_internal", 160, 1),
            ev(End, "bench.w.a", 400, 1),
            ev(Begin, "bench.w.b", 300, 2), // overlaps `a` on another thread
            ev(End, "bench.w.b", 700, 2),
            ev(End, "bench.w.rep", 1000, 1),
            ev(Begin, "bench.w.a", 900, 3),
            ev(End, "bench.w.a", 1200, 3), // runs past the root: clipped
        ];
        let spans = Spans::from_events(&events);
        assert!((spans.total("bench.w.a") - 600e-9).abs() < 1e-15);
        assert!((spans.total("bench.w.rep") - 1000e-9).abs() < 1e-15);
        // Covered: [100, 700) and [900, 1000) of 1000 ns.
        assert!((spans.attributed_frac("bench.w.rep") - 0.7).abs() < 1e-12);
        assert_eq!(spans.attributed_frac("bench.w.absent"), 0.0);
    }

    #[test]
    fn repetition_count_scales_with_seconds_but_never_below_three() {
        let opts = |seconds, smoke, trace| Opts {
            workload: "pmvn_dense".into(),
            seed: 1,
            seconds,
            trace,
            smoke,
        };
        assert_eq!(Run::new(opts(RUN_SECONDS, false, false)).reps(4), 4);
        assert_eq!(Run::new(opts(2.0 * RUN_SECONDS, false, false)).reps(4), 8);
        assert_eq!(Run::new(opts(1.0, false, false)).reps(4), 3);
        assert_eq!(Run::new(opts(RUN_SECONDS, true, false)).reps(4), 1);
        assert_eq!(Run::new(opts(RUN_SECONDS, false, true)).reps(4), 1);
        assert_eq!(Run::new(opts(RUN_SECONDS, false, true)).reps(20), 5);
    }

    #[test]
    fn process_and_machine_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let since = cpu_ticks();
        assert!(since.1 > 0);
        assert!((0.0..=100.0).contains(&steal_pct(since)));
    }
}
