//! The estimator: repeats of one deterministic solve, each bracketed by
//! the reference kernel, reduced to medians of normalised samples.

use crate::refkernel::RefKernel;
use crate::result::{Metrics, RunResult};
use crate::stats::{cv, median, norm_factor, percentile, split_half_rel_diff};
use crate::sys;
use rhrsc_runtime::trace::{EventKind, Tracer, Track};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced repeats every traced run makes at least, whatever the clock says.
const MIN_TRACED_PAIRS: usize = 8;

/// What one repeat (one complete set-up and solve) measured. Times are
/// raw seconds; the harness normalises them.
#[derive(Default)]
pub struct RepeatOutcome {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Time on the modelled hardware, where the workload models any.
    pub modeled_s: Option<f64>,
    /// Submit→result latency of each Interactive job (`serve_sweep`;
    /// empty where a repeat is one job).
    pub latencies_s: Vec<f64>,
    /// Exact interior zone updates of the solve.
    pub zone_updates: u64,
    /// Heap allocations of the timed set-up and solve.
    pub allocs: u64,
    /// Digest of the final state.
    pub digest: u64,
    /// Operations attempted (1, or the job count on `serve_sweep`).
    pub ops: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

/// One of the five front-ends under test.
pub trait Workload {
    /// One complete, deterministic set-up and solve. Checks run inside,
    /// outside the timers. With `trace`, the solve is driven through the
    /// finer public calls with a span around each; the result is the same.
    fn repeat(&mut self, id: u32, trace: Option<&TraceCtx>) -> RepeatOutcome;

    /// L1(ρ) of repeat 0's final state against the workload's reference.
    fn l1_density_error(&mut self) -> Result<f64, String>;

    /// The L1 above which the solution counts as wrong.
    fn l1_gate(&self) -> f64;

    /// Checks made once per process, outside the timers; one line per
    /// failure.
    fn check_once(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Standalone layer timings and exact counts of the traced pass.
    fn probe_layers(&mut self, trace: &TraceCtx, out: &mut Metrics);

    /// Release what must be released in order (the serve pool).
    fn shutdown(&mut self) {}
}

/// Span recorder of the traced pass: the repo's own flight recorder, one
/// track for the harness, plus the reference kernel for normalising
/// standalone timings.
pub struct TraceCtx {
    pub tracer: Arc<Tracer>,
    track: Arc<Track>,
    refk: RefCell<RefKernel>,
}

impl TraceCtx {
    fn new() -> Self {
        let tracer = Arc::new(Tracer::new(1 << 16));
        let track = tracer.track(1000, 0, "benchmark");
        TraceCtx {
            tracer,
            track,
            refk: RefCell::new(RefKernel::new()),
        }
    }

    /// Run `f` under a span; returns its value and the span's raw seconds.
    /// Spans nest by containment; `repeat` rides along as the span's
    /// argument so the spans of one repeat share an identifier.
    pub fn span<T>(&self, name: &'static str, repeat: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.tracer.now_ns();
        let out = f();
        let t1 = self.tracer.now_ns();
        self.track.span_arg(name, t0, t1, f64::from(repeat));
        (out, (t1 - t0) as f64 * 1e-9)
    }

    /// Run `f` between two reference runs; returns its value and the
    /// factor that normalises times measured inside it.
    pub fn bracket<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.refk.borrow_mut().run();
        let out = f();
        let after = self.refk.borrow_mut().run();
        (out, norm_factor(before, after))
    }

    /// Median normalised seconds of `reps` calls of `f`, each under a span
    /// named `name`.
    pub fn probe(&self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let (secs, factor) = self.bracket(|| {
            (0..reps)
                .map(|i| self.span(name, i as u32, &mut f).1)
                .collect::<Vec<f64>>()
        });
        median(&secs) * factor
    }

    /// Per span name on the harness track: count, total seconds and self
    /// seconds (the span minus the spans it contains).
    fn span_table(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let (mut events, _) = self.track.events();
        events.retain(|e| e.kind == EventKind::Span);
        // Parents start no later and end no earlier than their children.
        events.sort_by_key(|e| (e.t_ns, std::cmp::Reverse(e.dur_ns)));
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        // Stack of (end, name) of the spans open at the current event.
        let mut open: Vec<(u64, &'static str)> = Vec::new();
        for e in &events {
            while open.last().is_some_and(|&(end, _)| end <= e.t_ns) {
                open.pop();
            }
            let dur = e.dur_ns as f64 * 1e-9;
            if let Some(&(_, parent)) = open.last() {
                table.get_mut(parent).expect("parent was recorded").2 -= dur;
            }
            let row = table.entry(e.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += dur;
            row.2 += dur;
            open.push((e.t_ns + e.dur_ns, e.name));
        }
        table
    }
}

/// The samples of a run, one entry per timed repeat.
#[derive(Default)]
struct Samples {
    factor: Vec<f64>,
    setup: Vec<f64>,
    solve_raw: Vec<f64>,
    solve: Vec<f64>,
    modeled: Vec<f64>,
    rate: Vec<f64>,
    latency: Vec<f64>,
    allocs: Vec<f64>,
}

impl Samples {
    fn push(&mut self, out: &RepeatOutcome, ref_before: f64, ref_after: f64) {
        let f = norm_factor(ref_before, ref_after);
        let solve = out.solve_s * f;
        self.factor.push(f);
        self.setup.push(out.setup_s * f);
        self.solve_raw.push(out.solve_s);
        self.solve.push(solve);
        self.modeled.push(out.modeled_s.unwrap_or(out.solve_s) * f);
        self.rate.push(out.zone_updates as f64 / solve);
        self.latency.extend(out.latencies_s.iter().map(|l| l * f));
        self.allocs.push(out.allocs as f64);
    }
}

/// Tally of operations; prints the first few failure lines.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    digest0: Option<u64>,
}

impl Ledger {
    /// `n` more operations failed, for the reason `why`.
    fn fail(&mut self, n: u64, why: &str) {
        if self.failed < 20 {
            eprintln!("FAILED: {why}");
        }
        self.failed += n;
    }

    /// One operation outside the repeats (a once-per-process check).
    fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.fail(1, &why);
        }
    }

    /// Account one repeat: its own failures plus the cross-repeat digest.
    fn account(&mut self, id: u32, out: &RepeatOutcome) {
        self.attempted += out.ops;
        let mut whys = out.failures.clone();
        match self.digest0 {
            None => self.digest0 = Some(out.digest),
            Some(d) if d != out.digest => whys.push(format!(
                "final-state digest {:016x} differs from repeat 0's {d:016x}",
                out.digest
            )),
            Some(_) => {}
        }
        // A repeat cannot fail more operations than it attempted.
        let budget = out.ops as usize;
        for why in whys.iter().take(budget) {
            self.fail(1, &format!("repeat {id}: {why}"));
        }
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(w: &mut dyn Workload, seconds: u64) -> RunResult {
    let mut refk = RefKernel::new();
    let mut ledger = Ledger::default();
    for why in w.check_once() {
        ledger.check(Some(why));
    }
    // Repeat 0 warms caches and lazy set-up; it anchors the digest and
    // the L1 error and is not timed.
    ledger.account(0, &w.repeat(0, None));
    let gate = w.l1_gate();
    let l1 = match w.l1_density_error() {
        Ok(l1) => {
            let over = l1 > gate || !l1.is_finite();
            ledger.check(over.then(|| format!("L1(rho) {l1} exceeds the gate {gate}")));
            l1
        }
        Err(why) => {
            ledger.check(Some(format!("L1(rho) could not be computed: {why}")));
            gate
        }
    };

    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut ref_before = refk.run();
    let mut id = 1;
    while Instant::now() < deadline {
        let out = w.repeat(id, None);
        let ref_after = refk.run();
        s.push(&out, ref_before, ref_after);
        ledger.account(id, &out);
        ref_before = ref_after;
        id += 1;
    }
    w.shutdown();
    assert!(!s.solve.is_empty(), "no repeat fitted in {seconds} s");

    let mut m = Metrics::default();
    m.set("setup_s", median(&s.setup));
    m.set("time_to_solution_s", median(&s.solve));
    m.set("zone_updates_per_s", median(&s.rate));
    m.set("modeled_time_s", median(&s.modeled));
    if s.latency.is_empty() {
        // One job per repeat: its latency is the time to solution.
        s.latency.push(median(&s.solve));
    }
    m.set("job_latency_p50_s", median(&s.latency));
    m.set("job_latency_p90_s", percentile(&s.latency, 0.9));
    m.set("l1_density_error", l1);
    m.set("peak_rss_mib", sys::peak_rss_mib().expect("VmHWM"));
    m.set("heap_allocs_per_solve", median(&s.allocs));
    eprintln!(
        "# {} timed repeats, {} job latencies; reference kernel cv {:.4}, split-half difference {:.4}",
        s.solve.len(),
        s.latency.len(),
        cv(&s.factor),
        split_half_rel_diff(&s.solve)
    );
    RunResult {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: m,
    }
}

/// The traced run: standalone layer probes, then traced repeats
/// interleaved with untraced ones (their ratio is the tracing overhead).
/// The trace is written to `trace_path` at the end.
pub fn run_traced(w: &mut dyn Workload, seconds: u64, trace_path: &Path) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let trace = TraceCtx::new();
    let mut refk = RefKernel::new();
    let mut ledger = Ledger::default();
    let mut m = Metrics::default();
    for layer in &crate::spec::PER_LAYER {
        m.set(layer.name, 0.0);
    }
    ledger.account(0, &w.repeat(0, None));
    w.probe_layers(&trace, &mut m);

    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let mut refs = vec![refk.run()];
    let mut id = 1;
    while plain.solve.len() < MIN_TRACED_PAIRS || Instant::now() < deadline {
        // Alternate which goes first, so that order effects cancel.
        let mut pair = [None, Some(&trace)];
        if plain.solve.len() % 2 == 1 {
            pair.reverse();
        }
        for tr in pair {
            let out = w.repeat(id, tr);
            let (before, after) = (refs[refs.len() - 1], refk.run());
            refs.push(after);
            let samples = if tr.is_some() {
                &mut traced
            } else {
                &mut plain
            };
            samples.push(&out, before, after);
            ledger.account(id, &out);
            id += 1;
        }
    }
    w.shutdown();

    m.set("harness.ref_kernel_s", median(&refs));
    m.set("harness.ref_kernel_cv", cv(&refs));
    m.set("harness.raw_time_to_solution_s", median(&plain.solve_raw));
    m.set(
        "harness.split_half_rel_diff",
        split_half_rel_diff(&plain.solve),
    );
    m.set(
        "harness.trace_overhead_frac",
        median(&traced.solve) / median(&plain.solve) - 1.0,
    );

    eprintln!(
        "# {} traced and {} untraced repeats",
        traced.solve.len(),
        plain.solve.len()
    );
    eprintln!("# spans on the harness track: name, count, total s, self s");
    for (name, (count, total, own)) in trace.span_table() {
        eprintln!("#   {name:<44} {count:>6} {total:>10.6} {own:>10.6}");
    }
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("cannot create the trace directory");
    }
    trace
        .tracer
        .write(trace_path)
        .expect("cannot write the trace");
    RunResult {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: m,
    }
}
