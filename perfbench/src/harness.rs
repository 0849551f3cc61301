//! The run helper every workload shares: repetitions, leg rotation,
//! in-memory spans, medians and quartiles, machine facts, and the result
//! line.
//!
//! One repetition is `setup` (timed as `setup_s`) followed by `work`
//! (timed as `work_cpu_s`), then the workload's output checks, untimed.
//! The bounded metrics are CPU time of the process, all threads
//! ([`cpu_now`]); wall time is printed next to them. On a shared host the
//! wall time of one leg moved by up to 2.3x from minute to minute, with
//! up to a quarter of the machine's CPU time stolen by other guests, while
//! the CPU time of the same leg moved by under 10 %. An
//! untraced run repeats while another repetition should end within
//! `--seconds`, and at least [`MIN_REPS`] times; when the workload's
//! inputs copy ([`Workload::fork`]), only the first [`SETUPS`] repetitions
//! set up and the rest run on a copy. A traced run first runs one untimed
//! warm-up leg, then does the same with pairs of legs, one untraced and
//! one traced, and alternates which leg goes first so that order effects
//! cancel in `obs.overhead_ratio`.

use crate::layers::{self, Source};
use cloudy_obs::Obs;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads every workload runs its parallel layers with.
pub const THREADS: usize = 2;

/// Fewest repetitions an untraced run makes, whatever `--seconds` says,
/// so that every median has at least three samples.
const MIN_REPS: usize = 3;

/// Fewest pairs of legs a traced run makes.
const MIN_TRACED_PAIRS: usize = 2;

/// Set-ups an untraced run of a workload with copyable inputs makes
/// (see [`Workload::fork`]); `setup_s` is their median.
const SETUPS: usize = 2;

/// Short set-ups are repeated until their total reaches this, at most
/// [`SETUP_REPEATS`] times.
const SETUP_BUDGET_S: f64 = 0.3;
const SETUP_REPEATS: usize = 30;

/// FNV-1a over byte strings: a stable digest of program outputs, so two
/// legs can be compared without keeping their outputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// One recorded span: times in microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Handle of an open span; closing a disabled tracer's handle is a no-op.
#[must_use]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. Disabled tracers never read the clock.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: on.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &str) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(None);
        };
        let ix = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: epoch.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
        SpanId(Some(ix))
    }

    pub fn exit(&mut self, id: SpanId) {
        let (Some(epoch), Some(ix)) = (self.epoch, id.0) else {
            return;
        };
        self.spans[ix].end_us = epoch.elapsed().as_secs_f64() * 1e6;
        if self.open.last() == Some(&ix) {
            self.open.pop();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// What one `work` call reports besides its wall time.
#[derive(Default)]
pub struct Out {
    /// Records produced or ingested by the workload's data path.
    pub records: u64,
    /// CPU time of each closed-loop operation, in milliseconds
    /// (difference of two [`cpu_now`] readings).
    pub ops_ms: Vec<f64>,
    /// Operations attempted and failed (a failed check adds to both).
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer counts and ratios read from program return values.
    pub counts: BTreeMap<String, f64>,
    /// Digest of the outputs that must not move between legs.
    pub digest: Digest,
}

impl Out {
    /// Record a per-layer count or ratio.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.insert(name.into(), value);
    }
}

/// A benchmark workload. `setup` builds the inputs (timed as `setup_s`),
/// `work` consumes them (timed as `work_cpu_s`), `check` verifies the outputs
/// `work` kept, untimed, and returns one message per failed check. `obs`
/// is the program's own registry: enabled on traced legs only, so that
/// `obs.overhead_ratio` prices it together with the benchmark's spans.
pub trait Workload {
    type Input;
    fn setup(&mut self, tr: &mut Tracer, obs: &Obs) -> Result<Self::Input, String>;
    fn work(&mut self, input: Self::Input, tr: &mut Tracer, obs: &Obs) -> Result<Out, String>;
    /// Runs after the timed part; it also drops what `work` kept, so that
    /// freeing large outputs is never timed.
    fn check(&mut self, out: &mut Out) -> Vec<String>;
    /// The unit of one closed-loop operation, for the report.
    fn op_name(&self) -> &'static str;
    /// A copy of `input` that `work` can consume as if it came from
    /// `setup`, made untimed, or `None` when an input cannot be copied.
    /// Untraced runs of a workload whose inputs copy set up only
    /// [`SETUPS`] times and run every further leg on a copy, so that more
    /// of the run is timed work.
    fn fork(&self, _input: &Self::Input) -> Option<Self::Input> {
        None
    }
}

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

struct Leg {
    traced: bool,
    /// CPU and wall time of one set-up; NaN on a leg run on a copy.
    setup_s: f64,
    setup_wall_s: f64,
    /// CPU and wall time of the timed part.
    cpu_s: f64,
    wall_s: f64,
    out: Out,
    spans: Vec<Span>,
}

/// Median and quartiles (linear interpolation between order statistics).
#[derive(Debug, Clone, Copy)]
struct Stat {
    n: usize,
    q1: f64,
    median: f64,
    q3: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn stat(values: &[f64]) -> Stat {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    Stat {
        n: v.len(),
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
    }
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads, user and system,
/// in seconds, to the nanosecond. Time the host gives this machine's
/// virtual CPUs to other guests (steal) is not in it.
pub fn cpu_now() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel knows.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return f64::NAN;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Timed set-up of one input: CPU and wall seconds. A short set-up is
/// repeated, untraced, until the repeats add up to SETUP_BUDGET_S of CPU
/// time, and the medians are returned, so that a set-up of milliseconds
/// is not timer and allocator noise.
fn timed_setup<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    obs: &Obs,
) -> Result<(W::Input, f64, f64), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let root = tr.enter("bench.setup");
    let (t0, c0) = (Instant::now(), cpu_now());
    let input = w.setup(tr, obs)?;
    cpu.push(cpu_now() - c0);
    wall.push(secs(t0));
    tr.exit(root);
    while cpu.iter().sum::<f64>() < SETUP_BUDGET_S && cpu.len() < SETUP_REPEATS {
        let (t, c) = (Instant::now(), cpu_now());
        drop(w.setup(&mut Tracer::new(false), &Obs::disabled())?);
        cpu.push(cpu_now() - c);
        wall.push(secs(t));
    }
    Ok((input, stat(&cpu).median, stat(&wall).median))
}

/// One leg. An untraced leg runs on a copy of `base` when there is one;
/// otherwise it sets up, and keeps the input as `base` if it copies. A
/// leg on a copy has no set-up time (NaN, left out of the median).
fn run_leg<W: Workload>(
    w: &mut W,
    traced: bool,
    base: &mut Option<W::Input>,
) -> Result<Leg, String> {
    let mut tr = Tracer::new(traced);
    let obs = if traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let (input, setup_s, setup_wall_s) = match base.as_ref().and_then(|b| w.fork(b)) {
        Some(copy) => (copy, f64::NAN, f64::NAN),
        None => {
            let (input, cpu, wall) = timed_setup(w, &mut tr, &obs)?;
            match w.fork(&input).filter(|_| !traced) {
                Some(copy) => {
                    *base = Some(input);
                    (copy, cpu, wall)
                }
                None => (input, cpu, wall),
            }
        }
    };
    let root = tr.enter("bench.work");
    let (t1, c1) = (Instant::now(), cpu_now());
    let mut out = w.work(input, &mut tr, &obs)?;
    let (wall_s, cpu_s) = (secs(t1), cpu_now() - c1);
    tr.exit(root);
    let problems = w.check(&mut out);
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    out.attempted += 1;
    out.failed += u64::from(!problems.is_empty());
    Ok(Leg {
        traced,
        setup_s,
        setup_wall_s,
        cpu_s,
        wall_s,
        out,
        spans: tr.spans,
    })
}

/// Per-rep self-accounting of a traced leg: (uncovered ms, root ms).
fn coverage(spans: &[Span]) -> (f64, f64) {
    let Some(root) = spans.iter().position(|s| s.name == "bench.work") else {
        return (f64::NAN, f64::NAN);
    };
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::ms)
        .sum();
    let total = spans[root].ms();
    ((total - covered).max(0.0), total)
}

/// Run a workload and print its report and result line. Returns whether
/// every operation and check succeeded.
pub fn run<W: Workload>(w: &mut W, args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let mut legs: Vec<Leg> = Vec::new();
    // A traced run compares two sides of only a few pairs, so it first
    // runs one leg it does not time: the first leg in a process runs on a
    // cold heap and would bias whichever side it landed on. Its outputs are
    // still checked.
    let warmups = usize::from(args.trace);
    for _ in 0..warmups {
        legs.push(run_leg(w, false, &mut None)?);
    }
    let mut base = None;
    let mut rep = 0usize;
    let mut rss = f64::NAN;
    let min_reps = if args.trace {
        MIN_TRACED_PAIRS
    } else {
        MIN_REPS
    };
    // A repetition is started only if it should end within `--seconds`,
    // judged by the one before it, so that a run does not overrun by most
    // of a leg.
    let mut last_rep_s = 0.0;
    while rep < min_reps || start.elapsed().as_secs_f64() + last_rep_s <= args.seconds {
        let rep_start = Instant::now();
        let order: &[bool] = match (args.trace, rep % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        if args.trace {
            for &traced in order {
                legs.push(run_leg(w, traced, &mut None)?);
            }
        } else {
            // The first SETUPS legs set up afresh, so that `setup_s` is a
            // median; later legs run on a copy of the last input if the
            // workload's inputs copy.
            if rep < SETUPS {
                base = None;
            }
            legs.push(run_leg(w, false, &mut base)?);
        }
        if rep == 0 {
            // Peak memory of one leg: later legs would add allocator
            // fragmentation that depends on how many legs fit the run.
            rss = peak_rss_mb();
        }
        rep += 1;
        last_rep_s = secs(rep_start);
    }

    for (i, l) in legs.iter().enumerate() {
        println!(
            "leg {i} traced={} setup_s={} setup_wall_s={} work_cpu_s={} wall_s={} records={}{}",
            l.traced,
            l.setup_s,
            l.setup_wall_s,
            l.cpu_s,
            l.wall_s,
            l.out.records,
            if i < warmups {
                " (warm-up, untimed)"
            } else {
                ""
            }
        );
    }
    let plain: Vec<&Leg> = legs[warmups..].iter().filter(|l| !l.traced).collect();
    let traced: Vec<&Leg> = legs[warmups..].iter().filter(|l| l.traced).collect();
    let attempted: u64 = legs.iter().map(|l| l.out.attempted).sum();
    let mut failed: u64 = legs.iter().map(|l| l.out.failed).sum();
    // Run-level checks: legs agree on their outputs, and (traced) spans
    // cover the timed part.
    let checks = 1 + u64::from(args.trace);
    let mut problems = Vec::new();
    if let Some(first) = legs.first() {
        if legs.iter().any(|l| l.out.digest != first.out.digest) {
            problems.push("output digest differs between legs of the same seed".to_string());
        }
    }

    let over_legs = |f: &dyn Fn(&Leg) -> f64| stat(&plain.iter().map(|l| f(l)).collect::<Vec<_>>());
    let setup = over_legs(&|l| l.setup_s);
    let setup_wall = over_legs(&|l| l.setup_wall_s);
    let cpu = over_legs(&|l| l.cpu_s);
    let wall = over_legs(&|l| l.wall_s);
    let rate = over_legs(&|l| l.out.records as f64 / l.cpu_s);
    let wall_rate = over_legs(&|l| l.out.records as f64 / l.wall_s);
    // Operation latencies are pooled over legs, so that the p95 of a run
    // is an order statistic of hundreds of operations rather than a median
    // of a few per-leg tails. The bounded central statistic is the mean:
    // the workloads mix operations of very different cost (six query
    // shapes, twenty figures), and their p50 falls in the gap between two
    // kinds of operation, where the smallest disturbance moves it from one
    // to the other.
    let ops: Vec<f64> = plain
        .iter()
        .flat_map(|l| l.out.ops_ms.iter().copied())
        .collect();
    let n_ops = ops.len();
    let (p50, p95) = (percentile(&ops, 50.0), percentile(&ops, 95.0));
    let mean = over_legs(&|l| l.out.ops_ms.iter().sum::<f64>() / l.out.ops_ms.len().max(1) as f64);

    println!(
        "machine cores={} threads={THREADS} rustc=\"{}\" seed={} workload={} reps={}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        env!("PERFBENCH_RUSTC"),
        args.seed,
        args.workload,
        plain.len(),
    );
    let line = |name: &str, unit: &str, s: Stat| {
        println!(
            "{name} = {} {unit} (n={}, q1={}, q3={})",
            s.median, s.n, s.q1, s.q3
        )
    };
    line("metric setup_s", "s", setup);
    line("metric work_cpu_s", "s", cpu);
    line("metric records_per_cpu_s", "1/s", rate);
    println!(
        "op = {}; {n_ops} operations over {} legs",
        w.op_name(),
        plain.len()
    );
    line("metric op_cpu_mean_ms", "ms", mean);
    println!("metric op_cpu_p50_ms = {p50} ms (n={n_ops}, pooled)");
    println!("metric op_cpu_p95_ms = {p95} ms (n={n_ops}, pooled)");
    println!("metric peak_rss_mb = {rss} MB");
    // Wall time, for reference only: it moves with the host's load.
    line("wall setup_wall_s", "s", setup_wall);
    line("wall wall_s", "s", wall);
    line("wall records_per_s", "1/s", wall_rate);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let ratio = stat(&traced.iter().map(|l| l.cpu_s).collect::<Vec<_>>()).median / cpu.median;
        let mut per_rep: Vec<BTreeMap<&str, f64>> = Vec::new();
        let mut instances: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for leg in &traced {
            let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
            for s in &leg.spans {
                *sums.entry(s.name.as_str()).or_insert(0.0) += s.ms();
                instances.entry(s.name.as_str()).or_default().push(s.ms());
            }
            per_rep.push(sums);
        }
        let cover: Vec<(f64, f64)> = traced.iter().map(|l| coverage(&l.spans)).collect();
        let uncovered = stat(&cover.iter().map(|c| c.0).collect::<Vec<_>>()).median;
        let share = stat(&cover.iter().map(|c| 1.0 - c.0 / c.1).collect::<Vec<_>>()).median;
        println!("bench.uncovered_ms = {uncovered} ms (span coverage {share})");
        if share < 0.95 {
            problems.push(format!("spans cover {share} of wall time, below 0.95"));
        }
        print_ledger(&per_rep);
        for name in layers::names() {
            let value = match layers::source(&name) {
                Source::Total(span) => {
                    stat(
                        &per_rep
                            .iter()
                            .map(|m| m.get(span).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    )
                    .median
                }
                Source::P50(span) => instances.get(span).map_or(0.0, |v| stat(v).median),
                Source::Count => {
                    stat(
                        &traced
                            .iter()
                            .map(|l| l.out.counts.get(&name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    )
                    .median
                }
                Source::Uncovered => uncovered,
                Source::Coverage => share,
                Source::Overhead => ratio,
            };
            let unit = layers::unit(&name);
            metrics.push((name, value, unit));
        }
    } else {
        metrics.push(("setup_s".into(), setup.median, "s"));
        metrics.push(("work_cpu_s".into(), cpu.median, "s"));
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
        metrics.push(("records_per_cpu_s".into(), rate.median, "1/s"));
        metrics.push(("op_cpu_mean_ms".into(), mean.median, "ms"));
        metrics.push(("op_cpu_p95_ms".into(), p95, "ms"));
    }

    for p in &problems {
        eprintln!("check failed: {p}");
    }
    if args.trace {
        write_trace(args, &traced);
    }
    failed += problems.len() as u64;
    let attempted = attempted + checks;
    let correct = failed == 0;
    println!(
        "metric error_rate = {} (failed {failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    println!("metric outputs_ok = {}", u8::from(correct));

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Print where the traced time went: each span name's median total per
/// repetition and its share of the timed part.
fn print_ledger(per_rep: &[BTreeMap<&str, f64>]) {
    let mut names: Vec<&str> = per_rep.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let median = |name: &str| {
        stat(
            &per_rep
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
        .median
    };
    let work = median("bench.work");
    for name in names {
        let v = median(name);
        println!(
            "ledger {name} = {v} ms ({:.1}% of bench.work)",
            100.0 * v / work
        );
    }
}

/// Write the traced legs' spans, one JSON object per line, under the
/// build directory (`$CARGO_TARGET_DIR`, else `.bench_build`).
fn write_trace(args: &Args, legs: &[&Leg]) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut text = String::new();
    for (leg_ix, leg) in legs.iter().enumerate() {
        for (ix, s) in leg.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"leg\": {leg_ix}, \"id\": {ix}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}\n",
                s.name, s.start_us, s.end_us
            ));
        }
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}
