//! A seeded, traced benchmark of the whole pipeline.
//!
//! Four workloads drive the public API of the pipeline crates:
//! `compile` (cold batch builds and an incremental edit→VCD loop),
//! `simulate` (long steady-state runs under both kernel backends),
//! `serve` (closed-loop `vhdld` sessions over loopback) and `fuzz`
//! (`vhdl-conform` 8-cell matrices). Every workload checks its outputs
//! against an independent reference and counts failed operations.
//!
//! The untraced binary prints the end-to-end metrics; the traced binary
//! (`perfbench-traced`, which installs the counting allocator) opens a
//! span around every call into a layer and prints the per-layer metrics.
//! `run.py` builds both and is the command users run.

pub mod compile;
pub mod front;
pub mod fuzz;
pub mod gen;
pub mod layer;
pub mod serve;
pub mod simulate;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where traces and scratch libraries go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Parses `--workload W --seed N --seconds S [--trace 0|1] [--out DIR]`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(args: &[String], traced: bool) -> Result<Opts, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            traced,
            out_dir: PathBuf::from("perfbench/runs"),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            match a.as_str() {
                "--workload" => o.workload = v.clone(),
                "--seed" => o.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?,
                "--seconds" => {
                    o.seconds = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                }
                "--trace" => {
                    if (v == "1") != traced {
                        return Err(format!("this binary is for --trace {}", u8::from(traced)));
                    }
                }
                "--out" => o.out_dir = PathBuf::from(v),
                _ => return Err(format!("unknown option {a}")),
            }
        }
        if !WORKLOADS.contains(&o.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(o)
    }

    /// A scratch directory for this run, removed by [`Scratch`]'s drop.
    pub fn scratch(&self, what: &str) -> Scratch {
        let dir = self
            .out_dir
            .join(format!("tmp-{what}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

/// A directory removed when dropped.
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub const WORKLOADS: [&str; 4] = ["compile", "simulate", "serve", "fuzz"];

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.to_string(),
    }
}

/// Attempted/failed operations with the first few failure messages.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Records one operation; it fails when `errors` is non-empty.
    pub fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(errors.join("; "));
            }
        }
    }
}

/// Compares observed values with the model's, by name. A missing value
/// counts as a mismatch.
pub fn compare_values(
    what: &str,
    expected: &[(String, i64)],
    got: impl Fn(&str) -> Option<i64>,
) -> Vec<String> {
    let mut errs = Vec::new();
    for (name, want) in expected {
        match got(name) {
            Some(v) if v == *want => {}
            other => errs.push(format!("{what}: {name} = {other:?}, model says {want}")),
        }
    }
    errs
}

/// The checker must see a deliberately wrong expectation as a failure;
/// otherwise the run is not trustworthy. Returns an error when it does
/// not.
pub fn checker_self_test(
    expected: &[(String, i64)],
    got: impl Fn(&str) -> Option<i64>,
) -> Vec<String> {
    let mut wrong = expected.to_vec();
    if let Some(first) = wrong.first_mut() {
        first.1 += 1;
    }
    if compare_values("self-test", &wrong, got).is_empty() {
        vec!["checker self-test: a wrong expected value was not detected".to_string()]
    } else {
        Vec::new()
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Whether `n` samples leave at least ten beyond quantile `q`.
pub fn tail_ok(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// Process peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` with the 64-bit Linux
    // layout, and the call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time of the whole process (every thread), seconds.
pub fn cpu_s() -> f64 {
    clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time of the calling thread, seconds.
pub fn thread_cpu_s() -> f64 {
    clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// A fixed piece of integer work, the same instructions on every run:
/// hashing, a sort and table updates over a few KiB.
pub fn calibration_kernel() -> u64 {
    let mut v: Vec<u32> = (0..4096u32)
        .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(i % 29))
        .collect();
    v.sort_unstable();
    let mut table = [0u64; 256];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..4u64 {
        for &x in &v {
            h = (h ^ u64::from(x) ^ round).wrapping_mul(0x0100_0000_01b3);
            let slot = (h >> 56) as usize;
            table[slot] = table[slot].wrapping_add(h);
            if table[slot] & 1 == 0 {
                h = h.rotate_left(7);
            }
        }
    }
    table.iter().fold(h, |a, &b| a ^ b)
}

/// What [`probe`] measures on the recorded host (a 2-vCPU KVM guest on an
/// Intel Xeon) when its neighbours leave it alone, seconds. Normalized
/// times read as that host's.
pub const REFERENCE_PROBE_S: f64 = 150e-6;

/// How much more the workloads slow down than the probe, in log terms:
/// a stretch that makes the probe 1.2× slower makes the ops about
/// 1.2^1.3× slower. Fitted on the recorded host: across ten-seed sets the
/// per-run rates moved 1.1 to 1.5 times as much as the mean probe (log
/// against log, correlation 0.9 or more), and within a simulate run each
/// op 1.1 to 1.5 times as much as the probes around it.
pub const SLOWDOWN_EXPONENT: f64 = 1.3;

/// The factor that takes a CPU time measured while the probe read
/// `probe_s` to the recorded host's speed.
pub fn normalizer(probe_s: f64) -> f64 {
    (REFERENCE_PROBE_S / probe_s).powf(SLOWDOWN_EXPONENT)
}

/// Measures the host's current speed: one warm-up run of the calibration
/// kernel (the op before it leaves caches cold and interrupts pending),
/// then the fastest of three, in thread CPU time. Returns that time and
/// the (wall, process CPU) seconds the probe took from the caller.
pub fn probe() -> (f64, (f64, f64)) {
    let t0 = Stamp::now();
    std::hint::black_box(calibration_kernel());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let c0 = thread_cpu_s();
        std::hint::black_box(calibration_kernel());
        best = best.min(thread_cpu_s() - c0);
    }
    (best, t0.elapsed())
}

thread_local! {
    static PROBES: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The probes [`timed_loop`] logged since the last call.
pub fn take_probes() -> Vec<f64> {
    PROBES.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// A start point on the wall clock and on the process CPU clock.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Seconds since the stamp: (wall, CPU).
    pub fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_s() - self.cpu)
    }
}

/// Runs `op(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min_ops` ran, with a [`probe`] after every op. Returns the
/// phase's (wall, CPU) seconds without the probes.
pub fn timed_loop(seconds: f64, min_ops: u64, mut op: impl FnMut(u64)) -> (f64, f64) {
    let t0 = Stamp::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut i = 0;
    let mut probes = (0.0, 0.0);
    while i < min_ops || t0.wall.elapsed() < limit {
        trace::set_op(i);
        op(i);
        i += 1;
        let (k, (w, c)) = probe();
        PROBES.with(|p| p.borrow_mut().push(k));
        probes = (probes.0 + w, probes.1 + c);
    }
    trace::set_op(trace::AFTER);
    let (w, c) = t0.elapsed();
    (w - probes.0, c - probes.1)
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub ops: Ops,
    /// Set-up repetitions: CPU seconds, wall seconds, and the probe
    /// after each.
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    pub setup_probe_s: Vec<f64>,
    /// The workload's headline rate: work done per CPU second and per
    /// wall second of the time that did it, with its own name and unit
    /// of work.
    pub rate: f64,
    pub rate_wall: f64,
    pub rate_name: &'static str,
    pub rate_unit: &'static str,
    /// User-visible operations, CPU ms and wall ms, and their name.
    pub op_ms: Vec<f64>,
    pub op_wall_ms: Vec<f64>,
    pub op_name: &'static str,
    /// Index of the probe that followed each operation, and the
    /// operation's CPU time normalized by the probes on either side.
    pub op_probe: Vec<usize>,
    pub op_norm_ms: Vec<f64>,
    /// Timed-phase wall and CPU time, seconds.
    pub phase_s: f64,
    pub phase_cpu_s: f64,
    /// The probe after every op of the timed phase, seconds.
    pub probe_s: Vec<f64>,
    /// Further workload-specific end-to-end figures.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Recorded spans (traced run only).
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// Records one set-up repetition that started at `t0`, and probes.
    pub fn setup_done(&mut self, t0: Stamp) {
        let (wall, cpu) = t0.elapsed();
        self.setup_wall_s.push(wall);
        self.setup_s.push(cpu);
        self.setup_probe_s.push(probe().0);
    }

    /// Records one operation's wall and CPU seconds (in the timed phase,
    /// before the probe that follows it).
    pub fn op_done(&mut self, (wall, cpu): (f64, f64)) {
        self.op_wall_ms.push(wall * 1e3);
        self.op_ms.push(cpu * 1e3);
        self.op_probe.push(PROBES.with(|p| p.borrow().len()));
    }

    /// Records the timed phase and the work it did, in the rate's unit.
    pub fn phase_done(&mut self, (wall, cpu): (f64, f64), work: f64) {
        self.phase_s = wall;
        self.phase_cpu_s = cpu;
        self.rate = work / cpu;
        self.rate_wall = work / wall;
        self.probe_s = take_probes();
        let p = &self.probe_s;
        self.op_norm_ms = self
            .op_ms
            .iter()
            .zip(&self.op_probe)
            .map(|(ms, &k)| {
                let around = if k == 0 { p[k] } else { (p[k - 1] + p[k]) / 2.0 };
                ms * normalizer(around)
            })
            .collect();
    }

    /// The [`normalizer`] of the timed phase as a whole, from its mean
    /// probe: CPU times of the phase times this are normalized times.
    ///
    /// On a shared host the neighbours' load slows every instruction,
    /// often by half, in stretches of tens of milliseconds to seconds,
    /// so CPU time alone moved by a quarter from run to run. The probes
    /// between the ops sample the same stretches as the ops: their mean
    /// follows the slowdown of the phase as a whole, and the two probes
    /// around an op follow the op's.
    pub fn phase_normalizer(&self) -> f64 {
        if self.probe_s.is_empty() {
            1.0
        } else {
            normalizer(mean(&self.probe_s))
        }
    }

    /// Set-up time: the median over the repetitions of each one's CPU
    /// time, normalized by the probe right after it.
    pub fn setup_norm_s(&self) -> f64 {
        let norm: Vec<f64> = self
            .setup_s
            .iter()
            .zip(&self.setup_probe_s)
            .map(|(s, p)| s * normalizer(*p))
            .collect();
        quantile(&norm, 0.5)
    }

    /// The end-to-end metrics every workload reports, under generic
    /// names so that every workload has all of them. Times are
    /// normalized CPU times.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ok = if self.ops.attempted == 0 {
            0.0
        } else {
            1.0 - self.ops.failed as f64 / self.ops.attempted as f64
        };
        let speed = self.phase_normalizer();
        vec![
            metric("setup_s", self.setup_norm_s(), "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
            metric("ok_ratio", ok, "ratio"),
            metric("rate_per_cpu_s", self.rate / speed, "1/s"),
            metric("op_cpu_p50_ms", quantile(&self.op_norm_ms, 0.5), "ms"),
            metric("op_cpu_p90_ms", quantile(&self.op_norm_ms, 0.9), "ms"),
        ]
    }

    /// The workload's figures under the names of its own domain, with
    /// sample counts and the raw, unnormalized timings (printed before
    /// the result line).
    pub fn detail(&self, o: &Opts) -> Vec<Metric> {
        let n = self.op_ms.len();
        let speed = self.phase_normalizer();
        let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mut d = vec![
            metric("host_cores", host_cores() as f64, "cores"),
            metric("seed", o.seed as f64, "seed"),
            metric(
                self.rate_name,
                self.rate / speed,
                &format!("{}/cpu_s", self.rate_unit),
            ),
            metric(
                format!("{}_p50_ms", self.op_name),
                quantile(&self.op_norm_ms, 0.5),
                "ms",
            ),
            metric(
                format!("{}_p90_ms", self.op_name),
                quantile(&self.op_norm_ms, 0.9),
                "ms",
            ),
            metric(format!("{}_samples", self.op_name), n as f64, "count"),
            metric(
                format!("{}_p90_has_10_beyond", self.op_name),
                f64::from(u8::from(tail_ok(n, 0.9))),
                "bool",
            ),
            metric("normalizer", speed, "ratio"),
            metric("probe_mean_us", mean(&self.probe_s) * 1e6, "us"),
            metric("probe_min_us", min(&self.probe_s) * 1e6, "us"),
            metric("probes", self.probe_s.len() as f64, "count"),
            metric("raw.rate_per_cpu_s", self.rate, "1/s"),
            metric("raw.rate_per_wall_s", self.rate_wall, "1/s"),
            metric("raw.op_cpu_p50_ms", quantile(&self.op_ms, 0.5), "ms"),
            metric("raw.op_cpu_p90_ms", quantile(&self.op_ms, 0.9), "ms"),
            metric("raw.op_wall_p50_ms", quantile(&self.op_wall_ms, 0.5), "ms"),
            metric("raw.op_wall_p90_ms", quantile(&self.op_wall_ms, 0.9), "ms"),
            metric("setup_samples", self.setup_s.len() as f64, "count"),
            metric("raw.setup_cpu_min_s", min(&self.setup_s), "s"),
            metric("raw.setup_wall_min_s", min(&self.setup_wall_s), "s"),
            metric("raw.setup_wall_p50_s", quantile(&self.setup_wall_s, 0.5), "s"),
            metric(
                "fail_ratio",
                if self.ops.attempted == 0 {
                    0.0
                } else {
                    self.ops.failed as f64 / self.ops.attempted as f64
                },
                "ratio",
            ),
            metric("timed_phase_s", self.phase_s, "s"),
            metric("timed_phase_cpu_s", self.phase_cpu_s, "s"),
        ];
        d.extend(self.extra.iter().cloned());
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_is_normalized_by_the_probes_around_it() {
        let mut r = Report::default();
        let phase = timed_loop(0.0, 3, |i| {
            if i != 1 {
                r.op_done((0.002, 0.001 * (i + 1) as f64));
            }
        });
        r.phase_done(phase, 3.0);
        let p = r.probe_s.clone();
        assert_eq!(p.len(), 3);
        assert_eq!(r.op_probe, vec![0, 2]);
        let want = [1.0 * normalizer(p[0]), 3.0 * normalizer((p[1] + p[2]) / 2.0)];
        assert_eq!(r.op_norm_ms, want);
        assert!(take_probes().is_empty());
    }

    #[test]
    fn set_up_is_the_median_of_normalized_repetitions() {
        let slow = REFERENCE_PROBE_S * 3f64.powf(1.0 / SLOWDOWN_EXPONENT);
        let r = Report {
            setup_s: vec![0.010, 0.030, 0.020],
            setup_probe_s: vec![REFERENCE_PROBE_S, slow, REFERENCE_PROBE_S],
            ..Report::default()
        };
        assert!((r.setup_norm_s() - 0.010).abs() < 1e-12);
    }
}

/// Adds the traced run's own end-to-end figures and the share of the
/// timed phase that no layer span covers.
fn trace_summary(r: &mut Report, unattributed_ns: u64, replay_ns: u64) {
    let wall = r.phase_s * 1e9 - replay_ns as f64;
    let e2e = r.end_to_end();
    for m in &e2e {
        r.layers.push(Metric {
            name: format!("traced.{}", m.name),
            ..m.clone()
        });
    }
    r.layers.push(metric(
        "trace.unattributed_ratio",
        if wall > 0.0 {
            unattributed_ns as f64 / wall
        } else {
            0.0
        },
        "ratio",
    ));
    r.layers
        .push(metric("trace.replay_ms", replay_ns as f64 / 1e6, "ms"));
    r.layers
        .push(metric("host.cores", host_cores() as f64, "count"));
}

/// Time the timed phase spent outside every layer span: the self time
/// of each `op` span plus the gaps between ops, excluding replays.
fn unattributed(spans: &[trace::Span], phase_ns: u64) -> (u64, u64) {
    let selfs = trace::self_costs(spans);
    let mut op_total = 0u64;
    let mut op_self = 0u64;
    let mut replay = 0u64;
    for (s, (sn, _, _)) in spans.iter().zip(selfs) {
        if s.op >= trace::AFTER || s.parent.is_some() {
            continue;
        }
        if s.replayed {
            replay += s.ns();
        } else {
            op_total += s.ns();
            if s.name == "op" {
                op_self += sn;
            }
        }
    }
    let gaps = phase_ns.saturating_sub(op_total + replay);
    (op_self + gaps, replay)
}

/// Fills the per-layer metrics of a traced run: span totals over set-up
/// and the first `window` ops, the counts, the self-time table (to
/// standard error), and the traced end-to-end figures.
pub fn finish_traced(r: &mut Report, c: &layer::Counts, window: u64) {
    let spans = trace::take();
    let agg = trace::aggregate(&spans, |s| s.op < window || s.op == trace::SETUP);
    r.layers = layer::metrics(&agg, c);
    let phase_ns = (r.phase_s * 1e9) as u64;
    let (unattr, replay_ns) = unattributed(&spans, phase_ns);
    eprint!("{}", layer::self_time_table(&spans, phase_ns, unattr));
    trace_summary(r, unattr, replay_ns);
    r.spans = spans;
}

/// Runs the workload named in `o` and returns its report.
pub fn run_workload(o: &Opts) -> Report {
    if o.traced {
        trace::enable();
    }
    match o.workload.as_str() {
        "compile" => compile::run(o),
        "simulate" => simulate::run(o),
        "serve" => serve::run(o),
        _ => fuzz::run(o),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push('}');
    s
}

/// The program entry of both binaries.
pub fn main(traced: bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match Opts::parse(&args, traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&o.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", o.out_dir.display());
        std::process::exit(2);
    }
    let mut r = run_workload(&o);
    for f in &r.ops.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let metrics = if traced {
        let spans = std::mem::take(&mut r.spans);
        let path = o
            .out_dir
            .join(format!("trace-{}-s{}.jsonl", o.workload, o.seed));
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(&spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        r.layers.clone()
    } else {
        r.end_to_end()
    };
    println!("detail {}", metrics_json(&r.detail(&o)));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.ops.failed == 0 && r.ops.attempted > 0,
        r.ops.attempted,
        r.ops.failed,
        metrics_json(&metrics)
    );
}
