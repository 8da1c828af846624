//! The run loop: repeated cold set-ups, warm-up, a timed closed loop of
//! ops with one caller, and the metrics computed from it.
//!
//! An untraced run reports the end-to-end metrics. A traced run traces
//! every other op and reports the per-layer metrics from the traced ops
//! plus the tracing overhead (traced vs untraced median op time).

use crate::trace::{Tracer, NO_OP};
use crate::{setup, setup_split, Counters, Kind, Scale, SetupInfo, Workload};
use multiverse::mvc::PipelineStats;
use multiverse::mvrt::Runtime;
use multiverse::mvvm::Machine;
use std::time::{Duration, Instant};

/// Ops every timed phase completes at least, so the 90th percentile has
/// at least ten samples beyond it; `guest_cycles_per_op` averages
/// exactly this many ops, which makes it exact for a seed.
pub const MIN_OPS: u64 = 100;

/// Untimed ops run after set-up, so caches fill before timing.
pub const WARMUP_OPS: u64 = 3;

/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

/// Layers an op's spans can enter, with their self-time metric names.
pub const OP_LAYERS: [(&str, &str); 5] = [
    ("bench", "self_ms.bench"),
    ("core", "self_ms.core"),
    ("mvrt", "self_ms.mvrt"),
    ("mvvm", "self_ms.mvvm"),
    ("mvvx", "self_ms.mvvx"),
];

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// At least this long (and at least [`MIN_OPS`] ops).
    Time(Duration),
    /// Exactly this many ops — deterministic, for self-tests.
    Ops(u64),
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload.
    pub kind: Kind,
    /// Input sizes.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub length: Length,
    /// Cold set-ups; `setup_s` is their median.
    pub setups: usize,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// A measured value with its unit and, for medians and percentiles,
/// the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `cycles`, …).
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub samples: Option<usize>,
}

/// The outcome of one run.
pub struct Outcome {
    /// Ops attempted (warm-up included).
    pub attempted: u64,
    /// Ops with a wrong output, typed error or fault.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Ops in the timed phase(s).
    pub timed_ops: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Layer with the most self time per op (traced runs only).
    pub dominant_layer: Option<&'static str>,
    /// The recorded spans (empty unless traced).
    pub tracer: Tracer,
}

impl Outcome {
    /// Failed ops over attempted ops.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Guest-execution counters of a machine.
pub fn machine_counters(m: &Machine) -> Counters {
    let n = m.native_stats();
    let b = m.block_stats();
    Counters::from([
        ("guest_insns", m.stats.instructions),
        ("native_insns", n.insns),
        ("native_invalidations", n.invalidations),
        ("block_hits", b.hits),
        ("block_misses", b.misses),
    ])
}

/// Patching counters of an attached runtime.
pub fn runtime_counters(rt: Option<&Runtime>) -> Counters {
    let s = rt.map(|rt| rt.stats).unwrap_or_default();
    Counters::from([
        ("bytes_written", s.bytes_written),
        ("mprotects", s.mprotects),
        ("icache_flushes", s.icache_flushes),
    ])
}

/// Nearest-rank `q`-quantile of sorted `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ops run so far and their failures.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts a new op and returns its index.
    fn begin_op(&mut self) -> u64 {
        self.attempted += 1;
        self.attempted - 1
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }
}

/// Op latencies kept per phase: every op until this many, then a
/// uniform sample of all ops (reservoir sampling), so memory stays the
/// same however many ops a run completes and `peak_rss_mb` measures the
/// workload, not the sample store.
const RESERVOIR: usize = 16_384;

/// Per-op samples of one timed phase.
struct Phase {
    /// Latency sample, ms.
    op_ms: Vec<f64>,
    /// Ops completed.
    ops: u64,
    /// Reservoir replacement generator (xorshift64).
    rng: u64,
    /// Guest cycles of the first [`MIN_OPS`] ops.
    guest_cycles: Vec<u64>,
    elapsed: Duration,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            op_ms: Vec::with_capacity(RESERVOIR),
            ops: 0,
            rng: 0x2545_F491_4F6C_DD1D,
            guest_cycles: Vec::with_capacity(MIN_OPS as usize),
            elapsed: Duration::ZERO,
        }
    }

    fn record(&mut self, ms: f64) {
        self.ops += 1;
        if self.op_ms.len() < RESERVOIR {
            self.op_ms.push(ms);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.ops;
        if let Some(slot) = self.op_ms.get_mut(j as usize) {
            *slot = ms;
        }
    }

    fn sorted_ms(&self) -> Vec<f64> {
        let mut v = self.op_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Runs op after op until `length` is met, each op inside an `op` span.
/// With `trace`, every other op is traced, so the traced and untraced
/// samples see the same host conditions; returns `[untraced, traced]`.
fn timed_phase(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    tally: &mut Tally,
    length: Length,
    trace: bool,
) -> [Phase; 2] {
    let per_kind = if trace { 2 } else { 1 };
    let (min_time, min_ops, max_time) = match length {
        Length::Time(d) => (d, MIN_OPS * per_kind, d * 4),
        Length::Ops(n) => (Duration::ZERO, n * per_kind, Duration::MAX),
    };
    let mut phases = [Phase::new(), Phase::new()];
    let mut n = 0;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        let done = match length {
            Length::Time(_) => (elapsed >= min_time && n >= min_ops) || elapsed >= max_time,
            Length::Ops(_) => n >= min_ops,
        };
        if done {
            for p in &mut phases {
                p.elapsed = elapsed;
            }
            tr.set_enabled(false);
            return phases;
        }
        let traced = trace && n % 2 == 1;
        n += 1;
        let phase = &mut phases[usize::from(traced)];
        let i = tally.begin_op();
        tr.set_enabled(traced);
        tr.set_op(i);
        let t0 = Instant::now();
        let g = tr.begin("op", "bench");
        let r = w.op(i, tr);
        tr.end(g);
        phase.record(t0.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(cycles) => {
                if phase.guest_cycles.len() < MIN_OPS as usize {
                    phase.guest_cycles.push(cycles);
                }
            }
            Err(e) => tally.fail(format!("op {i}: {e}")),
        }
        tr.set_op(NO_OP);
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end_metrics(setup_s: &mut [f64], phase: &Phase, info: &SetupInfo) -> Vec<Metric> {
    setup_s.sort_by(f64::total_cmp);
    let ms = phase.sorted_ms();
    let cycles = &phase.guest_cycles;
    vec![
        sampled("setup_s", quantile(setup_s, 0.5), "s", setup_s.len()),
        metric(
            "ops_per_s",
            phase.ops as f64 / phase.elapsed.as_secs_f64(),
            "1/s",
        ),
        sampled("op_ms_p50", quantile(&ms, 0.5), "ms", ms.len()),
        sampled("op_ms_p90", quantile(&ms, 0.9), "ms", ms.len()),
        sampled(
            "guest_cycles_per_op",
            cycles.iter().sum::<u64>() as f64 / cycles.len().max(1) as f64,
            "cycles",
            cycles.len(),
        ),
        metric("image_bytes", info.image_bytes as f64, "bytes"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run: set-up split spans averaged
/// over `setups`, op spans and counter deltas (`counters` before and
/// after the traced phase) per traced op, and the dominant layer.
fn per_layer_metrics(
    tr: &Tracer,
    split: &PipelineStats,
    setups: f64,
    counters: (&Counters, &Counters),
    (plain, traced): (&Phase, &Phase),
) -> (Vec<Metric>, Option<&'static str>) {
    let delta =
        |k: &str| counters.1.get(k).copied().unwrap_or(0) - counters.0.get(k).copied().unwrap_or(0);
    // Counters cover every op of the run; spans only the traced ones.
    let all_ops = (plain.ops + traced.ops).max(1) as f64;
    let ops = traced.ops.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_setup_ms = |layer, name| tr.totals(layer, name).total_ns as f64 / setups / 1e6;
    let per_call_ms = |layer, name| {
        let t = tr.totals(layer, name);
        t.total_ns as f64 / t.count.max(1) as f64 / 1e6
    };
    let per_op = |k| delta(k) as f64 / all_ops;
    let self_ms = |layer: &str| {
        tr.layers_in_ops()
            .get(layer)
            .map_or(0.0, |t| t.self_ns as f64 / ops / 1e6)
    };
    let insns = delta("guest_insns");
    let mut m = vec![
        metric("mvc.compile_ms", per_setup_ms("mvc", "compile"), "ms"),
        metric("mvc.functions", split.functions as f64, "count"),
        metric("mvc.clones", split.clones as f64, "count"),
        metric("mvc.variants", split.variants as f64, "count"),
        metric("mvc.merge_rate", split.merge_rate(), "ratio"),
        metric("mvobj.link_ms", per_setup_ms("mvobj", "link"), "ms"),
        metric("mvvm.load_ms", per_setup_ms("mvvm", "load"), "ms"),
        metric("mvrt.attach_ms", per_setup_ms("mvrt", "attach"), "ms"),
        metric("mvvm.call_ms", per_call_ms("mvvm", "call"), "ms"),
        metric("mvvm.guest_insns", per_op("guest_insns"), "count"),
        metric(
            "mvvm.host_ns_per_guest_insn",
            if insns == 0 {
                0.0
            } else {
                self_ms("mvvm") * 1e6 / per_op("guest_insns")
            },
            "ns/insn",
        ),
        metric(
            "mvvm.native_insn_share",
            ratio(delta("native_insns"), insns),
            "ratio",
        ),
        metric(
            "mvvm.block_hit_ratio",
            ratio(
                delta("block_hits"),
                delta("block_hits") + delta("block_misses"),
            ),
            "ratio",
        ),
        metric(
            "mvvm.native_invalidations",
            per_op("native_invalidations"),
            "count",
        ),
        metric("mvvm.smp_round_ms", per_call_ms("mvvm", "step_round"), "ms"),
        metric("mvrt.commit_ms", per_call_ms("mvrt", "commit"), "ms"),
        metric("mvrt.revert_ms", per_call_ms("mvrt", "revert"), "ms"),
        metric("mvrt.sites_touched", per_op("sites_touched"), "count"),
        metric("mvrt.bytes_written", per_op("bytes_written"), "bytes"),
        metric("mvrt.mprotects", per_op("mprotects"), "count"),
        metric("mvrt.icache_flushes", per_op("icache_flushes"), "count"),
        metric(
            "mvrt.mvd_submit_us",
            per_call_ms("mvrt", "submit") * 1e3,
            "us",
        ),
        metric(
            "mvrt.mvd_step_ms",
            tr.totals("mvrt", "step").total_ns as f64 / ops / 1e6,
            "ms",
        ),
        metric(
            "mvrt.mvd_commits_per_request",
            ratio(delta("mvd_committed"), delta("mvd_submitted")),
            "ratio",
        ),
        metric(
            "mvrt.quiesce_guest_cycles",
            per_op("quiesce_cycles"),
            "cycles",
        ),
        metric("mvvx.vexec_ms", per_call_ms("mvvx", "vexec"), "ms"),
        metric("mvvx.steps", per_op("vexec_steps"), "count"),
        metric("mvvx.splits", per_op("vexec_splits"), "count"),
        metric("mvvx.leaves", per_op("vexec_leaves"), "count"),
        metric(
            "core.enumerate_ms",
            per_call_ms("core", "enumerate_check"),
            "ms",
        ),
    ];
    for (layer, name) in OP_LAYERS {
        m.push(metric(name, self_ms(layer), "ms"));
    }
    let dominant = OP_LAYERS
        .into_iter()
        .map(|(layer, _)| layer)
        .max_by(|a, b| self_ms(a).total_cmp(&self_ms(b)));
    let p50_plain = quantile(&plain.sorted_ms(), 0.5);
    let p50_traced = quantile(&traced.sorted_ms(), 0.5);
    m.push(sampled(
        "trace.op_ms_p50_untraced",
        p50_plain,
        "ms",
        plain.op_ms.len(),
    ));
    m.push(sampled(
        "trace.op_ms_p50_traced",
        p50_traced,
        "ms",
        traced.op_ms.len(),
    ));
    m.push(metric(
        "trace.overhead_pct",
        (p50_traced / p50_plain - 1.0) * 100.0,
        "%",
    ));
    (m, dominant)
}

/// Runs one workload as configured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // Set-up, `setups` times from cold; the last world runs the ops.
    let mut setup_s = Vec::new();
    let mut split = None;
    let mut built = None;
    for _ in 0..cfg.setups.max(1) {
        if cfg.trace {
            tr.set_enabled(true);
            split = Some(setup_split(cfg.kind, &cfg.scale, &mut tr)?);
            tr.set_enabled(false);
        } else {
            // Drop the previous world before building the next one.
            drop(built.take());
            let t0 = Instant::now();
            built = Some(setup(cfg.kind, &cfg.scale, cfg.seed)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let (mut w, info) = match built {
        Some(b) => b,
        None => setup(cfg.kind, &cfg.scale, cfg.seed)?,
    };

    for _ in 0..WARMUP_OPS {
        let i = tally.begin_op();
        if let Err(e) = w.op(i, &mut tr) {
            tally.fail(format!("warm-up op {i}: {e}"));
        }
    }

    let c0 = w.counters();
    let [plain, traced] = timed_phase(w.as_mut(), &mut tr, &mut tally, cfg.length, cfg.trace);
    let c1 = w.counters();
    tr.set_enabled(cfg.trace);
    if let Err(e) = w.finish(&mut tr) {
        tally.fail(format!("after the run: {e}"));
    }
    tr.set_enabled(false);
    let (metrics, dominant_layer) = match split {
        Some(split) => per_layer_metrics(
            &tr,
            &split,
            cfg.setups.max(1) as f64,
            (&c0, &c1),
            (&plain, &traced),
        ),
        None => (end_to_end_metrics(&mut setup_s, &plain, &info), None),
    };
    // A failed whole-run check counts against the last op; never report
    // more failures than attempts.
    tally.failed = tally.failed.min(tally.attempted);

    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        timed_ops: plain.ops + traced.ops,
        metrics,
        dominant_layer,
        tracer: tr,
    })
}
