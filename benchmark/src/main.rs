//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <grep|reconfig|storm|sweep|all> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report on stderr, then on stdout one result
//! document per workload (provenance, every metric with its unit and
//! sample count) followed by the result line
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans as JSON lines under `benchmark/out/`. Exits 1 if any
//! op failed its check, 2 on a usage or set-up error.

use multiverse::mvmetrics::json;
use mv_benchmark::run::{self, Config, Length, Outcome};
use mv_benchmark::{Kind, Scale, BACKEND, JOBS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// End-to-end metrics on the result line of an untraced run. On a host
/// whose speed swings with its neighbours' load, `ops_per_s` and
/// `op_ms_p50` spread by more than any regression bound from run to run,
/// so they appear only in the result document (see README.md).
const RESULT_LINE_METRICS: [&str; 5] = [
    "setup_s",
    "op_ms_p90",
    "guest_cycles_per_op",
    "image_bytes",
    "peak_rss_mb",
];

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.kinds = match v.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Provenance fields shared by every result of this invocation.
fn provenance(args: &Args, kind: Kind, out: &Outcome) -> String {
    // The ceiling keeps git from finding a repository above the working
    // directory: a plain checkout reports "unknown".
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = json::Obj::new();
    o.str("git_rev", &git_rev)
        .u64("nproc", nproc as u64)
        .str("rustc", env!("BENCH_RUSTC_VERSION"))
        .str("workload", kind.name())
        .u64("seed", args.seed)
        .str("backend", BACKEND)
        .u64("jobs", JOBS as u64)
        .u64("run_seconds", args.seconds)
        .bool("trace", args.trace)
        .u64("setups", SETUPS as u64)
        .u64("warmup_ops", run::WARMUP_OPS)
        .u64("timed_ops", out.timed_ops)
        .u64("attempted", out.attempted)
        .u64("failed", out.failed);
    o.finish()
}

fn metric_json(m: &run::Metric, with_samples: bool) -> String {
    let mut o = json::Obj::new();
    o.f64("value", m.value).str("unit", m.unit);
    if let (true, Some(n)) = (with_samples, m.samples) {
        o.u64("samples", n as u64);
    }
    o.finish()
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a run::Metric>, with_samples: bool) -> String {
    let mut o = json::Obj::new();
    for m in metrics {
        o.raw(m.name, metric_json(m, with_samples));
    }
    o.finish()
}

fn report(kind: Kind, out: &Outcome) {
    eprintln!("== {} ==", kind.name());
    for m in &out.metrics {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        eprintln!("  {:<34} {:>16.6} {:<8}{samples}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<34} {:>16.6} ratio     ({} of {} ops failed)",
        "error_rate",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    if let Some(layer) = out.dominant_layer {
        eprintln!("  dominant layer (self time per op): {layer}");
    }
    for f in &out.failures {
        eprintln!("  FAILED {f}");
    }
}

fn write_spans(kind: Kind, seed: u64, out: &Outcome) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", kind.name()));
    let mut f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    out.tracer
        .write_jsonl(&mut f)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut any_failed = false;
    for &kind in &args.kinds {
        let cfg = Config {
            kind,
            scale: Scale::FULL,
            seed: args.seed,
            length: Length::Time(Duration::from_secs(args.seconds)),
            setups: SETUPS,
            trace: args.trace,
        };
        let out = match run::run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", kind.name());
                return ExitCode::from(2);
            }
        };
        report(kind, &out);
        let mut doc = json::Obj::new();
        doc.raw("provenance", provenance(&args, kind, &out))
            .raw("metrics", metrics_json(out.metrics.iter(), true))
            .f64("error_rate", out.error_rate());
        if let Some(layer) = out.dominant_layer {
            doc.str("dominant_layer", layer);
        }
        if args.trace {
            match write_spans(kind, args.seed, &out) {
                Ok(path) => {
                    doc.str("spans", &path.display().to_string())
                        .u64("spans_dropped", out.tracer.dropped());
                }
                Err(e) => {
                    eprintln!("benchmark: writing spans: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        println!("{}", doc.finish());
        let on_line = out
            .metrics
            .iter()
            .filter(|m| args.trace || RESULT_LINE_METRICS.contains(&m.name));
        let mut line = json::Obj::new();
        line.bool("correct", out.failed == 0)
            .u64("attempted", out.attempted)
            .u64("failed", out.failed)
            .raw("metrics", metrics_json(on_line, false));
        println!("{}", line.finish());
        any_failed |= out.failed > 0;
    }
    if any_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
