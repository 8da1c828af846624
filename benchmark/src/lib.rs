//! The repository benchmark: four seeded workloads driven through the
//! public facade (`Program`/`World`/`SmpWorld`) on the `native`
//! backend, each op checked against an independent reference.
//!
//! * `grep` — mini-grep over a fresh seeded hex corpus per op (guest
//!   execution);
//! * `reconfig` — one whole-image reconfiguration of 1161 call sites per
//!   op (text rewriting);
//! * `storm` — one burst of seeded flips through the commit daemon over
//!   2 SMP vCPUs per op (control plane + quiesce);
//! * `sweep` — variational execution plus enumerate-and-rerun over a
//!   64-leaf configuration space per op (mvvx + per-leaf boot).
//!
//! See `README.md` beside this crate for the metrics and how each layer
//! maps onto them.

pub mod grep;
pub mod reconfig;
pub mod run;
pub mod storm;
pub mod sweep;
pub mod trace;

use multiverse::mvc::{pipeline, Options, Pipeline, PipelineStats};
use multiverse::mvobj::{link, Layout};
use multiverse::mvrt::Runtime;
use multiverse::mvvm::{CostModel, Machine, MachineConfig, SmpMachine};
use multiverse::{BuildError, Program};
use std::collections::BTreeMap;
use trace::Tracer;

/// The backend every workload runs on.
pub const BACKEND: &str = "native";

/// Compiler worker threads: every workload is single-threaded.
pub const JOBS: usize = 1;

/// The workloads, in the order `--workload all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Mini-grep end to end (E5).
    Grep,
    /// The §6.1 kernel-scale commit.
    Reconfig,
    /// Commit-daemon bursts over SMP vCPUs.
    Storm,
    /// Whole configuration-space check (vexec + enumerate).
    Sweep,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [Kind::Grep, Kind::Reconfig, Kind::Storm, Kind::Sweep];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Grep => "grep",
            Kind::Reconfig => "reconfig",
            Kind::Storm => "storm",
            Kind::Sweep => "sweep",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::SMALL`] keeps
/// every op's shape for quick self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Corpus bytes per grep op.
    pub grep_bytes: usize,
    /// Call sites of the reconfig program.
    pub reconfig_sites: usize,
    /// Flips per storm burst.
    pub storm_flips: usize,
    /// Iterations per storm worker run (workers are respawned when they
    /// finish, so every op runs against live workers).
    pub storm_iters: u64,
    /// `(functions, switches, domain)` of the sweep kernel.
    pub sweep: (usize, usize, usize),
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        grep_bytes: 32 * 1024,
        reconfig_sites: 1161,
        storm_flips: 48,
        storm_iters: 4_000,
        sweep: (8, 6, 2),
    };

    /// Small sizes for the self-tests.
    pub const SMALL: Scale = Scale {
        grep_bytes: 2048,
        reconfig_sites: 64,
        storm_flips: 48,
        storm_iters: 400,
        sweep: (3, 3, 2),
    };
}

/// Cumulative per-layer counters a workload exposes; the runner diffs
/// two snapshots to get the counts of a phase.
pub type Counters = BTreeMap<&'static str, u64>;

/// One set-up workload, ready for its first op.
pub trait Workload {
    /// Runs op `i`; returns the guest cycles it took, or why it failed
    /// (wrong output, typed error or fault).
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<u64, String>;

    /// Checks that need the whole run (e.g. storm workers drained to
    /// completion). Runs once after the last op.
    fn finish(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Cumulative counters (guest instructions, sites patched, …).
    fn counters(&self) -> Counters;
}

/// What one set-up produced besides the workload.
#[derive(Clone, Debug)]
pub struct SetupInfo {
    /// Compiler counters of the (cold) build.
    pub compile: PipelineStats,
    /// Linked image size in bytes.
    pub image_bytes: u64,
}

/// The source and compile options of a workload.
fn source(kind: Kind, scale: &Scale) -> (&'static str, String, Options) {
    let opts = Options {
        jobs: JOBS,
        ..Options::default()
    };
    match kind {
        Kind::Grep => ("grep.c", mv_workloads::grep::SRC.to_string(), opts),
        Kind::Reconfig => (
            "sites.c",
            mv_bench::many_callsites_src(scale.reconfig_sites),
            opts,
        ),
        Kind::Storm => ("storm.c", mv_workloads::commit_storm::SRC.to_string(), opts),
        Kind::Sweep => {
            let (funcs, switches, domain) = scale.sweep;
            // Raised exactly as the compile-cost table raises it, so
            // every assignment gets its own clone.
            let variant_limit = domain.pow(switches as u32) * 2;
            (
                "grid.c",
                mv_bench::compile_cost_src(funcs, switches, domain),
                Options {
                    variant_limit,
                    ..opts
                },
            )
        }
    }
}

/// Compiles a workload's source from cold, through the facade: the
/// process-wide compile cache is cleared first, so the build always
/// does the full work (every `mvcc` invocation starts cold).
fn build_cold(kind: Kind, scale: &Scale) -> Result<(Program, PipelineStats), BuildError> {
    let (unit, src, opts) = source(kind, scale);
    pipeline::clear_compile_cache();
    let mut p = Pipeline::new(opts);
    let program = Program::build_with_pipeline(&[(unit, &src)], &mut p, true)?;
    Ok((program, p.stats().clone()))
}

/// Sets a workload up from source text to a world ready for its first
/// op: cold compile, link, load, attach, backend install, input load
/// and initial commit.
pub fn setup(
    kind: Kind,
    scale: &Scale,
    seed: u64,
) -> Result<(Box<dyn Workload>, SetupInfo), String> {
    let (program, compile) = build_cold(kind, scale).map_err(|e| format!("build: {e}"))?;
    let info = SetupInfo {
        compile,
        image_bytes: program.image_size(),
    };
    let w: Box<dyn Workload> = match kind {
        Kind::Grep => Box::new(grep::Grep::boot(&program, scale, seed)?),
        Kind::Reconfig => Box::new(reconfig::Reconfig::boot(&program, scale, seed)?),
        Kind::Storm => Box::new(storm::Storm::boot(&program, scale, seed)?),
        Kind::Sweep => Box::new(sweep::Sweep::boot(program, scale, seed)?),
    };
    Ok((w, info))
}

/// The set-up split for the traced run: calls the layer entry points
/// `Program::build` and `Program::boot` use, in the same order (compile,
/// link, machine creation + load, runtime attach), each inside its own
/// span. Returns the compiler counters.
pub fn setup_split(kind: Kind, scale: &Scale, tr: &mut Tracer) -> Result<PipelineStats, String> {
    let (unit, src, opts) = source(kind, scale);
    pipeline::clear_compile_cache();
    let mut p = Pipeline::new(opts);
    let (obj, _warnings) = tr
        .span("compile", "mvc", || p.compile_unit(&src, unit))
        .map_err(|e| format!("compile: {e}"))?;
    let exe = tr
        .span("link", "mvobj", || link(&[obj], &Layout::default()))
        .map_err(|e| format!("link: {e}"))?;
    let machine = tr.span("load", "mvvm", || {
        if kind == Kind::Storm {
            SmpMachine::boot(&exe, storm::VCPUS).machine
        } else {
            let mut m = Machine::new(CostModel::default(), MachineConfig::default());
            m.load(&exe);
            m
        }
    });
    tr.span("attach", "mvrt", || Runtime::attach(&machine, &exe))
        .map_err(|e| format!("attach: {e}"))?;
    Ok(p.stats().clone())
}

/// A seeded 64-bit value for (`seed`, `a`, `b`): splitmix64 over the
/// mixed inputs, so neighbouring seeds and indices give unrelated
/// values.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
