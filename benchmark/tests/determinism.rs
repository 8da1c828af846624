//! Self-tests of the benchmark: every exact metric repeats run to run,
//! seeds change the generated inputs, and every set-up compiles cold.

use mv_benchmark::run::{run, Config, Length, Outcome};
use mv_benchmark::{setup, storm, sweep, Kind, Scale};
use std::sync::Mutex;

/// The compile cache is process-wide and every set-up clears it, so
/// tests that build must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_run(kind: Kind, seed: u64, trace: bool) -> Outcome {
    let out = run(&Config {
        kind,
        scale: Scale::SMALL,
        seed,
        length: Length::Ops(4),
        setups: 2,
        trace,
    })
    .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    assert_eq!(out.failed, 0, "{}: {:?}", kind.name(), out.failures);
    out
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metric(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// Metrics that count work rather than time it: equal on every run of
/// the same seed and op count.
const EXACT_END_TO_END: [&str; 2] = ["guest_cycles_per_op", "image_bytes"];
const EXACT_PER_LAYER: [&str; 15] = [
    "mvc.functions",
    "mvc.clones",
    "mvc.variants",
    "mvc.merge_rate",
    "mvvm.guest_insns",
    "mvvm.native_insn_share",
    "mvrt.sites_touched",
    "mvrt.bytes_written",
    "mvrt.mprotects",
    "mvrt.icache_flushes",
    "mvrt.mvd_commits_per_request",
    "mvrt.quiesce_guest_cycles",
    "mvvx.steps",
    "mvvx.splits",
    "mvvx.leaves",
];

#[test]
fn exact_metrics_repeat() {
    let _g = serial();
    for kind in Kind::ALL {
        for (trace, names) in [(false, &EXACT_END_TO_END[..]), (true, &EXACT_PER_LAYER[..])] {
            let a = small_run(kind, 7, trace);
            let b = small_run(kind, 7, trace);
            for &name in names {
                assert_eq!(
                    value(&a, name).to_bits(),
                    value(&b, name).to_bits(),
                    "{}: {name} differs between identical runs",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn each_workload_does_its_layer_work() {
    let _g = serial();
    let per_layer = |kind| small_run(kind, 3, true);
    let grep = per_layer(Kind::Grep);
    assert!(value(&grep, "mvvm.guest_insns") > 0.0);
    assert_eq!(
        value(&grep, "mvrt.sites_touched"),
        0.0,
        "grep commits only in set-up"
    );
    let reconfig = per_layer(Kind::Reconfig);
    assert_eq!(
        value(&reconfig, "mvrt.sites_touched"),
        Scale::SMALL.reconfig_sites as f64
    );
    let storm = per_layer(Kind::Storm);
    let coalesced = value(&storm, "mvrt.mvd_commits_per_request");
    assert!(coalesced > 0.0 && coalesced < 1.0, "{coalesced}");
    let sweep = per_layer(Kind::Sweep);
    let (_, switches, domain) = Scale::SMALL.sweep;
    assert_eq!(
        value(&sweep, "mvvx.leaves"),
        domain.pow(switches as u32) as f64
    );
    for out in [&grep, &reconfig, &storm, &sweep] {
        assert!(out.dominant_layer.is_some());
        assert!(!out.tracer.spans().is_empty());
    }
}

#[test]
fn seeds_change_the_inputs() {
    let _g = serial();
    // The corpus changes grep's guest work; the storm's flip stream and
    // the sweep's stored assignments are compared directly, since the
    // guest cycles of those workloads do not depend on them.
    let a = value(&small_run(Kind::Grep, 1, false), "guest_cycles_per_op");
    let b = value(&small_run(Kind::Grep, 2, false), "guest_cycles_per_op");
    assert_ne!(a, b, "grep: seeds 1 and 2 ran the same corpus");
    assert_eq!(storm::burst(1, 0, 48), storm::burst(1, 0, 48));
    assert_ne!(storm::burst(1, 0, 48), storm::burst(2, 0, 48));
    assert_ne!(storm::burst(1, 0, 48), storm::burst(1, 1, 48));
    let stored = |seed, op| sweep::assignment(seed, op, 6, 2);
    assert_eq!(stored(1, 0), stored(1, 0));
    assert!((0..8).any(|op| stored(1, op) != stored(2, op)));
}

#[test]
fn every_setup_compiles_cold() {
    let _g = serial();
    for kind in Kind::ALL {
        for round in 0..2 {
            let (_, info) = setup(kind, &Scale::SMALL, 5).expect("setup");
            assert!(
                info.compile.clones > 0,
                "{} set-up {round} replayed the compile cache",
                kind.name()
            );
            assert_eq!(info.compile.cache_hits, 0);
        }
    }
}
