//! mvd control plane — commit-storm throughput: the coalescing daemon
//! vs. the naive one-commit-per-request driver on the same randomized
//! flip stream, for both quiesce protocols.
//!
//! The guest-cycle sweep is deterministic (it also runs as the
//! `commit_storm_quick` CI gate); the criterion group measures the host
//! wall time of driving one full storm through the daemon.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::mvrt::CommitStrategy;
use mv_workloads::commit_storm;

fn bench(c: &mut Criterion) {
    let rows = mv_bench::commit_storm_data(4, 8000, 96, 48);
    println!("mvd commit storm (96 requests, burst 48, 4 vCPUs):");
    for r in &rows {
        println!(
            "  {:<12} {:>3} commits ({:.1}x coalesced, {:.1}x cycle speedup), \
             p50 {:.0} / p95 {:.0} cycles, exact: {}",
            r.strategy.name(),
            r.commits,
            r.commit_ratio,
            r.speedup,
            r.p50_cycles,
            r.p95_cycles,
            r.workers_exact
        );
        assert!(r.workers_exact, "{}: a worker lost iterations", r.strategy);
    }
    let doc = mv_bench::COMMIT_STORM_DOC;
    doc.write(rows.iter().map(mv_bench::CommitStormRow::json));
    println!("wrote {}\n", doc.file);

    let mut g = c.benchmark_group("commit_storm");
    for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
        for burst in [12u64, 48] {
            g.bench_with_input(
                BenchmarkId::new(strategy.name(), burst),
                &burst,
                |b, &burst| {
                    b.iter(|| {
                        let r = commit_storm::run_storm(4, 4000, 96, burst, strategy, 0x57)
                            .expect("storm");
                        assert!(r.workers_exact);
                        r.commits
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    // Simulated workloads are deterministic; short sampling keeps the
    // full suite fast without changing any conclusion.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
