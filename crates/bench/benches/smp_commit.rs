//! E15 — concurrent-commit cost on a truly multi-vCPU machine: commit
//! latency and worker stall cycles vs. core count for both quiesce
//! protocols, plus host-side throughput of the quiesced commit itself.
//!
//! The guest-cycle table is deterministic (the sweep also runs as the
//! `smp_commit_quick` CI gate); the criterion group measures the host
//! wall time of one commit+revert flip against live workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::bench::render_table;
use multiverse::mvrt::CommitStrategy;
use mv_workloads::smp_contention;

fn bench(c: &mut Criterion) {
    let rows = mv_bench::smp_commit_data(&[2, 4, 8], 256, 8);
    println!(
        "{}",
        render_table(
            "E15 — quiesced commit under SMP lock contention (256 iters/worker, 8 flips)",
            &mv_bench::smp_commit_series(&rows)
        )
    );
    for r in &rows {
        assert!(r.consistent, "{} @ {} vCPUs", r.strategy, r.vcpus);
    }
    let doc = mv_bench::SMP_COMMIT_DOC;
    doc.write(rows.iter().map(mv_bench::SmpCommitRow::json));
    println!("wrote {}\n", doc.file);

    // Host wall time of one quiesced flip against live workers. The
    // workers get a huge iteration budget and the world is rebooted if
    // they ever drain, so every sample quiesces a machine that is
    // genuinely mid-flight.
    let program = smp_contention::build().expect("build");
    let fresh = |n: usize| {
        let mut w = program.boot_smp(n);
        w.smp.set_seed(7);
        w.set("config_smp", 1).unwrap();
        w.spawn_all("worker", &[1_000_000]).unwrap();
        for _ in 0..4 {
            w.smp.step_round();
        }
        w
    };
    let mut g = c.benchmark_group("smp_commit");
    for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
        for vcpus in [2usize, 4, 8] {
            let mut w = fresh(vcpus);
            g.bench_with_input(BenchmarkId::new(strategy.name(), vcpus), &vcpus, |b, &n| {
                b.iter(|| {
                    if !w.smp.any_live() {
                        w = fresh(n);
                    }
                    w.smp.step_round();
                    w.commit_quiesced(strategy).expect("commit");
                    w.revert_quiesced(strategy).expect("revert")
                })
            });
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
