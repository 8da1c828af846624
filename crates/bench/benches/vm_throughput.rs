//! Tiered-execution throughput: host-side guest-instruction throughput
//! of the tierless interpreter vs. the tiered engine (without and with
//! native regions) on the ALU-heavy loop workload.
//!
//! The deterministic sweep (identity verdicts + speedups) also runs as
//! the `vm_throughput_quick` CI gate; the criterion group measures one
//! warm run of the workload per tier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiverse::bench::render_table;
use multiverse::mvvm::{ExecTier, Machine};

fn bench(c: &mut Criterion) {
    let rows = mv_bench::vm_throughput_data(40_000, 5);
    println!(
        "{}",
        render_table(
            "Tiered execution — guest-instruction throughput (40k-iteration ALU loop)",
            &mv_bench::vm_throughput_series(&rows)
        )
    );
    for r in &rows {
        assert!(r.identical, "{}: diverged from tierless", r.tier);
    }
    let doc = mv_bench::VM_THROUGHPUT_DOC;
    doc.write(rows.iter().map(mv_bench::VmThroughputRow::json));
    println!("wrote {}\n", doc.file);

    let exe = mv_bench::vm_throughput_exe(4_000);
    let mut g = c.benchmark_group("vm_throughput");
    for tier in [ExecTier::Tierless, ExecTier::Tiered] {
        let mut m = Machine::boot(&exe);
        m.set_tier(tier);
        m.run_entry(&exe).expect("warm");
        g.bench_with_input(BenchmarkId::new("run", tier), &tier, |b, _| {
            b.iter(|| m.run_entry(&exe).expect("run"))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
