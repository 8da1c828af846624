//! Regenerates every table and figure of the paper's evaluation (§6) as
//! text tables of deterministic VM cycle counts.
//!
//! ```text
//! paper_tables [--fig1] [--fig4-spinlock] [--fig4-pvops] [--fig5]
//!              [--grep] [--cpython] [--stats] [--btb] [--inline]
//!              [--smp] [--quick]
//! ```
//!
//! With no selector, all tables are printed. `--quick` shrinks workload
//! sizes for smoke runs.

use multiverse::bench::render_table;
use mv_bench as b;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let all = args.iter().all(|a| a == "--quick");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    let (musl_n, grep_sz, py_n) = if quick {
        (1_000, 16_384, 2_000)
    } else {
        (20_000, 262_144, 50_000)
    };

    println!("Multiverse (EuroSys'19) — reproduced evaluation tables");
    println!("(deterministic MVVM cycles; see EXPERIMENTS.md for the paper comparison)\n");

    if want("--fig1") {
        println!(
            "{}",
            render_table(
                "Fig. 1 — spin_irq_lock avg. cycles (bindings A/B/C)",
                &b::fig1_data()
            )
        );
    }
    if want("--fig4-spinlock") {
        println!(
            "{}",
            render_table(
                "Fig. 4 (left) — spinlock lock+unlock avg. cycles",
                &b::fig4_spinlock_data()
            )
        );
    }
    if want("--fig4-pvops") {
        println!(
            "{}",
            render_table(
                "Fig. 4 (right) — PV-Ops sti+cli avg. cycles",
                &b::fig4_pvops_data()
            )
        );
    }
    if want("--fig5") {
        println!(
            "{}",
            render_table(
                &format!("Fig. 5 — musl, cycles per call ({musl_n} calls)"),
                &b::fig5_data(musl_n)
            )
        );
    }
    if want("--grep") {
        let (rows, improvement) = b::grep_data(grep_sz);
        println!(
            "{}",
            render_table(
                &format!("§6.2.3 — grep end-to-end ({grep_sz}-byte hex corpus)"),
                &rows
            )
        );
        println!(
            "multiverse improvement: {:.2} %  (paper: 2.73 % on 2 GiB)\n",
            improvement * 100.0
        );
    }
    if want("--cpython") {
        let (rows, delta) = b::cpython_data(py_n);
        println!(
            "{}",
            render_table("§6.2.1 — cPython object allocation", &rows)
        );
        println!(
            "multiverse delta: {:.2} %  (paper: no statistically stable effect)\n",
            delta * 100.0
        );
    }
    if want("--stats") {
        let r = b::patch_stats_data(1161);
        println!("## §6.1 / §5 — patching and size accounting (1161 call sites, as the kernel)");
        println!("call sites recorded             {:>12}", r.call_sites);
        println!(
            "commit wall time                {:>12.3} ms   (paper: ~16 ms in-kernel)",
            r.commit_time.as_secs_f64() * 1e3
        );
        println!("image size, multiverse build    {:>12} B", r.mv_image);
        println!("image size, dynamic build       {:>12} B", r.dyn_image);
        println!(
            "multiverse overhead             {:>12} B   (paper: +40 KiB on ~10 MiB)",
            r.mv_image - r.dyn_image
        );
        println!(
            "multiverse.variables            {:>12} B   (= #switches × 32)",
            r.sec_vars
        );
        println!(
            "multiverse.functions            {:>12} B   (= Σ 48 + #v·(32 + #g·16))",
            r.sec_funcs
        );
        println!(
            "multiverse.callsites            {:>12} B   (= #sites × 16)\n",
            r.sec_sites
        );
        let rounds = if quick { 10 } else { 50 };
        println!("## §6.1 — commit latency distribution from the trace ring ({rounds} rounds, 1161 sites)");
        print!(
            "{}",
            b::render_latency_table(&b::commit_latency_percentiles(1161, rounds))
        );
        let (baseline, recording) = b::tracing_overhead(1161);
        let rec_pct = recording.as_secs_f64() / baseline.as_secs_f64() - 1.0;
        println!(
            "tracing overhead: baseline {baseline:>9.2?}  recording {recording:>9.2?} ({:+.1}%)\n",
            rec_pct * 100.0
        );
    }
    if want("--btb") {
        println!(
            "{}",
            render_table(
                "E10 — footnote 1: warm vs. cold predictors (SMP spinlock)",
                &b::btb_data()
            )
        );
    }
    if want("--inline") {
        println!(
            "{}",
            render_table(
                "E11 — §7.1 ablation: patching strategies (musl fputc, single-threaded)",
                &b::inline_ablation_data()
            )
        );
    }
    if want("--smp") {
        let (counts, iters, flips): (&[usize], u64, u32) = if quick {
            (&[2, 4], 64, 4)
        } else {
            (&[2, 4, 8], 512, 8)
        };
        let rows = b::smp_commit_data(counts, iters, flips);
        println!(
            "{}",
            render_table(
                &format!("E15 — quiesced commit under SMP lock contention ({iters} iters/worker, {flips} flips)"),
                &b::smp_commit_series(&rows)
            )
        );
        for r in &rows {
            assert!(
                r.consistent,
                "{} @ {} vCPUs lost an increment",
                r.strategy, r.vcpus
            );
        }
    }
}
