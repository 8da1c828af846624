//! Engine differential suite: a world on the tiered engine, whose
//! multiversed functions run as native host-closure regions kept in step
//! by every commit, must be observation-identical to the tierless
//! reference on every workload — byte-identical committed text images,
//! identical machine [`Stats`](multiverse::mvvm::Stats), identical
//! patcher stats, identical results — differing only in how fast the
//! host executes them. An engine that gets faster by observing
//! differently is a broken engine, not a fast one.
//!
//! Coverage: every `mv_workloads` case study (spinlock, pvops, musl,
//! grep, cpython, alternative), a commit/revert/partial-commit drive on
//! a fresh program, one full fault-index sweep (every position of every
//! fault op), and the quiesced SMP protocols.

use multiverse::mvvm::{ExecTier, MachineMode, Platform};
use multiverse::{Program, World};
use mv_workloads::{alternative, cpython, grep, musl, pvops, spinlock, textgen};

/// The reference engine first, then the one held to it.
const TIERS: [ExecTier; 2] = [ExecTier::Tierless, ExecTier::Tiered];

fn text_of(w: &World) -> Vec<u8> {
    let (addr, size) = w.exe().section(multiverse::mvobj::SEC_TEXT);
    w.machine.mem.read_vec(addr, size as usize).unwrap()
}

/// Everything one engine's run exposes to an observer: the drive's own
/// outputs, the final text image, the guest-side machine counters and
/// the patcher counters.
#[derive(Debug, PartialEq)]
struct Observation<O> {
    output: O,
    text: Vec<u8>,
    machine: multiverse::mvvm::Stats,
    patcher: Option<multiverse::mvrt::PatchStats>,
}

/// Boots one world per engine, drives both identically, and asserts
/// the observations match field by field.
fn differential<O: PartialEq + std::fmt::Debug>(
    label: &str,
    boot: impl Fn() -> World,
    drive: impl Fn(&mut World) -> O,
) {
    let run = |tier: ExecTier| {
        let mut w = boot();
        w.set_tier(tier);
        let output = drive(&mut w);
        Observation {
            output,
            text: text_of(&w),
            machine: w.machine.stats,
            patcher: w.rt.as_ref().map(|rt| rt.stats),
        }
    };
    let reference = run(TIERS[0]);
    let native = run(TIERS[1]);
    assert_eq!(
        reference.output, native.output,
        "{label}: observable outputs diverged"
    );
    assert_eq!(
        reference.text, native.text,
        "{label}: committed text images diverged"
    );
    assert_eq!(
        reference.machine, native.machine,
        "{label}: machine stats diverged"
    );
    assert_eq!(
        reference.patcher, native.patcher,
        "{label}: patcher stats diverged"
    );
}

#[test]
fn spinlock_kernels_are_backend_identical() {
    for kind in [
        spinlock::KernelBuild::NoElision,
        spinlock::KernelBuild::ElisionIf,
        spinlock::KernelBuild::ElisionMultiverse,
        spinlock::KernelBuild::IfdefOff,
    ] {
        for mode in [MachineMode::Unicore, MachineMode::Multicore] {
            if kind == spinlock::KernelBuild::IfdefOff && mode == MachineMode::Multicore {
                continue; // statically determined to UP
            }
            differential(
                kind.label(),
                || spinlock::boot(kind, mode).unwrap(),
                |w| {
                    let lock = spinlock::measure_lock(w, 200).unwrap();
                    let pair = spinlock::measure_pair(w, 200).unwrap();
                    (lock.to_bits(), pair.to_bits())
                },
            );
        }
    }
}

#[test]
fn pvops_kernels_are_backend_identical() {
    for build in [
        pvops::PvBuild::Current,
        pvops::PvBuild::Multiverse,
        pvops::PvBuild::IfdefDisabled,
    ] {
        for platform in [Platform::Native, Platform::XenGuest] {
            differential(
                build.label(),
                || pvops::boot(build, platform).unwrap(),
                |w| pvops::measure(w, 200).unwrap().to_bits(),
            );
        }
    }
}

#[test]
fn musl_is_backend_identical() {
    for threads in [musl::ThreadMode::Single, musl::ThreadMode::Multi] {
        for build in [musl::MuslBuild::Without, musl::MuslBuild::With] {
            differential(
                build.label(),
                || musl::boot(build, threads).unwrap(),
                |w| {
                    musl::LibcFn::all()
                        .iter()
                        .map(|&f| musl::run_bench(w, f, 50).unwrap())
                        .collect::<Vec<_>>()
                },
            );
        }
    }
}

#[test]
fn grep_is_backend_identical() {
    let corpus = textgen::hex_corpus(2048, 2019);
    for build in [grep::GrepBuild::Without, grep::GrepBuild::With] {
        for multibyte in [false, true] {
            differential(
                "grep",
                || grep::boot(build, &corpus, multibyte).unwrap(),
                |w| grep::run(w, corpus.len()).unwrap(),
            );
        }
    }
}

#[test]
fn cpython_is_backend_identical() {
    for build in [cpython::PyBuild::Without, cpython::PyBuild::With] {
        for gc in [false, true] {
            differential(
                "cpython",
                || cpython::boot(build, gc).unwrap(),
                |w| cpython::run(w, 200).unwrap(),
            );
        }
    }
}

#[test]
fn alternative_is_backend_identical() {
    for smap in [false, true] {
        differential(
            "alternative",
            || alternative::boot(smap).unwrap(),
            |w| {
                let buf = w.sym("user_buf").unwrap();
                let data: Vec<u8> = (0..=255).collect();
                w.machine.mem.write(buf, &data).unwrap();
                let n = w.call("copy_from_user", &[64]).unwrap();
                let kbuf = w.sym("kernel_buf").unwrap();
                (n, w.machine.mem.read_vec(kbuf, 64).unwrap())
            },
        );
    }
}

/// The differential methodology is only sound if compiling the same
/// source twice yields the same bytes. Regression for a hash-order leak
/// in the codegen spill path: the caller-saved spill sequence iterated a
/// `HashMap`, so the free-list refill order — and with it later register
/// choices — varied run to run.
#[test]
fn builds_are_reproducible_within_a_process() {
    let text_at_boot = || {
        let w = musl::boot(musl::MuslBuild::Without, musl::ThreadMode::Single).unwrap();
        text_of(&w)
    };
    let reference = text_at_boot();
    for round in 0..20 {
        assert_eq!(
            text_at_boot(),
            reference,
            "rebuild {round} produced different text bytes"
        );
    }
}

/// A multi-switch, multi-function program for the drive and fault
/// dimensions: three multiversed functions over two switches, callers
/// recording patchable sites.
const DRIVE_SRC: &str = r#"
    multiverse(0, 1, 2) i32 a_;
    multiverse(0, 1) i32 b_;

    multiverse i64 f1(void) { return a_ * 10 + 1; }
    multiverse i64 f2(void) { return b_ * 100 + 2; }
    multiverse i64 f3(void) { return a_ * 1000 + b_ * 10000; }

    i64 g1(void) { return f1(); }
    i64 g2(void) { return f2(); }
    i64 g3(void) { return f1() + f3(); }

    i64 main(void) { return 0; }
"#;

/// Commit / call / revert / partial-commit sequences leave both
/// engines in the same state after every step, not just at the end.
#[test]
fn commit_revert_drive_is_backend_identical() {
    let program = Program::build(&[("d.c", DRIVE_SRC)]).unwrap();
    differential(
        "drive",
        || program.boot(),
        |w| {
            let mut log: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut observe = |w: &mut World| {
                let calls: u64 = ["g1", "g2", "g3"]
                    .iter()
                    .map(|f| w.call(f, &[]).unwrap())
                    .sum();
                let t = text_of(w);
                log.push((calls, t));
            };
            w.set("a_", 1).unwrap();
            w.set("b_", 1).unwrap();
            w.commit().unwrap();
            observe(w);
            w.set("a_", 2).unwrap();
            w.commit_refs("a_").unwrap();
            observe(w);
            w.revert().unwrap();
            observe(w);
            w.commit_func("f3").unwrap();
            observe(w);
            w.commit().unwrap();
            observe(w);
            log
        },
    );
}

/// The fault dimension: for every position of every fault op in a full
/// commit, both engines surface the same error, roll back to the same
/// pristine image, and heal into the same committed image.
#[test]
fn fault_sweep_is_backend_identical() {
    use multiverse::mvvm::{FaultOp, FaultPlan};

    let program = Program::build(&[("d.c", DRIVE_SRC)]).unwrap();
    let boot_configured = |tier: ExecTier| {
        let mut w = program.boot();
        w.set_tier(tier);
        w.set("a_", 1).unwrap();
        w.set("b_", 1).unwrap();
        w
    };

    // Probe: the op counts of one clean commit (identical per engine by
    // the drive test above; use the reference).
    let mut probe = boot_configured(TIERS[0]);
    probe.commit().unwrap();
    let d = probe.rt.as_ref().unwrap().stats;
    let schedule = [
        (FaultOp::TextWrite, d.journal_entries),
        (FaultOp::Mprotect, d.mprotects),
        (FaultOp::IcacheFlush, d.icache_flushes),
    ];

    for (op, count) in schedule {
        for n in 1..=count {
            let observe = |tier: ExecTier| {
                let mut w = boot_configured(tier);
                w.machine.inject_fault(FaultPlan::new(op, n));
                let err = format!(
                    "{:?}",
                    w.commit()
                        .expect_err(&format!("{tier}: {op:?}@{n} must surface"))
                );
                let torn = text_of(&w);
                let rollbacks = w.rt.as_ref().unwrap().stats.rollbacks;
                // One-shot fault has fired; the same commit heals.
                let report = w.commit().unwrap();
                let healed = text_of(&w);
                let calls: Vec<u64> = ["g1", "g2", "g3"]
                    .iter()
                    .map(|f| w.call(f, &[]).unwrap())
                    .collect();
                (
                    err,
                    torn,
                    rollbacks,
                    report.variants_committed,
                    healed,
                    calls,
                )
            };
            let reference = observe(TIERS[0]);
            let native = observe(TIERS[1]);
            assert_eq!(reference, native, "{op:?} fault at position {n} diverged");
        }
    }
}

/// Quiesced SMP commits: both protocols, both engines, same worker
/// results and same committed image. (Under SMP the tiered engine
/// leaves native regions unused whenever a vCPU's sticky instruction
/// cache is active, so this pins down that regions never change SMP
/// semantics.)
#[test]
fn smp_quiesced_commits_are_backend_identical() {
    use multiverse::mvrt::CommitStrategy;

    const SMP_SRC: &str = r#"
        multiverse bool fast;
        multiverse i64 work(i64 n) {
            i64 acc = 0;
            for (i64 i = 0; i < n; i++) {
                if (fast) { acc = acc + 2; } else { acc = acc + 1; }
            }
            return acc;
        }
        i64 worker(i64 n) { return work(n); }
        i64 main(void) { return 0; }
    "#;
    let program = Program::build(&[("s.c", SMP_SRC)]).unwrap();

    for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
        let run = |tier: ExecTier| {
            let mut w = program.boot_smp(4);
            w.set_tier(tier);
            w.set("fast", 1).unwrap();
            let report = w.commit_quiesced(strategy).unwrap();
            w.spawn_all("worker", &[64]).unwrap();
            let results = w.run(100_000).unwrap();
            let (addr, size) = w.exe().section(multiverse::mvobj::SEC_TEXT);
            let text = w.smp.machine.mem.read_vec(addr, size as usize).unwrap();
            (report.commit.variants_committed, results, text)
        };
        let reference = run(TIERS[0]);
        let native = run(TIERS[1]);
        assert_eq!(reference, native, "{strategy}: SMP run diverged");
        assert!(
            reference.1.iter().all(|&r| r == 128),
            "{strategy}: workers computed the committed fast path"
        );
    }
}
