//! Differential oracle for the tiered execution engine: under every
//! [`ExecTier`] the machine must be *observation-identical* to the
//! tierless interpreter — same results, same cycle counts, same
//! [`Stats`], same committed text images, same SMP schedules — on real
//! compiled programs, through real runtime commits/reverts, through
//! quiesced concurrent commits, and through injected commit faults.
//! The tiered engine memoizes decode, never semantics; these tests are
//! the contract.

use multiverse::mvasm::{self, Insn, Reg};
use multiverse::mvobj::{self, link, Layout, Object, Prot, SectionKind, Symbol};
use multiverse::mvrt::CommitStrategy;
use multiverse::mvvm::{ExecTier, FaultOp, FaultPlan, SmpMachine, Stats, PAGE_SIZE};
use multiverse::{Program, SmpWorld};
use mv_workloads::smp_contention;

const VCPUS: usize = 4;
const ITERS: u64 = 96;
const WARM_ROUNDS: u64 = 6;
const MAX_ROUNDS: u64 = 10_000_000;

const SRC: &str = r#"
    multiverse bool fast;
    multiverse i64 pick(void) {
        if (fast) { return 1; }
        return 2;
    }
    i64 use_it(void) { return pick(); }
    i64 main(void) { return 0; }
"#;

/// A full commit/revert life cycle on a compiled program: every call
/// result, the cycle count and the machine [`Stats`] must be identical
/// at every tier — the runtime's patches and icache flushes must
/// invalidate blocks precisely enough that no stale variant survives
/// and no fresh one appears early.
#[test]
fn compiled_program_commit_cycle_is_tier_invariant() {
    let program = Program::build(&[("t.c", SRC)]).unwrap();
    let run = |tier: ExecTier| -> (Vec<u64>, u64, Stats, u64) {
        let mut w = program.boot();
        w.machine.set_tier(tier);
        let mut results = Vec::new();
        for _ in 0..24 {
            results.push(w.call("use_it", &[]).unwrap());
        }
        w.set("fast", 1).unwrap();
        w.commit().unwrap();
        for _ in 0..24 {
            results.push(w.call("use_it", &[]).unwrap());
        }
        w.revert().unwrap();
        results.push(w.call("use_it", &[]).unwrap());
        w.set("fast", 0).unwrap();
        results.push(w.call("use_it", &[]).unwrap());
        (
            results,
            w.cycles(),
            w.machine.stats,
            w.machine.block_stats().hits,
        )
    };
    let (base, cycles, stats, _) = run(ExecTier::Tierless);
    assert_eq!(&base[..24], &[2; 24], "generic before commit");
    assert_eq!(&base[24..48], &[1; 24], "variant after commit");
    assert_eq!(base[48], 1, "reverted generic still evaluates fast=1");
    assert_eq!(base[49], 2, "generic reads the switch dynamically again");
    let tier = ExecTier::Tiered;
    let (r, c, s, hits) = run(tier);
    assert_eq!(r, base, "{tier}: results diverged");
    assert_eq!(c, cycles, "{tier}: cycles diverged");
    assert_eq!(s, stats, "{tier}: stats diverged");
    assert!(hits > 0, "{tier}: repeated calls must replay blocks");
}

/// Three multiversed functions over two switches, so a commit binds
/// some to variants and leaves others generic.
const REGIONS_SRC: &str = r#"
    multiverse(0, 1, 2) i32 a_;
    multiverse(0, 1) i32 b_;
    multiverse i64 f1(void) { return a_ * 10 + 1; }
    multiverse i64 f2(void) { return b_ * 100 + 2; }
    multiverse i64 f3(void) { return a_ * 1000 + b_ * 10000; }
    i64 main(void) { return f1() + f2() + f3(); }
"#;

/// The live entry of every multiversed function: the committed variant,
/// or the generic body. Ascending, like [`Machine::native_entries`].
///
/// [`Machine::native_entries`]: multiverse::mvvm::Machine::native_entries
fn live_entries(w: &multiverse::World) -> Vec<u64> {
    use multiverse::mvrt::FnBinding;
    let rt = w.rt.as_ref().unwrap();
    let mut live: Vec<u64> = ["f1", "f2", "f3"]
        .iter()
        .map(|f| {
            let generic = w.sym(f).unwrap();
            match rt.binding_of(generic).unwrap() {
                FnBinding::Variant(v) => v,
                FnBinding::Generic => generic,
            }
        })
        .collect();
    live.sort_unstable();
    live
}

/// Native regions follow the tier: `World::set_tier(Tiered)` lowers
/// every multiversed function's live entry before the first commit, and
/// after each commit or revert the registry holds exactly the live
/// entries. A tierless world keeps none. The older engine names map
/// onto the same two tiers.
#[test]
fn tiered_world_regions_track_the_live_entries() {
    let program = Program::build(&[("r.c", REGIONS_SRC)]).unwrap();
    let mut w = program.boot();
    w.set_tier(ExecTier::Tiered);
    let live = live_entries(&w);
    for &entry in &live {
        assert!(w.machine.has_native(entry), "{entry:#x} not lowered");
    }
    assert_eq!(w.machine.native_entries(), live, "before the first commit");

    w.set("a_", 1).unwrap();
    w.set("b_", 1).unwrap();
    w.commit().unwrap();
    let committed = live_entries(&w);
    assert_ne!(committed, live, "the commit must rebind some function");
    assert_eq!(w.machine.native_entries(), committed, "after commit");
    assert_eq!(w.call("main", &[]).unwrap(), 11 + 102 + 11000);
    assert!(w.machine.native_stats().runs > 0, "regions must run");

    w.revert().unwrap();
    assert_eq!(live_entries(&w), live);
    assert_eq!(w.machine.native_entries(), live, "after revert");

    let mut tierless = program.boot();
    tierless.set_tier(ExecTier::Tierless);
    tierless.commit().unwrap();
    assert!(tierless.machine.native_entries().is_empty());

    for (name, tier) in [
        ("mv64", ExecTier::Tierless),
        ("native", ExecTier::Tiered),
        ("host", ExecTier::Tiered),
    ] {
        let mut by_name = program.boot();
        by_name.set_backend(name).unwrap();
        let mut by_tier = program.boot();
        by_tier.set_tier(tier);
        assert_eq!(by_name.machine.tier(), tier, "{name}");
        assert_eq!(
            by_name.machine.native_entries(),
            by_tier.machine.native_entries(),
            "{name}"
        );
        let mut smp = program.boot_smp(2);
        smp.set_backend(name).unwrap();
        assert_eq!(smp.smp.tier(), tier, "{name} on SMP");
    }
}

fn boot_workers(p: &Program, tier: ExecTier, seed: u64) -> SmpWorld {
    let mut w = p.boot_smp(VCPUS);
    w.smp.set_seed(seed);
    w.smp.set_tier(tier);
    w.set("config_smp", 1).unwrap();
    w.spawn_all("worker", &[ITERS]).unwrap();
    for _ in 0..WARM_ROUNDS {
        w.smp.step_round();
    }
    w
}

fn text_of(p: &Program, w: &SmpWorld) -> Vec<u8> {
    let (taddr, tsize) = p.exe().section(mvobj::SEC_TEXT);
    w.smp.machine.mem.read_vec(taddr, tsize as usize).unwrap()
}

/// Quiesced commit + revert against live contending workers: the
/// committed image, the final image, every per-vCPU cycle counter, the
/// aggregate stats and the locked counter must match the tierless run
/// exactly, under both quiesce protocols.
#[test]
fn quiesced_commits_are_tier_invariant() {
    let p = smp_contention::build().unwrap();
    for strategy in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
        let run = |tier: ExecTier| {
            let mut w = boot_workers(&p, tier, 7);
            w.commit_quiesced(strategy).unwrap();
            let committed = text_of(&p, &w);
            for _ in 0..WARM_ROUNDS {
                w.smp.step_round();
            }
            w.revert_quiesced(strategy).unwrap();
            w.run(MAX_ROUNDS).unwrap();
            let cycles: Vec<u64> = (0..VCPUS).map(|i| w.smp.cycles_of(i)).collect();
            let counter = w.get("counter").unwrap();
            (
                committed,
                text_of(&p, &w),
                cycles,
                w.smp.total_stats(),
                counter,
            )
        };
        let base = run(ExecTier::Tierless);
        assert_eq!(
            base.4,
            (VCPUS as i64) * (ITERS as i64),
            "{strategy}: tierless lost an increment"
        );
        let tier = ExecTier::Tiered;
        assert_eq!(run(tier), base, "{strategy} {tier}: diverged from tierless");
    }
}

/// Commit faults at several schedule positions: a failed quiesced
/// commit must roll back to the pristine image and the workers must
/// finish exact — with per-vCPU cycles identical at every tier, so the
/// rollback path is observation-identical too.
#[test]
fn faulted_quiesced_commits_are_tier_invariant() {
    let p = smp_contention::build().unwrap();
    for (op, n) in [(FaultOp::TextWrite, 2), (FaultOp::Mprotect, 1)] {
        let run = |tier: ExecTier| {
            let mut w = boot_workers(&p, tier, 42);
            let pristine = text_of(&p, &w);
            w.smp.machine.inject_fault(FaultPlan::new(op, n));
            w.commit_quiesced(CommitStrategy::Breakpoint)
                .expect_err("injected fault must surface");
            assert_eq!(text_of(&p, &w), pristine, "{tier} {op:?}@{n}: torn text");
            w.run(MAX_ROUNDS).unwrap();
            let cycles: Vec<u64> = (0..VCPUS).map(|i| w.smp.cycles_of(i)).collect();
            (cycles, w.get("counter").unwrap(), text_of(&p, &w))
        };
        let base = run(ExecTier::Tierless);
        assert_eq!(base.1, (VCPUS as i64) * (ITERS as i64), "{op:?}@{n}");
        let tier = ExecTier::Tiered;
        assert_eq!(run(tier), base, "{op:?}@{n} {tier}: diverged");
    }
}

/// An executable whose `straddle` function starts 2 bytes before a page
/// boundary, so its 10-byte `mov r0, imm` encoding spans two pages; the
/// imm field lives entirely on the tail page.
fn straddle_exe() -> (mvobj::Executable, u64) {
    let mut a = mvasm::Assembler::new();
    a.call_sym("straddle", false);
    a.emit(Insn::Halt);
    while a.len() < PAGE_SIZE as usize - 2 {
        a.emit(Insn::Nop { len: 1 });
    }
    let off = a.len() as u64;
    a.mov_ri(Reg::R0, 1);
    a.ret();
    let blob = a.finish().unwrap();
    let mut o = Object::new("t");
    o.append(mvobj::SEC_TEXT, SectionKind::Text, &blob.bytes);
    o.define(Symbol::func("main", mvobj::SEC_TEXT, 0, 6));
    o.define(Symbol::func("straddle", mvobj::SEC_TEXT, off, 11));
    for f in &blob.fixups {
        let kind = match f.kind {
            mvasm::FixupKind::Rel32 { next_insn } => mvobj::RelocKind::Rel32 {
                next_insn: next_insn as u64,
            },
            mvasm::FixupKind::Abs64 => mvobj::RelocKind::Abs64,
        };
        o.relocate(mvobj::Reloc {
            section: mvobj::SEC_TEXT.into(),
            offset: f.offset as u64,
            kind,
            symbol: f.symbol.clone(),
            addend: f.addend,
        });
    }
    let exe = link(&[o], &Layout::default()).unwrap();
    let entry = exe.symbol("straddle").unwrap();
    (exe, entry)
}

/// Page-straddling patch site under *ranged* remote shootdowns, in the
/// SMP sticky-icache discipline: a shootdown covering only the patched
/// tail-page bytes does **not** evict the decode (the instruction
/// *starts* on the head page — the same instruction-start-address rule
/// the per-insn cache uses), while a shootdown covering the start
/// refreshes it. Every tier must observe the exact same staleness.
#[test]
fn straddling_patch_under_ranged_shootdown_is_tier_invariant() {
    let run = |tier: ExecTier| {
        let (exe, straddle) = straddle_exe();
        let imm = straddle + 2; // first byte of the MovRI immediate
        assert_eq!(imm % PAGE_SIZE, 0, "imm field must open the tail page");
        let mut smp = SmpMachine::boot(&exe, 2);
        smp.set_tier(tier);
        fn observe(smp: &mut SmpMachine, entry: u64) -> Vec<u64> {
            for i in 0..2 {
                smp.spawn(i, entry, &[]).unwrap();
            }
            smp.run_until_done(1000).unwrap()
        }
        assert_eq!(
            observe(&mut smp, exe.entry),
            vec![1, 1],
            "{tier}: warm both vCPU caches"
        );

        // Patch the immediate (tail page only) host-side.
        smp.machine.mem.mprotect(imm, 8, Prot::RW).unwrap();
        smp.machine.mem.write(imm, &2i64.to_le_bytes()).unwrap();
        smp.machine.mem.mprotect(imm, 8, Prot::RX).unwrap();

        // A shootdown of just the patched bytes misses the insn start.
        smp.flush_remote(Some((imm, imm + 8)));
        let after_tail_flush = observe(&mut smp, exe.entry);

        // A shootdown covering the instruction start evicts it.
        smp.flush_remote(Some((straddle, straddle + 10)));
        let after_full_flush = observe(&mut smp, exe.entry);
        (
            after_tail_flush,
            after_full_flush,
            smp.block_stats().evictions,
        )
    };
    let (tail, full, _) = run(ExecTier::Tierless);
    assert_eq!(
        tail,
        vec![1, 1],
        "start-address rule: tail-only flush keeps stale"
    );
    assert_eq!(full, vec![2, 2], "flush over the start refreshes");
    let tier = ExecTier::Tiered;
    let (t, f, evictions) = run(tier);
    assert_eq!((t, f), (tail.clone(), full.clone()), "{tier}: diverged");
    assert!(
        evictions >= 1,
        "{tier}: the ranged shootdown must evict blocks"
    );
}
