//! The commit fast path and the page-batched apply discipline.
//!
//! Delta planning: a `commit()` whose selected configuration is already
//! installed must plan **zero** text writes — no journal entries, no
//! mprotects, no flushes — and report the work as `unchanged`. Page
//! batching: the apply phase opens one RW window per touched text page,
//! performs every write inside, and relocks + flushes each page exactly
//! once, so protection-change and flush counts are O(pages) rather than
//! O(call sites). A 5-byte call site that straddles a page boundary must
//! open, restore and flush *both* pages, and a fault on the second
//! page's mprotect must roll the transaction back byte-identically.

use multiverse::{Program, World};
use mvasm::{Assembler, Insn, Reg, MV64};
use mvobj::descriptor::{
    emit_callsite, emit_function, emit_variable, parse_callsites, CallsiteDescSym, FnDescSym,
    GuardSym, VarDescSym, VariantDescSym, NOT_INLINABLE,
};
use mvobj::{link, Executable, Layout, Object};
use mvrt::{CommitPhase, Runtime};
use mvvm::{CostModel, FaultOp, FaultPlan, Machine, MachineConfig, PAGE_SIZE};

/// A workload with the paper's §6.1 call-site count: `n_sites` calls to
/// one multiversed `hot` function, spread over many small callers so the
/// sites span several text pages.
fn sites_src(n_sites: usize) -> String {
    let mut src = String::from(
        "multiverse bool feature;\n\
         multiverse void hot(void) { if (feature) { __out(1); } }\n",
    );
    let per_fn = 6;
    let mut emitted = 0;
    let mut i = 0;
    while emitted < n_sites {
        src.push_str(&format!("void caller{i}(void) {{\n"));
        for _ in 0..per_fn.min(n_sites - emitted) {
            src.push_str("    hot();\n");
            emitted += 1;
        }
        src.push_str("}\n");
        i += 1;
    }
    src.push_str("i64 main(void) { return 0; }\n");
    src
}

fn committed_world(n_sites: usize) -> (Program, World) {
    let program = Program::build(&[("sites.c", &sites_src(n_sites))]).unwrap();
    let mut w = program.boot();
    w.set("feature", 1).unwrap();
    (program, w)
}

fn text_of(program: &Program, w: &World) -> Vec<u8> {
    let (taddr, tsize) = program.exe().section(mvobj::SEC_TEXT);
    w.machine.mem.read_vec(taddr, tsize as usize).unwrap()
}

#[test]
fn recommit_plans_zero_writes() {
    let (_program, mut w) = committed_world(64);
    let r1 = w.commit().unwrap();
    assert!(r1.variants_committed >= 1);
    assert_eq!(r1.unchanged, 0);
    assert_eq!(r1.repatched, 0);

    let before = w.rt.as_ref().unwrap().stats;
    let r2 = w.commit().unwrap();
    let rt = w.rt.as_ref().unwrap();
    let d = rt.stats.since(&before);

    // Nothing was installed, everything was recognized as current.
    assert_eq!(r2.variants_committed, 0);
    assert_eq!(r2.sites_touched, 0);
    assert!(r2.unchanged >= 1, "{r2:?}");
    // …and nothing was written: no journal growth, no byte traffic, no
    // protection changes, no flushes.
    assert_eq!(d.journal_entries, 0);
    assert_eq!(d.bytes_written, 0);
    assert_eq!(d.mprotects, 0);
    assert_eq!(d.icache_flushes, 0);
    assert_eq!(d.pages_touched, 0);
    // Every recorded site was skipped by delta planning.
    assert_eq!(d.sites_skipped, rt.num_callsites() as u64);
}

#[test]
fn recommit_after_switch_change_reinstalls() {
    let (_program, mut w) = committed_world(12);
    w.commit().unwrap();
    // Flip the switch: the selected variant changes, so the fast path
    // must NOT trigger.
    w.set("feature", 0).unwrap();
    let r = w.commit().unwrap();
    assert_eq!(r.variants_committed, 1);
    assert_eq!(r.unchanged, 0);
}

#[test]
fn batched_commit_does_o_pages_protection_changes() {
    let (_program, mut w) = committed_world(1161);
    w.commit().unwrap();
    let stats = w.rt.as_ref().unwrap().stats;
    assert!(
        stats.pages_touched >= 2,
        "workload must span pages ({} touched)",
        stats.pages_touched
    );
    // One RW + one RX per touched page, one flush per touched page —
    // and far fewer of each than there are patched sites.
    assert_eq!(stats.mprotects, 2 * stats.pages_touched);
    assert_eq!(stats.icache_flushes, stats.pages_touched);
    assert!(stats.sites_patched > stats.pages_touched);
}

#[test]
fn committed_image_matches_the_descriptor_model() {
    let (program, mut w) = committed_world(100);
    let pristine = text_of(&program, &w);

    // The model, built from the descriptors alone: the pristine text with
    // every recorded call to `hot` re-encoded as a direct call to the
    // selected variant, and the generic entry as a jump to it.
    let (taddr, _) = program.exe().section(mvobj::SEC_TEXT);
    let (saddr, ssize) = program.exe().section(mvobj::SEC_MV_CALLSITES);
    let sites = parse_callsites(&w.machine.mem.read_vec(saddr, ssize as usize).unwrap()).unwrap();
    let hot = w.sym("hot").unwrap();
    let variant = w.sym("hot.feature=1").unwrap();
    let mut model = pristine.clone();
    let mut put = |addr: u64, bytes: Vec<u8>| {
        let off = (addr - taddr) as usize;
        model[off..off + bytes.len()].copy_from_slice(&bytes);
    };
    let mut hot_sites = 0;
    for d in sites.iter().filter(|d| d.callee == hot) {
        put(d.site, MV64.encode_call(d.site, variant).unwrap());
        hot_sites += 1;
    }
    assert_eq!(hot_sites, 100, "every call to hot is recorded");
    put(hot, MV64.encode_jmp(hot, variant).unwrap());

    w.commit().unwrap();
    assert_eq!(text_of(&program, &w), model, "committed text");
    w.revert().unwrap();
    assert_eq!(text_of(&program, &w), pristine, "reverted text");
}

#[test]
fn repatch_heals_a_tampered_entry_jump() {
    let (_program, mut w) = committed_world(12);
    w.commit().unwrap();
    let entry = w.sym("hot").unwrap();
    let good = w.machine.mem.read_vec(entry, 5).unwrap();

    // Corrupt the displacement of the committed entry jump behind the
    // runtime's back. Bookkeeping still says "variant bound", so plain
    // delta planning would skip it — the byte verification must notice
    // and schedule a healing re-install instead.
    w.machine.mem.write_unchecked(entry + 1, &[0xAA]);
    assert_ne!(w.machine.mem.read_vec(entry, 5).unwrap(), good);

    let r = w.commit().unwrap();
    assert_eq!(r.repatched, 1, "{r:?}");
    assert_eq!(r.variants_committed, 1, "repatch counts as a commit");
    assert_eq!(w.machine.mem.read_vec(entry, 5).unwrap(), good, "healed");

    // And the commit after the heal is a pure fast path again.
    let r = w.commit().unwrap();
    assert_eq!(r.repatched, 0);
    assert_eq!(r.variants_committed, 0);
    assert!(r.unchanged >= 1);
}

#[test]
fn tampered_call_site_still_fails_validation() {
    let (_program, mut w) = committed_world(12);
    w.commit().unwrap();
    let site = {
        let rt = w.rt.as_ref().unwrap();
        rt.validate(&w.machine).sites[0].site
    };
    // A tampered *site* is not healed silently: the repatch install is
    // planned, but its validate pass must reject the unknown bytes.
    w.machine.mem.write_unchecked(site, &[0x90]);
    let err = match w.commit() {
        Err(multiverse::BuildError::Rt(e)) => e,
        other => panic!("expected a validate failure, got {other:?}"),
    };
    assert_eq!(err.commit_phase(), Some(CommitPhase::Validate));
}

#[test]
fn fast_path_emits_skip_and_batch_events() {
    let (_program, mut w) = committed_world(12);
    w.rt.as_mut().unwrap().enable_tracing(4096);
    w.commit().unwrap();
    w.commit().unwrap();
    let events = w.rt.as_mut().unwrap().take_trace();
    let batches = events
        .iter()
        .filter(|e| matches!(e.kind, mvtrace::EventKind::PageBatch { .. }))
        .count();
    let skips: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            mvtrace::EventKind::ActionSkipped { function, sites } => Some((function, sites)),
            _ => None,
        })
        .collect();
    assert_eq!(batches, 1, "only the first commit writes");
    let hot = w.sym("hot").unwrap();
    let n_sites = w.rt.as_ref().unwrap().callsites_of(hot) as u64;
    assert!(
        skips.contains(&(hot, n_sites)),
        "second commit must skip hot's install: {skips:?}"
    );
}

// --- page-straddling call site ----------------------------------------

/// Builds a hand-laid-out program whose single recorded call site starts
/// `pad` bytes into `caller`, so the test can park the 5-byte site right
/// across a page boundary. Returns the site address alongside the usual
/// trio.
fn straddle_fixture(pad: usize) -> (Machine, Executable, Runtime, u64) {
    let mut o = Object::new("t");
    o.define_bss("A", 4);
    let mut a = Assembler::new();
    a.emit(Insn::Halt);
    o.add_code("main", &a.finish().unwrap());

    let mut a = Assembler::new();
    a.load_sym(Reg::R0, "A", 0, mvasm::Width::W32, true);
    a.ret();
    let g = a.finish().unwrap();
    let g_size = g.bytes.len() as u32;
    o.add_code("mv", &g);

    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 7);
    a.ret();
    o.add_code("mv.A=1", &a.finish().unwrap());

    let mut a = Assembler::new();
    for _ in 0..pad {
        a.emit(Insn::Nop { len: 1 });
    }
    let off = a.len() as u32;
    a.call_sym("mv", true);
    a.ret();
    o.add_code("caller", &a.finish().unwrap());
    emit_callsite(
        &mut o,
        &CallsiteDescSym {
            callee: "mv".into(),
            caller: "caller".into(),
            offset: off,
        },
    );
    emit_variable(
        &mut o,
        &VarDescSym {
            symbol: "A".into(),
            width: 4,
            signed: true,
            fn_ptr: false,
            name_sym: None,
        },
    );
    emit_function(
        &mut o,
        &FnDescSym {
            symbol: "mv".into(),
            generic_size: g_size,
            generic_inline_len: NOT_INLINABLE,
            name_sym: None,
            variants: vec![VariantDescSym {
                symbol: "mv.A=1".into(),
                body_size: 11,
                inline_len: NOT_INLINABLE,
                guards: vec![GuardSym {
                    var_symbol: "A".into(),
                    low: 1,
                    high: 1,
                }],
            }],
        },
    );
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
    m.load(&exe);
    m.mem.write_int(exe.symbol("A").unwrap(), 1, 4).unwrap();
    let rt = Runtime::attach(&m, &exe).unwrap();
    let site = exe.symbol("caller").unwrap() + off as u64;
    (m, exe, rt, site)
}

/// Pad needed so the recorded call site begins 2 bytes before a page
/// boundary (bytes 2 on the first page, 3 on the next).
fn straddle_pad() -> usize {
    let (_, _, _, site0) = straddle_fixture(0);
    let want = PAGE_SIZE - 2;
    ((want + PAGE_SIZE - site0 % PAGE_SIZE) % PAGE_SIZE) as usize
}

#[test]
fn straddling_site_commit_fixes_both_pages() {
    let (mut m, exe, mut rt, site) = straddle_fixture(straddle_pad());
    assert_eq!(site % PAGE_SIZE, PAGE_SIZE - 2, "site must straddle");
    let second_page = (site + 4) & !(PAGE_SIZE - 1);
    let v0 = (m.mem.code_version(site), m.mem.code_version(second_page));

    let report = rt.commit(&mut m).unwrap();
    assert_eq!(report.variants_committed, 1);
    assert_eq!(report.sites_touched, 1);

    // Both pages relocked (W^X restored) and both flushed.
    assert!(m.mem.write(site, &[0]).is_err(), "first page left RW");
    assert!(
        m.mem.write(second_page, &[0]).is_err(),
        "second page left RW"
    );
    let v1 = (m.mem.code_version(site), m.mem.code_version(second_page));
    assert!(v1.0 > v0.0 && v1.1 > v0.1, "{v0:?} -> {v1:?}");

    // The committed call reaches the variant: its rel32 points there.
    let target = exe.symbol("mv.A=1").unwrap();
    let bytes = m.mem.read_vec(site, 5).unwrap();
    let (Insn::CallRel { rel }, _) = mvasm::decode(&bytes).unwrap() else {
        panic!("site does not hold a call")
    };
    assert_eq!((site + 5).wrapping_add(rel as i64 as u64), target);
}

#[test]
fn straddling_site_fault_sweep_rolls_back_cleanly() {
    let pad = straddle_pad();
    // Probe a clean commit for the op counts, then fail every mprotect
    // and every flush position in turn — including the second page's RW
    // open and RX relock.
    let (mut probe_m, _exe, mut probe_rt, _site) = straddle_fixture(pad);
    probe_rt.commit(&mut probe_m).unwrap();
    let d = probe_rt.stats;
    assert!(d.mprotects >= 4, "straddle must touch several pages");

    let schedule = [
        (FaultOp::Mprotect, d.mprotects),
        (FaultOp::IcacheFlush, d.icache_flushes),
        (FaultOp::TextWrite, d.journal_entries),
    ];
    for (op, count) in schedule {
        for n in 1..=count {
            let (mut m, exe, mut rt, _site) = straddle_fixture(pad);
            let (taddr, tsize) = exe.section(mvobj::SEC_TEXT);
            let pristine = m.mem.read_vec(taddr, tsize as usize).unwrap();

            m.inject_fault(FaultPlan::new(op, n));
            let err = rt
                .commit(&mut m)
                .expect_err(&format!("{op:?}@{n} must surface"));
            assert_eq!(
                err.commit_phase(),
                Some(CommitPhase::Apply),
                "{op:?}@{n}: {err:?}"
            );
            assert_eq!(
                m.mem.read_vec(taddr, tsize as usize).unwrap(),
                pristine,
                "{op:?}@{n} tore the text"
            );
            assert_eq!(rt.stats.rollbacks, 1, "{op:?}@{n}");

            // One-shot fault has fired; the same commit heals.
            let report = rt.commit(&mut m).unwrap();
            assert_eq!(report.variants_committed, 1);
        }
    }
}
