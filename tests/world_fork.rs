//! `World::fork`: a forked world runs on from its parent's state, and
//! from then on neither world sees what the other does.
//!
//! A fork shares guest memory copy-on-write and shares the decode,
//! block and native-region caches by `Rc`. The caches' O(1) validity
//! fast path is keyed on the memory's identity as well as its flush
//! epoch: two forks that flush different pages the same number of times
//! reach the same epoch over different text, and a block one of them
//! validated must not vouch for the other's.

use multiverse::mvrt::FnBinding;
use multiverse::mvvm::{self, ExecTier, Stats};
use multiverse::{BuildError, Program, World};

/// Two independent switches whose functions and call sites sit on
/// different text pages: `fa` and `call_a` before a multi-page `pad`,
/// `fb` and `call_b` after it.
fn src() -> String {
    let pad: String = (0..400)
        .map(|k| format!("    x = x * 7 + {k};\n"))
        .collect();
    format!(
        r#"
        multiverse bool a;
        multiverse bool b;
        multiverse i64 fa(i64 x) {{
            if (a) {{ return x * 3; }}
            return x + 1;
        }}
        i64 call_a(i64 x) {{ return fa(x) + fa(x + 1); }}
        i64 pad(i64 x) {{
        {pad}
            return x;
        }}
        multiverse i64 fb(i64 x) {{
            if (b) {{ return x * 5; }}
            return x + 2;
        }}
        i64 call_b(i64 x) {{ return fb(x) + fb(x + 2); }}
        i64 main(void) {{ return call_a(1) * 1000 + call_b(2); }}
        "#
    )
}

/// A booted world on the tiered engine that has run `main` once, so
/// its block cache and native regions are populated.
fn warm(p: &Program) -> World {
    let mut w = p.boot();
    w.set_tier(ExecTier::Tiered);
    w.call("main", &[]).unwrap();
    w
}

/// Sets `switch` and commits only the functions it guards.
fn flip(w: &mut World, switch: &str) -> Result<(), BuildError> {
    w.set(switch, 1)?;
    w.commit_refs(switch)?;
    Ok(())
}

/// One `main` call: its result, the machine's counters and cycles after it.
fn observe(w: &mut World) -> (u64, Stats, u64) {
    let r = w.call("main", &[]).unwrap();
    (r, w.machine.stats, w.cycles())
}

#[test]
fn forks_at_equal_flush_epochs_do_not_share_validity() {
    let p = Program::build(&[("fork.c", &src())]).unwrap();
    let mut parent = warm(&p);
    assert_eq!(parent.machine.tier(), ExecTier::Tiered);
    assert!(parent.machine.block_stats().misses > 0, "blocks cached");
    assert!(parent.machine.native_stats().regions > 0, "regions cached");
    let page = |w: &World, f: &str| w.sym(f).unwrap() / mvvm::PAGE_SIZE;
    assert_eq!(page(&parent, "fa"), page(&parent, "call_a"));
    assert_eq!(page(&parent, "fb"), page(&parent, "call_b"));
    assert_ne!(
        page(&parent, "call_a"),
        page(&parent, "call_b"),
        "each flip must patch a page the other leaves alone"
    );

    let mut child = parent.fork();
    flip(&mut parent, "a").unwrap();
    flip(&mut child, "b").unwrap();
    assert_eq!(
        parent.machine.mem.flush_epoch(),
        child.machine.mem.flush_epoch(),
        "the hazard needs equal epochs over different text"
    );

    let mut fresh_a = warm(&p);
    flip(&mut fresh_a, "a").unwrap();
    let mut fresh_b = warm(&p);
    flip(&mut fresh_b, "b").unwrap();
    // Parent first, then child; then the other way round.
    let parent1 = observe(&mut parent);
    let child1 = observe(&mut child);
    let child2 = observe(&mut child);
    let parent2 = observe(&mut parent);
    assert_eq!(parent1, observe(&mut fresh_a), "parent, first call");
    assert_eq!(parent2, observe(&mut fresh_a), "parent, second call");
    assert_eq!(child1, observe(&mut fresh_b), "child, first call");
    assert_eq!(child2, observe(&mut fresh_b), "child, second call");
    // a=1: fa(1)+fa(2) = 3+6; b=1: fb(2)+fb(4) = 10+20.
    assert_eq!(parent1.0, 9 * 1000 + (4 + 6));
    assert_eq!(child1.0, (2 + 3) * 1000 + 30);
}

#[test]
fn fork_replays_cached_blocks_and_regions_without_rebuilding() {
    let p = Program::build(&[("fork.c", &src())]).unwrap();
    let mut parent = warm(&p);
    let before = (parent.machine.block_stats(), parent.machine.native_stats());
    let mut child = parent.fork();
    assert_eq!(
        (child.machine.block_stats(), child.machine.native_stats()),
        before
    );
    let want = parent.call("main", &[]).unwrap();
    assert_eq!(child.call("main", &[]).unwrap(), want);
    let (blocks, native) = (child.machine.block_stats(), child.machine.native_stats());
    assert_eq!(blocks.misses, before.0.misses, "no block re-recorded");
    assert_eq!(native.regions, before.1.regions, "no region re-lowered");
    assert!(native.runs > before.1.runs, "the shared regions ran");
}

#[test]
fn fork_is_isolated_from_its_parent() {
    let p = Program::build(&[("fork.c", &src())]).unwrap();
    let mut parent = warm(&p);
    let cycles = parent.cycles();
    let mut child = parent.fork();
    assert_eq!(child.cycles(), cycles);
    assert_eq!(child.machine.stats, parent.machine.stats);
    assert_ne!(child.machine.mem.id(), parent.machine.mem.id());

    flip(&mut child, "a").unwrap();
    assert_eq!(child.call("main", &[]).unwrap(), 9 * 1000 + 4 + 6);
    // The parent's switch, bindings, text and counters are untouched.
    assert_eq!(parent.get("a").unwrap(), 0);
    let fa = parent.sym("fa").unwrap();
    let rt = parent.rt.as_ref().unwrap();
    assert_eq!(rt.binding_of(fa), Some(FnBinding::Generic));
    assert_eq!(parent.cycles(), cycles);
    assert_eq!(parent.call("main", &[]).unwrap(), (2 + 3) * 1000 + 4 + 6);
    let fresh = warm(&p);
    assert_eq!(
        parent.machine.mem.read_vec(fa, 8).unwrap(),
        fresh.machine.mem.read_vec(fa, 8).unwrap(),
        "the child's entry jump did not reach the parent's text"
    );
}
