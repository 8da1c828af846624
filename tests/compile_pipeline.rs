//! The staged compile pipeline (§3): parallel clone+fold must be
//! *byte-identical* to the sequential build, the compile cache must
//! replay — not re-derive — variants, and the content-addressed merge
//! must keep guards covering exactly the assignments it merged.
//!
//! The differential tests serialize whole `.mvo` objects and compare the
//! bytes; the property tests drive random switch domains (contiguous and
//! not) through build → commit and through the merge/guard synthesis
//! directly.

use multiverse::mvc::pipeline::{self};
use multiverse::mvc::{CompileError, Options, Pipeline};
use multiverse::mvobj::write_object;
use multiverse::Program;
use proptest::prelude::*;

/// Three units with cross-unit calls, switch extern declarations, merging
/// opportunities (`c` values 1 and 2 collapse) and a non-contiguous
/// domain (`{0, 2, 5}`) that forces point guards.
const CONFIG: &str = r#"
    multiverse bool dbg;
    multiverse(0, 1, 2) i32 c;
    multiverse(0, 2, 5) i32 mode;
"#;
const LIB: &str = r#"
    extern multiverse bool dbg;
    extern multiverse(0, 1, 2) i32 c;
    multiverse i64 get(i64 x) {
        i64 acc = x;
        if (dbg) { acc = acc + 100; }
        if (c) { acc = acc * 2; }
        return acc;
    }
"#;
const MAIN: &str = r#"
    extern multiverse(0, 2, 5) i32 mode;
    extern multiverse i64 get(i64 x);
    multiverse i64 pick(i64 x) {
        if (mode < 3) { return x + 1; }
        return x - 1;
    }
    i64 main(void) { return get(3) + pick(4); }
"#;

fn units() -> Vec<(&'static str, &'static str)> {
    vec![("config.c", CONFIG), ("lib.c", LIB), ("main.c", MAIN)]
}

fn opts(jobs: usize, cache: bool) -> Options {
    Options {
        variant_limit: 64,
        jobs,
        cache,
        ..Options::default()
    }
}

/// `-j N` must produce the same serialized `.mvo` bytes — code,
/// descriptors, symbols, relocations — as `-j 1`, unit by unit, along
/// with the same warnings in the same order.
#[test]
fn parallel_objects_are_byte_identical() {
    let mut baseline = Vec::new();
    for (name, src) in units() {
        let (obj, warn) = Pipeline::new(opts(1, false))
            .compile_unit(src, name)
            .expect("sequential build");
        baseline.push((name, write_object(&obj), obj.fingerprint(), warn));
    }
    for jobs in [2usize, 4, 8] {
        for (i, (name, src)) in units().into_iter().enumerate() {
            let (obj, warn) = Pipeline::new(opts(jobs, false))
                .compile_unit(src, name)
                .expect("parallel build");
            let (bname, bbytes, bfp, bwarn) = &baseline[i];
            assert_eq!(*bname, name);
            assert_eq!(obj.fingerprint(), *bfp, "{name}: -j {jobs} fingerprint");
            assert_eq!(&write_object(&obj), bbytes, "{name}: -j {jobs} .mvo bytes");
            assert_eq!(&warn, bwarn, "{name}: -j {jobs} warnings");
        }
    }
}

/// A warm build replays every variant from the compile cache (no clones
/// re-specialized) and still serializes to the cold build's exact bytes —
/// even when the warm build is parallel.
#[test]
fn cached_build_is_byte_identical_and_skips_cloning() {
    pipeline::clear_compile_cache();
    let mut cold = Pipeline::new(opts(1, true));
    let mut cold_bytes = Vec::new();
    for (name, src) in units() {
        let (obj, _) = cold.compile_unit(src, name).expect("cold build");
        cold_bytes.push(write_object(&obj));
    }
    assert!(cold.stats().cache_misses > 0, "cold build must miss");
    assert_eq!(cold.stats().cache_hits, 0);

    let mut warm = Pipeline::new(opts(4, true));
    for (i, (name, src)) in units().into_iter().enumerate() {
        let (obj, _) = warm.compile_unit(src, name).expect("warm build");
        assert_eq!(write_object(&obj), cold_bytes[i], "{name}: warm .mvo bytes");
    }
    assert_eq!(warm.stats().cache_hits, cold.stats().cache_misses);
    assert_eq!(warm.stats().clones, 0, "hits must not re-specialize");
    assert!(warm.stats().cached_variants > 0);
}

/// The whole-program entry points agree too: `Program` built through an
/// explicit parallel pipeline behaves like the default build.
#[test]
fn program_through_pipeline_matches_default_build() {
    let p_default = Program::build(&units()).expect("default build");
    let mut pl = Pipeline::new(opts(4, false));
    let p_pipe = Program::build_with_pipeline(&units(), &mut pl, true).expect("pipeline build");
    let mut wd = p_default.boot();
    let mut wp = p_pipe.boot();
    for (a, b, m) in [(0i64, 0i64, 0i64), (1, 2, 5), (1, 1, 2)] {
        for w in [&mut wd, &mut wp] {
            w.revert().unwrap();
            w.set("dbg", a).unwrap();
            w.set("c", b).unwrap();
            w.set("mode", m).unwrap();
            w.commit().unwrap();
        }
        assert_eq!(
            wd.call("get", &[9]).unwrap(),
            wp.call("get", &[9]).unwrap(),
            "dbg={a} c={b}"
        );
        assert_eq!(
            wd.call("pick", &[9]).unwrap(),
            wp.call("pick", &[9]).unwrap(),
            "mode={m}"
        );
    }
}

/// A pipeline with a ring installed records its stage spans: the ring
/// is the only switch, with no process-wide flag to turn on first. Every
/// stage that begins also ends, in order.
#[test]
fn pipeline_with_a_ring_records_stage_spans() {
    use multiverse::mvtrace::EventKind;
    let mut pl = Pipeline::new(opts(1, false));
    pl.enable_tracing(4096);
    Program::build_with_pipeline(&units(), &mut pl, true).expect("pipeline build");
    let events = pl.take_trace();
    let begins: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageBegin { stage } => Some(stage),
            _ => None,
        })
        .collect();
    let ends: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageEnd { stage, .. } => Some(stage),
            _ => None,
        })
        .collect();
    assert!(!begins.is_empty(), "no stage_begin events: {events:?}");
    assert_eq!(begins, ends, "every stage_begin has its stage_end");
}

/// The explosion error names every offending switch with its domain
/// size, so the user knows exactly which factors to restrict.
#[test]
fn explosion_error_names_the_offending_switches() {
    let src = r#"
        multiverse(1, 2, 3, 4, 5, 6, 7, 8) i32 big_a;
        multiverse(1, 2, 3, 4, 5, 6, 7, 8) i32 big_b;
        multiverse void f(void) { if (big_a + big_b) { __out(1); } }
        i64 main(void) { return 0; }
    "#;
    let err = Pipeline::new(Options {
        variant_limit: 32,
        ..Options::default()
    })
    .compile_unit(src, "t.c")
    .expect_err("must explode");
    match &err {
        CompileError::VariantExplosion {
            function,
            variants,
            limit,
            switches,
        } => {
            assert_eq!(function, "f");
            assert_eq!((*variants, *limit), (64, 32));
            assert_eq!(
                switches,
                &vec![("big_a".to_string(), 8), ("big_b".to_string(), 8)]
            );
        }
        other => panic!("wrong error: {other:?}"),
    }
    let msg = err.to_string();
    for needle in [
        "`f`",
        "64 variants",
        "limit 32",
        "`big_a` (8 values)",
        "`big_b` (8 values)",
        "×",
    ] {
        assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
    }
}

/// Writing the same switch twice in one function — or the compiler
/// visiting a function through more than one path — must not duplicate
/// the diagnostic.
#[test]
fn repeated_warnings_are_deduplicated() {
    let src = r#"
        multiverse bool w;
        multiverse void f(void) {
            if (w) { w = 0; }
            w = 1;
        }
        i64 main(void) { return 0; }
    "#;
    let (_, warnings) = Pipeline::new(opts(1, false))
        .compile_unit(src, "t.c")
        .expect("build");
    let writes: Vec<_> = warnings
        .iter()
        .filter(|w| matches!(w, multiverse::mvc::Warning::SwitchWrittenInVariant { .. }))
        .collect();
    assert_eq!(writes.len(), 1, "one warning for two writes: {warnings:?}");
    // No exact duplicates anywhere in the unit's diagnostics.
    for (i, a) in warnings.iter().enumerate() {
        assert!(!warnings[i + 1..].contains(a), "duplicated warning: {a:?}");
    }
}

/// A random domain as written in a `multiverse(v1, v2, …)` attribute:
/// 1–4 distinct sorted values in a small range, frequently
/// non-contiguous.
fn arb_domain() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..10, 1..5).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn domain_src(name: &str, dom: &[i64]) -> String {
    let vals: Vec<String> = dom.iter().map(|v| v.to_string()).collect();
    format!("multiverse({}) i32 {name};\n", vals.join(", "))
}

/// Oracle for the generated function body below.
fn oracle(s0: i64, s1: i64, t0: i64, t1: i64, x: i64) -> i64 {
    let mut acc = x;
    if t0 < s0 {
        acc = acc.wrapping_add(3);
    }
    if t1 < s1 {
        acc = acc.wrapping_mul(2);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// End-to-end merge/guard soundness: for random (often
    /// non-contiguous) domains, committing every in-domain assignment
    /// dispatches to a variant that computes exactly what the dynamic
    /// build computes. Thresholded bodies make distinct assignments
    /// collapse, so range guards, point-guard fallbacks and merged
    /// bodies are all on the committed path.
    #[test]
    fn random_domains_commit_to_the_right_variant(
        d0 in arb_domain(),
        d1 in arb_domain(),
        t0 in 0i64..10,
        t1 in 0i64..10,
    ) {
        let src = format!(
            "{}{}multiverse i64 f(i64 x) {{\n\
                 i64 acc = x;\n\
                 if ({t0} < s0) {{ acc = acc + 3; }}\n\
                 if ({t1} < s1) {{ acc = acc * 2; }}\n\
                 return acc;\n\
             }}\n\
             i64 main(void) {{ return 0; }}\n",
            domain_src("s0", &d0),
            domain_src("s1", &d1),
        );
        let dynamic =
            Program::build_with(&[("t.c", &src)], &Options::dynamic()).unwrap();
        let mv = Program::build_with(&[("t.c", &src)], &opts(2, false)).unwrap();
        let mut wd = dynamic.boot();
        let mut wm = mv.boot();
        for &a in &d0 {
            for &b in &d1 {
                wm.revert().unwrap();
                for w in [&mut wd, &mut wm] {
                    w.set("s0", a).unwrap();
                    w.set("s1", b).unwrap();
                }
                wm.commit().unwrap();
                for x in [-3i64, 0, 7] {
                    let want = oracle(a, b, t0, t1, x) as u64;
                    prop_assert_eq!(wd.call("f", &[x as u64]).unwrap(), want,
                        "dynamic s0={} s1={} x={}", a, b, x);
                    prop_assert_eq!(wm.call("f", &[x as u64]).unwrap(), want,
                        "committed s0={} s1={} x={}", a, b, x);
                }
            }
        }
    }

    /// Merge/guard synthesis invariants, checked against the descriptor
    /// data itself: variants partition the cross product, and each
    /// variant's guard sets match exactly its own assignments — no
    /// over- or under-covering, for boxes and point-guard fallbacks
    /// alike.
    #[test]
    fn guards_cover_exactly_the_merged_assignments(
        d0 in arb_domain(),
        d1 in arb_domain(),
        t0 in 0i64..10,
        t1 in 0i64..10,
    ) {
        use multiverse::mvc::{lexer::lex, lower::lower_unit, mv, parser::parse};
        let src = format!(
            "{}{}multiverse i64 f(i64 x) {{\n\
                 i64 acc = x;\n\
                 if ({t0} < s0) {{ acc = acc + 3; }}\n\
                 if ({t1} < s1) {{ acc = acc * 2; }}\n\
                 return acc;\n\
             }}\n",
            domain_src("s0", &d0),
            domain_src("s1", &d1),
        );
        let l = lower_unit(&parse(&lex(&src).unwrap()).unwrap()).unwrap();
        let f = l.funcs.iter().find(|f| f.name == "f").unwrap();
        let r = mv::generate_variants(f, &l.ctx, 64).unwrap().unwrap();

        // The variants partition the cross product.
        let mut covered: Vec<Vec<(String, i64)>> = Vec::new();
        for v in &r.variants {
            for a in &v.assignments {
                prop_assert!(!covered.contains(a), "assignment in two variants: {:?}", a);
                covered.push(a.clone());
            }
        }
        prop_assert_eq!(covered.len(), d0.len() * d1.len());

        // Guard sets accept an assignment iff the variant owns it.
        let matches = |guards: &[multiverse::mvobj::descriptor::GuardSym],
                       assign: &[(String, i64)]| {
            guards.iter().all(|g| {
                assign
                    .iter()
                    .any(|(n, v)| *n == g.var_symbol && g.low as i64 <= *v && *v <= g.high as i64)
            })
        };
        for v in &r.variants {
            for assign in &covered {
                let accepted = v.guard_sets.iter().any(|gs| matches(gs, assign));
                let owned = v.assignments.contains(assign);
                prop_assert_eq!(
                    accepted, owned,
                    "variant {} guards {:?} vs assignment {:?}",
                    &v.name, &v.guard_sets, assign
                );
            }
        }
    }
}
