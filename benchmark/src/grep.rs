//! `grep`: E5 end to end. One op loads a fresh seeded hex corpus into
//! the haystack and runs `grep_all` over it; the match count must equal
//! the Rust reference counter.

use crate::trace::Tracer;
use crate::{Counters, Scale, Workload, BACKEND};
use multiverse::{Program, World};
use mv_workloads::textgen;

/// A booted, committed mini-grep.
pub struct Grep {
    w: World,
    haystack: u64,
    bytes: usize,
    seed: u64,
}

impl Grep {
    /// Boots `program` (the multiversed mini-grep) on the native
    /// backend, loads the seed's corpus, fixes `mb_mode = 0` and
    /// commits.
    pub fn boot(program: &Program, scale: &Scale, seed: u64) -> Result<Grep, String> {
        let e = |e: multiverse::BuildError| format!("grep setup: {e}");
        let mut w = program.boot();
        w.set_backend(BACKEND).map_err(e)?;
        let haystack = w.sym("haystack").map_err(e)?;
        let corpus = textgen::hex_corpus(scale.grep_bytes, seed);
        w.machine
            .mem
            .write(haystack, &corpus)
            .map_err(|m| format!("grep setup: {m}"))?;
        w.set("mb_mode", 0).map_err(e)?;
        w.commit().map_err(e)?;
        Ok(Grep {
            w,
            haystack,
            bytes: scale.grep_bytes,
            seed,
        })
    }
}

impl Workload for Grep {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<u64, String> {
        let corpus = tr.span("gen_input", "bench", || {
            textgen::hex_corpus(self.bytes, self.seed.wrapping_add(i))
        });
        let c0 = self.w.cycles();
        tr.span("write_input", "mvvm", || {
            self.w.machine.mem.write(self.haystack, &corpus)
        })
        .map_err(|e| format!("load corpus: {e}"))?;
        let got = tr
            .span("call", "mvvm", || {
                self.w.call("grep_all", &[corpus.len() as u64])
            })
            .map_err(|e| format!("grep_all: {e}"))?;
        let cycles = self.w.cycles() - c0;
        let want = tr.span("reference", "bench", || textgen::count_a_any_a(&corpus));
        if got != want {
            return Err(format!("grep_all counted {got} matches, reference {want}"));
        }
        Ok(cycles)
    }

    fn counters(&self) -> Counters {
        crate::run::machine_counters(&self.w.machine)
    }
}
