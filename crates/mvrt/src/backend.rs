//! Runtime backends: the pluggable policy layer between the commit
//! machinery and the machine.
//!
//! The ISA-level contract (encodings, widths, displacement reach) lives
//! in [`mvasm::abi::Backend`]; this module layers the *runtime*-level
//! decisions on top as [`RtBackend`]: which ABI the patcher speaks and
//! what extra work a successful commit must do to keep the tiered
//! engine coherent with the new function bindings.
//!
//! Two implementations ship:
//!
//! * [`Mv64RtBackend`] — the reference backend. MV64 encodings, no
//!   post-commit work. This is what every runtime uses unless told
//!   otherwise.
//! * [`HostTierBackend`] — the native host-closure backend. Identical
//!   encodings (committed images are byte-for-byte those of
//!   [`Mv64RtBackend`]), but after every successful commit it
//!   reconciles the machine's [native region registry] against the
//!   current function bindings: the *live* body of every multiversed
//!   function (committed variant or generic fallback) is lowered to a
//!   pre-resolved micro-op region and executed by the VM's tiered
//!   engine, and regions for bodies that are no longer live are dropped.
//!
//! [native region registry]: mvvm::Machine::ensure_native
//!
//! Because the two backends produce identical images, traces and stats,
//! their observable behavior differs only in execution speed — the
//! differential test suite holds them to that.

use crate::runtime::{FnBinding, Runtime};
use mvvm::{ExecTier, Machine};
use std::sync::Arc;

/// Runtime-level backend policy. Object-safe; the runtime stores one as
/// `Arc<dyn RtBackend>` and consults it on every commit.
///
/// `Send + Sync` is required: the commit daemon moves whole runtimes
/// across threads.
pub trait RtBackend: Send + Sync {
    /// Stable backend name, as spelled in CLI flags and reports.
    fn name(&self) -> &'static str;

    /// The ISA contract this backend patches under.
    fn abi(&self) -> &'static dyn mvasm::Backend;

    /// Execution tier this backend wants the machine on, if it cares.
    /// Boot facades apply it when the backend is installed; the sync
    /// hook itself never changes the tier the embedder chose.
    fn preferred_tier(&self) -> Option<ExecTier> {
        None
    }

    /// Post-commit hook: runs once after every *successful* transaction
    /// (unicore and quiesced alike), with the new bindings already in
    /// place and the image flushed. The default does nothing.
    fn sync(&self, m: &mut Machine, rt: &Runtime) {
        let _ = (m, rt);
    }
}

/// The reference backend: MV64 encodings, no post-commit work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mv64RtBackend;

impl RtBackend for Mv64RtBackend {
    fn name(&self) -> &'static str {
        "mv64"
    }

    fn abi(&self) -> &'static dyn mvasm::Backend {
        mvasm::MV64
    }
}

/// The native host-closure backend.
///
/// Encodings are exactly [`Mv64RtBackend`]'s, so
/// committed images are byte-identical; the difference is the
/// [`RtBackend::sync`] hook, which keeps the machine's native
/// region registry congruent with the function bindings: one lowered
/// region per multiversed function, rooted at the committed variant's
/// entry (or the generic entry on fallback), stale roots dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTierBackend;

impl RtBackend for HostTierBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn abi(&self) -> &'static dyn mvasm::Backend {
        mvasm::MV64
    }

    fn preferred_tier(&self) -> Option<ExecTier> {
        Some(ExecTier::Tiered)
    }

    fn sync(&self, m: &mut Machine, rt: &Runtime) {
        // Regions only run on the tiered engine; a machine the embedder
        // left tierless stays that way.
        if m.tier() == ExecTier::Tierless {
            return;
        }
        // The live entry of every multiversed function: the committed
        // variant, or the generic body under fallback. Entry-jump
        // chasing is unnecessary — a Variant binding means calls land on
        // the variant directly (patched sites) or via the entry jump,
        // and the jump itself stays on the block engine.
        let desired: Vec<u64> = rt
            .fns
            .iter()
            .zip(&rt.tables.fns)
            .map(|(f, desc)| match f.binding {
                FnBinding::Variant(v) => v,
                FnBinding::Generic => desc.generic,
            })
            .collect();
        m.retain_native(|entry| desired.contains(&entry));
        for &entry in &desired {
            // Best-effort: a body the lowerer cannot digest (indirect
            // control flow up front, unmapped pages) simply stays on
            // the block engine — semantics are tier-independent.
            m.ensure_native(entry);
        }
    }
}

/// Parses a CLI spelling into a backend (`mv64`, `native`/`host`).
pub fn parse(name: &str) -> Option<Arc<dyn RtBackend>> {
    match name {
        "mv64" => Some(Arc::new(Mv64RtBackend)),
        "native" | "host" => Some(Arc::new(HostTierBackend)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back() {
        for name in ["mv64", "native"] {
            assert_eq!(parse(name).unwrap().name(), name);
        }
        assert_eq!(parse("host").unwrap().name(), "native");
        assert!(parse("nope").is_none());
    }

    #[test]
    fn both_backends_speak_mv64() {
        assert_eq!(Mv64RtBackend.abi().name(), "mv64");
        assert_eq!(HostTierBackend.abi().name(), "mv64");
    }

    #[test]
    fn backends_are_object_safe_and_sendable() {
        fn takes_send_sync<T: Send + Sync>(_: T) {}
        let b: Arc<dyn RtBackend> = Arc::new(HostTierBackend);
        takes_send_sync(b);
    }
}
