//! The ISA backend contract: every encoding decision the Multiverse §4
//! patching discipline depends on, behind one trait.
//!
//! Call-site rewriting, the generic-entry completeness jump, NOP fill
//! and inline-below-call-site images are all *facts about an
//! instruction set*: how wide a `call rel32` is, how its displacement is
//! computed, what bytes a NOP sled uses, what byte a planted trap is.
//! [`Backend`] owns those facts; [`Mv64Backend`] is the reference
//! implementation, extracted verbatim from the encoders that used to be
//! scattered across `mvrt::patch` and `mvc::codegen`. Everything above
//! this module (the runtime's transactions, quiesce protocols and the
//! compiler's call-site padding) talks to a `&dyn Backend` and never
//! names `CALL_SITE_LEN` or a raw opcode again.
//!
//! The trait-level invariants (see DESIGN.md "Backend contract"):
//!
//! * **Call-site width** — [`Backend::call_site_len`] bytes hold a whole
//!   `call rel32`; every recorded call site and every generic function
//!   entry is at least this wide.
//! * **Entry-jump atomicity** — [`Backend::encode_jmp`] produces exactly
//!   `call_site_len` bytes, so redirecting a generic entry is one
//!   contiguous write covered by one journal span.
//! * **Inline-size rule** — [`Backend::inline_image`] only accepts
//!   bodies that fit the site and pads the rest with
//!   [`Backend::nop_fill`], so an inlined variant never overwrites
//!   neighboring instructions.
//! * **Reach checking** — displacements are validated against the ±2 GiB
//!   `rel32` field by [`checked_rel32`] (the one shared implementation)
//!   instead of silently truncating.

use crate::insn::Insn;

/// Errors a backend can report while constructing patch images.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbiError {
    /// A `rel32` displacement from `site` to `target` does not fit the
    /// field.
    DisplacementOutOfRange {
        /// Address the displacement-carrying instruction starts at.
        site: u64,
        /// Requested branch target.
        target: u64,
    },
    /// An inline body is larger than the call site it should replace.
    InlineTooLarge {
        /// Body size in bytes.
        body: usize,
        /// Available site size in bytes.
        site_len: usize,
    },
}

impl core::fmt::Display for AbiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AbiError::DisplacementOutOfRange { site, target } => {
                write!(f, "displacement {site:#x} -> {target:#x} exceeds rel32")
            }
            AbiError::InlineTooLarge { body, site_len } => {
                write!(
                    f,
                    "inline body of {body} bytes exceeds {site_len}-byte site"
                )
            }
        }
    }
}

impl std::error::Error for AbiError {}

/// The one checked `rel32` displacement computation: from `next` (the
/// address immediately after the displacement-carrying instruction) to
/// `target`, or `None` when the distance exceeds the ±2 GiB reach of the
/// field. Both the assembler's branch fixups and the runtime's patch
/// encoders go through here — truncating `as i32` casts are how a
/// clean-looking patch lands 4 GiB off target.
pub fn checked_rel32(next: u64, target: u64) -> Option<i32> {
    i32::try_from(target as i128 - next as i128).ok()
}

/// Everything ISA-specific the patching layers need. See the module docs
/// for the invariants each method must uphold.
///
/// Backends are stateless encoders, so the trait demands `Send + Sync`:
/// runtimes store them behind shared handles and the commit daemon moves
/// whole runtimes across threads.
pub trait Backend: Send + Sync {
    /// Backend name (for reports).
    fn name(&self) -> &'static str;

    /// Width in bytes of a patchable call site: one whole `call rel32`.
    fn call_site_len(&self) -> usize;

    /// Longest instruction encoding this ISA produces — how many bytes a
    /// decoder may need to look at.
    fn max_insn_len(&self) -> usize;

    /// The one-byte trap instruction planted by the breakpoint quiesce
    /// protocol (`int3` on x86, `OP_TRAP` on MV64).
    fn trap_byte(&self) -> u8;

    /// Checked `rel32` displacement for a `call_site_len`-byte
    /// instruction at `at` reaching `target`.
    fn rel32(&self, at: u64, target: u64) -> Result<i32, AbiError> {
        at.checked_add(self.call_site_len() as u64)
            .and_then(|next| checked_rel32(next, target))
            .ok_or(AbiError::DisplacementOutOfRange { site: at, target })
    }

    /// Resolved target of a `call rel32` whose encoding starts at `site`.
    fn call_target(&self, site: u64, rel: i32) -> u64 {
        (site + self.call_site_len() as u64).wrapping_add(rel as i64 as u64)
    }

    /// Encodes a `call rel32` at `site` aimed at `target`. Exactly
    /// [`Backend::call_site_len`] bytes.
    fn encode_call(&self, site: u64, target: u64) -> Result<Vec<u8>, AbiError>;

    /// Encodes the generic-entry completeness `jmp rel32` at `at` aimed
    /// at `target`. Exactly [`Backend::call_site_len`] bytes.
    fn encode_jmp(&self, at: u64, target: u64) -> Result<Vec<u8>, AbiError>;

    /// A `len`-byte sled of NOP instructions.
    fn nop_fill(&self, len: usize) -> Vec<u8>;

    /// The byte image for inlining `body` (already stripped of its final
    /// return) into a site of `site_len` bytes, NOP-padded to exactly
    /// `site_len`. An empty body yields a pure NOP sled (Fig. 3 c); an
    /// oversized body is [`AbiError::InlineTooLarge`].
    fn inline_image(&self, body: &[u8], site_len: usize) -> Result<Vec<u8>, AbiError> {
        if body.len() > site_len {
            return Err(AbiError::InlineTooLarge {
                body: body.len(),
                site_len,
            });
        }
        let mut v = body.to_vec();
        v.extend(self.nop_fill(site_len - body.len()));
        Ok(v)
    }

    /// Pads a just-generated function body so its entry can later hold
    /// the completeness jump: extends `bytes` with NOP fill up to
    /// [`Backend::call_site_len`] if it is shorter (the codegen-side
    /// half of the entry-jump invariant).
    fn pad_entry(&self, bytes: &mut Vec<u8>) {
        if bytes.len() < self.call_site_len() {
            let fill = self.nop_fill(self.call_site_len() - bytes.len());
            bytes.extend(fill);
        }
    }
}

/// The MV64 reference backend: 5-byte `call rel32`/`jmp rel32`, 1- and
/// N-byte NOP encodings, `0xCC`-style one-byte trap.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mv64Backend;

/// The MV64 backend as a shareable trait object.
pub const MV64: &dyn Backend = &Mv64Backend;

impl Backend for Mv64Backend {
    fn name(&self) -> &'static str {
        "mv64"
    }

    fn call_site_len(&self) -> usize {
        crate::CALL_SITE_LEN
    }

    fn max_insn_len(&self) -> usize {
        16
    }

    fn trap_byte(&self) -> u8 {
        crate::encode::OP_TRAP
    }

    fn encode_call(&self, site: u64, target: u64) -> Result<Vec<u8>, AbiError> {
        Ok(crate::encode(&Insn::CallRel {
            rel: self.rel32(site, target)?,
        }))
    }

    fn encode_jmp(&self, at: u64, target: u64) -> Result<Vec<u8>, AbiError> {
        Ok(crate::encode(&Insn::Jmp {
            rel: self.rel32(at, target)?,
        }))
    }

    fn nop_fill(&self, len: usize) -> Vec<u8> {
        crate::nop_fill(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_and_jmp_are_exactly_one_call_site() {
        let site = 0x1_0000u64;
        let call = MV64.encode_call(site, 0x2_0000).unwrap();
        let jmp = MV64.encode_jmp(site, 0x2_0000).unwrap();
        assert_eq!(call.len(), MV64.call_site_len());
        assert_eq!(jmp.len(), MV64.call_site_len());
    }

    #[test]
    fn call_encode_roundtrips_through_call_target() {
        let site = 0x1_0000u64;
        for target in [0x1_0005u64, 0x0_8000, 0x2_0000, site] {
            let bytes = MV64.encode_call(site, target).unwrap();
            let (Insn::CallRel { rel }, _) = crate::decode(&bytes).unwrap() else {
                panic!()
            };
            assert_eq!(MV64.call_target(site, rel), target);
        }
    }

    #[test]
    fn rel32_boundaries_are_exact() {
        // A site high enough that the most negative displacement still
        // lands on a valid (non-wrapping) address.
        let site = 4u64 << 30;
        let next = site + MV64.call_site_len() as u64;
        // The extreme reachable targets still encode and round-trip…
        for target in [
            next + i32::MAX as u64,
            next - i32::MIN.unsigned_abs() as u64,
        ] {
            let bytes = MV64.encode_call(site, target).unwrap();
            let (Insn::CallRel { rel }, _) = crate::decode(&bytes).unwrap() else {
                panic!()
            };
            assert_eq!(MV64.call_target(site, rel), target);
        }
        // …one byte past either end is rejected instead of wrapping into
        // a wrong-but-valid rel32 (the old `as i32` truncation bug).
        for target in [
            next + i32::MAX as u64 + 1,
            next - i32::MIN.unsigned_abs() as u64 - 1,
            site + (4 << 30), // a clean 4 GiB away
        ] {
            let err = MV64.encode_call(site, target).unwrap_err();
            assert!(
                matches!(
                    err,
                    AbiError::DisplacementOutOfRange { site: s, target: t }
                        if s == site && t == target
                ),
                "{err:?}"
            );
            assert!(MV64.encode_jmp(site, target).is_err());
        }
    }

    #[test]
    fn checked_rel32_matches_try_from() {
        assert_eq!(checked_rel32(100, 50), Some(-50));
        assert_eq!(checked_rel32(0, i32::MAX as u64), Some(i32::MAX));
        assert_eq!(checked_rel32(0, i32::MAX as u64 + 1), None);
        assert_eq!(
            checked_rel32(u64::MAX, u64::MAX - i32::MIN.unsigned_abs() as u64),
            Some(i32::MIN)
        );
    }

    #[test]
    fn inline_image_pads_and_rejects() {
        let body = crate::encode(&Insn::Cli);
        let img = MV64.inline_image(&body, 5).unwrap();
        assert_eq!(img.len(), 5);
        let (first, n) = crate::decode(&img).unwrap();
        assert_eq!(first, Insn::Cli);
        let (second, _) = crate::decode(&img[n..]).unwrap();
        assert!(second.is_nop());
        // Empty body: a single wide NOP.
        let img = MV64.inline_image(&[], 5).unwrap();
        assert_eq!(crate::decode(&img).unwrap(), (Insn::Nop { len: 5 }, 5));
        // Oversized body: an error, not an assert.
        assert_eq!(
            MV64.inline_image(&[0x90u8; 6], 5).unwrap_err(),
            AbiError::InlineTooLarge {
                body: 6,
                site_len: 5
            }
        );
    }

    #[test]
    fn pad_entry_reaches_call_site_len() {
        let mut short = crate::encode(&Insn::Ret);
        MV64.pad_entry(&mut short);
        assert!(short.len() >= MV64.call_site_len());
        // Padding decodes as the original instruction followed by NOPs.
        let (first, n) = crate::decode(&short).unwrap();
        assert_eq!(first, Insn::Ret);
        assert!(crate::decode(&short[n..]).unwrap().0.is_nop());
        // Already long enough: untouched.
        let mut long = vec![0u8; 8];
        MV64.pad_entry(&mut long);
        assert_eq!(long.len(), 8);
    }

    #[test]
    fn trap_byte_is_the_trap_opcode() {
        assert_eq!(MV64.trap_byte(), crate::encode::OP_TRAP);
        assert_eq!(MV64.max_insn_len(), 16);
        assert_eq!(MV64.name(), "mv64");
    }
}
