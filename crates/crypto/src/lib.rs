//! From-scratch cryptographic substrate for the ERASMUS reproduction.
//!
//! ERASMUS measurements are `MAC_K(t, H(mem_t))` (Section 3 of the paper), so
//! the hash and MAC primitives are part of the system under reproduction and
//! are implemented here from the specifications rather than pulled from
//! external crates:
//!
//! * [`Sha1`] — FIPS 180-1 SHA-1 (the paper sizes it in Table 1 for
//!   comparison only; not recommended for new measurements).
//! * [`Sha256`] — FIPS 180-2 SHA-256. Its compression runs on the CPU's SHA
//!   extensions (SHA-NI) where `is_x86_feature_detected!` finds them, and
//!   in portable code everywhere else; the call into that kernel is the
//!   workspace's one `unsafe` block.
//! * [`Hmac`] — RFC 2104 HMAC over any [`Digest`].
//! * [`Blake2s`] — RFC 7693 BLAKE2s with native keyed mode.
//! * [`HmacDrbg`] — deterministic CSPRNG (HMAC-DRBG construction) used for
//!   the irregular measurement schedule of Section 3.5.
//! * [`constant_time_eq`] — timing-safe comparison used by verifiers.
//!
//! The [`MacAlgorithm`] enum gives the rest of the workspace a single switch
//! point for the three MAC constructions evaluated in the paper.
//! [`MacAlgorithm::with_key`] precomputes the key schedule ([`KeyedMac`]),
//! which is what provers and verifiers hold, so the measure/verify hot
//! paths absorb the HMAC ipad/opad blocks (or the BLAKE2s key block) exactly
//! once per device.
//!
//! Digest finalizers and MAC tags are fixed-size stack values — the hot path
//! performs no heap allocation.
//!
//! Every hash in the workspace goes through one of these scalar types, one
//! message at a time: a fleet's memory digests, measurement tags, tag
//! checks, history chain steps and device keys alike. On a CPU with SHA-NI,
//! eight scalar [`Sha256`] digests of 1 KiB take about as long as one
//! lane-interleaved pass over all eight once did, so the crate keeps no
//! second, multi-buffer SHA-256.
//!
//! # Example
//!
//! ```
//! use erasmus_crypto::{MacAlgorithm, Digest, Sha256};
//!
//! // Hash some "device memory" and authenticate it with a device key.
//! let memory = vec![0u8; 1024];
//! let digest = Sha256::digest(&memory);
//! let key = [0x42u8; 32];
//! let tag = MacAlgorithm::HmacSha256.mac(&key, &digest);
//! assert!(MacAlgorithm::HmacSha256.verify(&key, &digest, &tag));
//! ```

// `deny`, not `forbid`, unlike the other crate roots: the SHA-NI call in
// `sha256.rs` lifts it with an `#[expect]`. `tests/workspace_smoke.rs` pins
// that call as the crate's only `unsafe` block.
#![deny(unsafe_code)]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

pub mod blake2s;
pub mod ct;
pub mod digest;
pub mod drbg;
pub mod hmac;
pub mod mac;
pub mod sha1;
pub mod sha256;

pub use blake2s::Blake2s;
pub use ct::constant_time_eq;
pub use digest::Digest;
pub use drbg::HmacDrbg;
pub use hmac::{Hmac, HmacKey, HmacSha1, HmacSha256};
pub use mac::{KeyedMac, MacAlgorithm, MacTag, ParseMacAlgorithmError, MAX_TAG_LEN};
pub use sha1::Sha1;
pub use sha256::Sha256;
