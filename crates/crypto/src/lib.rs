//! From-scratch cryptographic substrate for the ERASMUS reproduction.
//!
//! ERASMUS measurements are `MAC_K(t, H(mem_t))` (Section 3 of the paper), so
//! the hash and MAC primitives are part of the system under reproduction and
//! are implemented here from the specifications rather than pulled from
//! external crates:
//!
//! * [`Sha1`] — FIPS 180-1 SHA-1 (the paper sizes it in Table 1 for
//!   comparison only; not recommended for new measurements).
//! * [`Sha256`] — FIPS 180-2 SHA-256.
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
//! For fleet-scale measurement the [`multi`] module adds one lane-interleaved
//! multi-buffer core, [`Sha256xN`] (N = 4 or 8), plus [`MultiKeyedMac`],
//! which transposes existing HMAC-SHA256 [`KeyedMac`] schedules across
//! lanes: N equal-length messages are hashed in lockstep so LLVM
//! autovectorizes the compression to SSE/AVX/NEON — each lane's output
//! stays bit-identical to the scalar path. HMAC-SHA1 and keyed BLAKE2s tags
//! take the scalar fallback.
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

#![forbid(unsafe_code)]
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
pub mod multi;
pub mod sha1;
pub mod sha256;

pub use blake2s::Blake2s;
pub use ct::constant_time_eq;
pub use digest::Digest;
pub use drbg::HmacDrbg;
pub use hmac::{Hmac, HmacKey, HmacSha1, HmacSha256};
pub use mac::{KeyedMac, MacAlgorithm, MacTag, ParseMacAlgorithmError, MAX_TAG_LEN};
pub use multi::{MultiKeyedMac, Sha256x4, Sha256x8, Sha256xN};
pub use sha1::Sha1;
pub use sha256::Sha256;
