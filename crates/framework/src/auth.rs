//! Keyed frame authentication: SHA-256, HMAC-SHA-256 and the frame-trailer
//! scheme built on them.
//!
//! The build environment has no network access, so no cryptography crates are
//! available; this module implements FIPS 180-4 SHA-256 and RFC 2104
//! HMAC-SHA-256 itself (validated against the FIPS example vectors and RFC
//! 4231 test cases in the unit tests below) and layers the transport's
//! frame-authentication scheme on top.
//!
//! # SHA-256 backends
//!
//! Only the compression function (the 64-round transform of one 64-byte
//! block) has two implementations, named by [`Sha256Backend`]:
//!
//! - [`Sha256Backend::ShaNi`] runs the rounds on the x86-64 SHA extensions
//!   (`sha256rnds2`, `sha256msg1`, `sha256msg2`), two rounds per
//!   instruction.  It is compiled only for `x86_64` and only ever called
//!   after runtime detection has confirmed the CPU has `sha`, `sse2`,
//!   `ssse3` and `sse4.1`.
//! - [`Sha256Backend::Scalar`] is portable Rust: the fallback on every other
//!   CPU and architecture, and the reference the SHA-NI path is tested and
//!   benchmarked against.
//!
//! [`Sha256Backend::detected`] picks the backend once per process; every
//! [`Sha256::new`] (and so [`sha256`], [`hmac_sha256`] and [`ClusterKey`])
//! uses it.  Both backends produce identical digests, so the choice never
//! changes a byte on the wire: a frame sealed on one host verifies on any
//! other.  [`Sha256::with_backend`] and [`hmac_sha256_with`] pin a backend
//! explicitly; they exist for the agreement tests and the same-run bench
//! pair.  [`Sha256::update`] hands each run of whole blocks to the
//! compression function in one call, straight from the input slice.
//!
//! # Scheme
//!
//! A cluster shares one secret.  [`ClusterKey::from_secret`] normalizes any
//! byte string through SHA-256 into the 32-byte MAC key; operators usually set
//! it via the `CORGI_CLUSTER_KEY` environment variable
//! ([`ClusterKey::from_env`]).  Whether a connection authenticates is
//! negotiated in the `Hello`/`HelloReply` exchange (which always travels as
//! plain JSON, so a key mismatch produces a *legible* structured rejection
//! rather than undecodable bytes); once negotiated, **every** subsequent frame
//! carries a MAC trailer:
//!
//! ```text
//! | magic 2B | kind 1B | len 4B |   payload   | mac 16B |
//!                       ^ len counts payload + MAC
//!   mac = HMAC-SHA-256(key, header ‖ payload)[..16]
//! ```
//!
//! The MAC covers the *final* header (with the trailer already counted in
//! `len`), so length-truncation and kind-swapping are tamper-evident along
//! with the payload itself.  Verification failures surface as structured
//! [`Unauthenticated`](crate::messages::ServiceErrorKind::Unauthenticated)
//! errors and are counted in [`ClusterStats`](crate::cluster::ClusterStats).
//!
//! The scheme authenticates and tamper-proofs traffic between nodes that
//! already share the key; it is not encryption (payloads travel in the clear)
//! and the hello itself is unauthenticated (an active attacker can force a
//! handshake failure, but never an accepted forged frame).
//!
//! # Key rotation (protocol 1.5)
//!
//! Keys rotate without a full-cluster restart through a dual-key acceptance
//! window: `CORGI_CLUSTER_KEY_PREVIOUS` names a second secret that frames are
//! *verified* against when the primary fails, while every outbound frame is
//! always *signed* with the primary ([`ClusterKey::with_previous`]).  Rolling
//! a cluster from key A to key B is a two-phase swap — first deploy
//! `KEY=A, PREVIOUS=B` everywhere (still signing A, now accepting B), then
//! `KEY=B, PREVIOUS=A` (signing B, still accepting A), then drop the previous
//! key — so at every step both sides of any connection verify what the other
//! signs.

use std::fmt;
use std::sync::OnceLock;

/// Bytes of HMAC-SHA-256 output kept as the per-frame trailer.
///
/// 16 bytes (128 bits) is the conventional truncation floor (RFC 2104 §5
/// requires at least half the hash output); forging a frame still requires
/// 2^128 work while halving the per-frame overhead.
pub const MAC_LEN: usize = 16;

/// Name of the only authentication scheme, as advertised in hello frames.
pub const AUTH_SCHEME: &str = "hmac-sha256";

/// Environment variable holding the shared cluster secret.
pub const CLUSTER_KEY_ENV: &str = "CORGI_CLUSTER_KEY";

/// Environment variable holding the *previous* cluster secret during a key
/// rotation window: frames are verified against it when the primary key
/// fails, but outbound frames are always signed with the primary.
pub const CLUSTER_KEY_PREVIOUS_ENV: &str = "CORGI_CLUSTER_KEY_PREVIOUS";

// --------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// --------------------------------------------------------------------------

/// The 64 round constants: fractional parts of the cube roots of the first 64
/// primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: fractional parts of the square roots of the first 8
/// primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which SHA-256 compression function a [`Sha256`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sha256Backend {
    /// Portable Rust; runs everywhere and is the reference.
    Scalar,
    /// The x86-64 SHA extensions; only on CPUs that report them.
    ShaNi,
}

impl Sha256Backend {
    /// The backend this process uses: SHA-NI when the CPU has it, scalar
    /// otherwise.  Detected on the first call and cached.
    pub fn detected() -> Self {
        static DETECTED: OnceLock<Sha256Backend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if Sha256Backend::ShaNi.is_available() {
                Sha256Backend::ShaNi
            } else {
                Sha256Backend::Scalar
            }
        })
    }

    /// Whether this CPU can run the backend.
    pub fn is_available(self) -> bool {
        match self {
            Sha256Backend::Scalar => true,
            Sha256Backend::ShaNi => sha_ni::is_available(),
        }
    }
}

impl fmt::Display for Sha256Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sha256Backend::Scalar => "scalar",
            Sha256Backend::ShaNi => "sha_ni",
        })
    }
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use corgi_framework::auth::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize()[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes (the padding encodes it in bits).
    length: u64,
    /// Always a backend this CPU can run: `compress_blocks` relies on it.
    backend: Sha256Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher on the [detected](Sha256Backend::detected) backend.
    pub fn new() -> Self {
        Self::with_backend(Sha256Backend::detected())
    }

    /// Fresh hasher pinned to `backend`.
    ///
    /// # Panics
    ///
    /// When this CPU cannot run `backend` (check
    /// [`Sha256Backend::is_available`] first).
    pub fn with_backend(backend: Sha256Backend) -> Self {
        assert!(
            backend.is_available(),
            "the {backend} SHA-256 backend is not available on this CPU"
        );
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
            backend,
        }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        // Top up a partial block first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress_blocks(&block);
                self.buffered = 0;
            }
        }
        // Every whole block in one call, straight from the input.
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.compress_blocks(&data[..whole]);
            data = &data[whole..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Apply the FIPS 180-4 padding and return the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_length = self.length.wrapping_mul(8);
        // 0x80 terminator, zeros to 56 mod 64, then the 64-bit bit length.
        self.update(&[0x80]);
        // `update` above may have advanced `length`, but the captured
        // `bit_length` is what the padding must encode; only the buffer
        // position matters from here on.
        while self.buffered != 56 {
            let zeros = if self.buffered < 56 {
                56 - self.buffered
            } else {
                64 - self.buffered
            };
            const ZEROS: [u8; 64] = [0u8; 64];
            self.update(&ZEROS[..zeros]);
        }
        self.update(&bit_length.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut digest = [0u8; 32];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }

    /// Run the compression function over `blocks`, a whole number of
    /// 64-byte blocks.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self.backend {
            Sha256Backend::Scalar => {
                for block in blocks.chunks_exact(64) {
                    self.compress(block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `backend` is private and only `with_backend` sets it,
            // after `Sha256Backend::is_available` confirmed through
            // `is_x86_feature_detected!` that this CPU has `sha`, `sse2`,
            // `ssse3` and `sse4.1` — every feature `sha_ni::compress_blocks`
            // enables.
            Sha256Backend::ShaNi => unsafe { sha_ni::compress_blocks(&mut self.state, blocks) },
            #[cfg(not(target_arch = "x86_64"))]
            Sha256Backend::ShaNi => unreachable!("SHA-NI is never available off x86-64"),
        }
    }

    /// One compression round over a 64-byte block: the portable reference.
    fn compress(&mut self, block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI compression function (x86-64 only).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether the CPU has every feature [`compress_blocks`] enables.
    pub(super) fn is_available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress every 64-byte block of `blocks` into `state`.
    ///
    /// The SHA instructions keep the eight working variables as two vectors,
    /// `ABEF` and `CDGH` (high lane first); `state` is repacked into that
    /// layout once per call, not once per block.  Each `sha256rnds2` runs two
    /// rounds, and `sha256msg1`/`sha256msg2` extend the message schedule four
    /// words at a time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte shuffle that turns four big-endian message words into lanes.
        let be_words = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0b_u64 as i64,
            0x0405_0607_0001_0203_u64 as i64,
        );
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 readable bytes, exactly two unaligned
        // 16-byte loads.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state_ptr),
                _mm_loadu_si128(state_ptr.add(1)),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let block_ptr = block.as_ptr().cast::<__m128i>();
            let mut w = [_mm_setzero_si128(); 4];
            for (i, words) in w.iter_mut().enumerate() {
                // SAFETY: `block` is 64 readable bytes and `i < 4`, so the
                // unaligned 16-byte load stays inside it.
                let raw = unsafe { _mm_loadu_si128(block_ptr.add(i)) };
                *words = _mm_shuffle_epi8(raw, be_words);
            }
            for quad in 0..16 {
                // Rounds 4q..4q+4 consume message words W[4q..4q+4]: the
                // loaded block for the first four quads, then the schedule
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] over the
                // sliding window of the previous sixteen words.
                let words = if quad < 4 {
                    w[quad]
                } else {
                    let next = _mm_sha256msg2_epu32(
                        _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[0], w[1]),
                            _mm_alignr_epi8(w[3], w[2], 4),
                        ),
                        w[3],
                    );
                    w = [w[1], w[2], w[3], next];
                    next
                };
                let k = &K[4 * quad..4 * quad + 4];
                let wk = _mm_add_epi32(
                    words,
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: `state` is 32 writable bytes, exactly two unaligned
        // 16-byte stores.
        unsafe {
            _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// SHA-NI is x86-64 only; everywhere else the scalar path is the only one.
#[cfg(not(target_arch = "x86_64"))]
mod sha_ni {
    pub(super) fn is_available() -> bool {
        false
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// HMAC-SHA-256 over the concatenation of `parts` (RFC 2104).
///
/// Taking the message as parts lets callers MAC a frame header and payload
/// that live in separate buffers without copying them together first.
pub fn hmac_sha256(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    hmac_sha256_with(Sha256Backend::detected(), key, parts)
}

/// [`hmac_sha256`] pinned to one SHA-256 backend: the reference entry point
/// the agreement tests and the `auth_hmac` bench pair use.
///
/// # Panics
///
/// When this CPU cannot run `backend`.
pub fn hmac_sha256_with(backend: Sha256Backend, key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    const BLOCK: usize = 64;
    let mut padded = [0u8; BLOCK];
    if key.len() > BLOCK {
        let mut hashed = Sha256::with_backend(backend);
        hashed.update(key);
        padded[..32].copy_from_slice(&hashed.finalize());
    } else {
        padded[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::with_backend(backend);
    let mut ipad = [0u8; BLOCK];
    for (o, k) in ipad.iter_mut().zip(padded.iter()) {
        *o = k ^ 0x36;
    }
    inner.update(&ipad);
    for part in parts {
        inner.update(part);
    }
    let inner_digest = inner.finalize();
    let mut outer = Sha256::with_backend(backend);
    let mut opad = [0u8; BLOCK];
    for (o, k) in opad.iter_mut().zip(padded.iter()) {
        *o = k ^ 0x5c;
    }
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Constant-time byte-slice equality (no early exit on the first mismatch).
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

// --------------------------------------------------------------------------
// Cluster key + frame trailer scheme
// --------------------------------------------------------------------------

/// Why an authenticated frame failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The frame is too short to even hold a MAC trailer.
    Truncated,
    /// The MAC trailer does not match the frame contents.
    BadMac,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::Truncated => write!(f, "frame too short to carry a MAC trailer"),
            AuthError::BadMac => write!(f, "frame MAC verification failed"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The shared cluster secret, normalized to a 32-byte MAC key — plus, during
/// a rotation window, the previous key that inbound frames are still accepted
/// under ([`ClusterKey::with_previous`]).
///
/// Compare with `==` for key-agreement checks in tests; the `Debug` impl
/// never prints key material.
#[derive(Clone, PartialEq, Eq)]
pub struct ClusterKey {
    primary: [u8; 32],
    previous: Option<[u8; 32]>,
}

impl fmt::Debug for ClusterKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never leak key bytes through logs; the fingerprint (first 4 bytes of
        // SHA-256 of the key) is enough to tell two keys apart when debugging.
        let fp = sha256(&self.primary);
        write!(
            f,
            "ClusterKey(fp={:02x}{:02x}{:02x}{:02x}{})",
            fp[0],
            fp[1],
            fp[2],
            fp[3],
            if self.previous.is_some() {
                ", rotating"
            } else {
                ""
            }
        )
    }
}

impl ClusterKey {
    /// Derive the key from an arbitrary secret byte string.
    pub fn from_secret(secret: &[u8]) -> Self {
        Self {
            primary: sha256(secret),
            previous: None,
        }
    }

    /// Open a rotation window: keep signing with this key, but also accept
    /// frames signed with the key derived from `secret`.
    pub fn with_previous(mut self, secret: &[u8]) -> Self {
        self.previous = Some(sha256(secret));
        self
    }

    /// Read the key from the `CORGI_CLUSTER_KEY` environment variable, and
    /// the rotation-window secondary from `CORGI_CLUSTER_KEY_PREVIOUS`.
    ///
    /// Returns `None` when the primary variable is unset or empty
    /// (authentication disabled; a previous key alone enables nothing).
    pub fn from_env() -> Option<Self> {
        let key = std::env::var(CLUSTER_KEY_ENV)
            .ok()
            .filter(|s| !s.is_empty())
            .map(|s| Self::from_secret(s.as_bytes()))?;
        Some(
            match std::env::var(CLUSTER_KEY_PREVIOUS_ENV)
                .ok()
                .filter(|s| !s.is_empty())
            {
                Some(prev) => key.with_previous(prev.as_bytes()),
                None => key,
            },
        )
    }

    /// Whether a rotation window is open (a previous key is accepted).
    pub fn is_rotating(&self) -> bool {
        self.previous.is_some()
    }

    /// Truncated HMAC over the concatenation of `parts`, signed with the
    /// primary key.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; MAC_LEN] {
        Self::mac_with(&self.primary, parts)
    }

    fn mac_with(key: &[u8; 32], parts: &[&[u8]]) -> [u8; MAC_LEN] {
        let full = hmac_sha256(key, parts);
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&full[..MAC_LEN]);
        mac
    }

    /// Verify `trailer` against the primary key, falling back to the previous
    /// key when a rotation window is open.
    fn verify(&self, parts: &[&[u8]], trailer: &[u8]) -> bool {
        if constant_time_eq(&Self::mac_with(&self.primary, parts), trailer) {
            return true;
        }
        match &self.previous {
            Some(previous) => constant_time_eq(&Self::mac_with(previous, parts), trailer),
            None => false,
        }
    }

    /// Append the MAC trailer to a sealed frame (header + payload), patching
    /// the header length to count the trailer.
    pub fn seal(&self, mut frame: Vec<u8>) -> Vec<u8> {
        let header = crate::transport::FRAME_HEADER_LEN;
        debug_assert!(frame.len() >= header, "seal() takes a framed message");
        let body_len = (frame.len() - header + MAC_LEN) as u32;
        frame[header - 4..header].copy_from_slice(&body_len.to_be_bytes());
        let mac = self.mac(&[&frame]);
        frame.extend_from_slice(&mac);
        frame
    }

    /// Verify a complete authenticated frame (header + payload + trailer) and
    /// return the bare payload slice.
    pub fn open<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8], AuthError> {
        let header = crate::transport::FRAME_HEADER_LEN;
        if frame.len() < header + MAC_LEN {
            return Err(AuthError::Truncated);
        }
        let body_end = frame.len() - MAC_LEN;
        if !self.verify(&[&frame[..body_end]], &frame[body_end..]) {
            return Err(AuthError::BadMac);
        }
        Ok(&frame[header..body_end])
    }

    /// Verify a frame read as separate header and body buffers, truncating the
    /// MAC trailer off `body` on success.
    ///
    /// This is the shape of the blocking client read path, which reads the
    /// 7-byte header and the length-prefixed body into separate buffers.
    pub fn open_split(&self, header: &[u8], body: &mut Vec<u8>) -> Result<(), AuthError> {
        if body.len() < MAC_LEN {
            return Err(AuthError::Truncated);
        }
        let payload_len = body.len() - MAC_LEN;
        if !self.verify(&[header, &body[..payload_len]], &body[payload_len..]) {
            return Err(AuthError::BadMac);
        }
        body.truncate(payload_len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The backends this CPU can run, reference first.  A backend it cannot
    /// run is reported as skipped, so a host without SHA-NI never passes the
    /// SHA-NI half silently.
    fn runnable_backends() -> Vec<Sha256Backend> {
        [Sha256Backend::Scalar, Sha256Backend::ShaNi]
            .into_iter()
            .filter(|backend| {
                let available = backend.is_available();
                if !available {
                    println!("skipped: the {backend} SHA-256 backend is not available on this CPU");
                }
                available
            })
            .collect()
    }

    fn sha256_on(backend: Sha256Backend, data: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::with_backend(backend);
        hasher.update(data);
        hasher.finalize()
    }

    #[test]
    fn reports_the_selected_backend() {
        let selected = Sha256Backend::detected();
        println!("SHA-256 backend selected: {selected}");
        assert!(selected.is_available());
        assert!(Sha256Backend::Scalar.is_available());
        // The dispatch prefers SHA-NI whenever the CPU has it.
        assert_eq!(
            selected == Sha256Backend::ShaNi,
            Sha256Backend::ShaNi.is_available()
        );
        assert_eq!(Sha256::new().backend, selected);
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        // FIPS 180-4 / NIST example vectors, on every backend explicitly and
        // through the dispatched one-shot.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (message, digest) in vectors {
            assert_eq!(hex(&sha256(message)), digest);
            for backend in runnable_backends() {
                assert_eq!(hex(&sha256_on(backend, message)), digest, "{backend}");
            }
        }
    }

    #[test]
    fn sha256_streams_across_odd_chunk_boundaries() {
        // One million 'a's, fed in chunk sizes that straddle block boundaries.
        let chunk = [b'a'; 997];
        let mut backends = runnable_backends();
        backends.push(Sha256Backend::detected());
        for backend in backends {
            let mut hasher = Sha256::with_backend(backend);
            let mut remaining = 1_000_000usize;
            while remaining > 0 {
                let take = remaining.min(chunk.len());
                hasher.update(&chunk[..take]);
                remaining -= take;
            }
            assert_eq!(
                hex(&hasher.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{backend}"
            );
        }
    }

    #[test]
    fn hmac_matches_rfc4231_vectors() {
        // Each vector on every backend explicitly and through the dispatched
        // `hmac_sha256`.
        let check = |key: &[u8], parts: &[&[u8]], mac: &str| {
            assert_eq!(hex(&hmac_sha256(key, parts)), mac);
            for backend in runnable_backends() {
                assert_eq!(
                    hex(&hmac_sha256_with(backend, key, parts)),
                    mac,
                    "{backend}"
                );
            }
        };
        // RFC 4231 test case 1.
        check(
            &[0x0b; 20],
            &[b"Hi There"],
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
        // Test case 2: short key, message split across parts.
        check(
            b"Jefe",
            &[b"what do ya want ", b"for nothing?"],
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
        // Test case 6: key longer than one block (hashed down first).
        check(
            &[0xaa; 131],
            &[b"Test Using Larger Than Block-Size Key - Hash Key First"],
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A random message — 0–3 KiB, plus a level-1-sized (22.6 KB) and a
        /// level-2-sized (137 KB) frame — fed to `update` in pieces split at
        /// random points hashes to the same digest on every backend, and to
        /// the dispatched one-shot `sha256`.
        #[test]
        fn backends_agree_on_randomly_split_messages(
            small_len in 0usize..3073,
            seed in 0u64..u64::MAX,
            cuts in collection::vec(0usize..usize::MAX, 0..6),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let backends = runnable_backends();
            for len in [small_len, 22_611, 137_203] {
                let message: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
                let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
                points.sort_unstable();
                let one_shot = sha256(&message);
                for &backend in &backends {
                    let mut hasher = Sha256::with_backend(backend);
                    let mut from = 0;
                    for &to in points.iter().chain([&len]) {
                        hasher.update(&message[from..to]);
                        from = to;
                    }
                    prop_assert_eq!(hasher.finalize(), one_shot, "{} at len {}", backend, len);
                }
            }
        }
    }

    #[test]
    fn frames_sealed_by_either_backend_verify_under_the_other() {
        // `ClusterKey` signs and verifies on the detected backend; a trailer
        // computed on any other backend over the same bytes must match it,
        // so mixed-CPU clusters agree on every frame.
        let key = ClusterKey::from_secret(b"test-cluster");
        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 0];
        frame.extend((0..22_611u32).map(|i| (i * 31 % 251) as u8));
        let payload_len = (frame.len() - 7) as u32;
        frame[3..7].copy_from_slice(&payload_len.to_be_bytes());
        let sealed = key.seal(frame);
        let body_end = sealed.len() - MAC_LEN;
        for backend in runnable_backends() {
            let mac = hmac_sha256_with(backend, &key.primary, &[&sealed[..body_end]]);
            // Sealed on the detected backend, verified on this one...
            assert_eq!(&mac[..MAC_LEN], &sealed[body_end..], "{backend}");
            // ...and sealed on this one, verified by `open`.
            let mut resealed = sealed[..body_end].to_vec();
            resealed.extend_from_slice(&mac[..MAC_LEN]);
            assert_eq!(
                key.open(&resealed).expect("verifies").len(),
                payload_len as usize
            );
        }
    }

    #[test]
    fn frame_seal_and_open_round_trip() {
        let key = ClusterKey::from_secret(b"test-cluster");
        // A hand-built frame: magic, kind 2, len 5, payload "hello".
        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 5];
        frame.extend_from_slice(b"hello");
        let sealed = key.seal(frame);
        assert_eq!(sealed.len(), 7 + 5 + MAC_LEN);
        // The header length now counts the trailer.
        assert_eq!(
            u32::from_be_bytes([sealed[3], sealed[4], sealed[5], sealed[6]]),
            (5 + MAC_LEN) as u32
        );
        assert_eq!(key.open(&sealed).expect("verifies"), b"hello");

        // Split-read shape: header and body in separate buffers.
        let mut body = sealed[7..].to_vec();
        key.open_split(&sealed[..7], &mut body).expect("verifies");
        assert_eq!(body, b"hello");
    }

    #[test]
    fn tampering_is_detected() {
        let key = ClusterKey::from_secret(b"test-cluster");
        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 5];
        frame.extend_from_slice(b"hello");
        let sealed = key.seal(frame);

        // Payload flip.
        let mut tampered = sealed.clone();
        tampered[8] ^= 0x01;
        assert_eq!(key.open(&tampered), Err(AuthError::BadMac));
        // Kind swap.
        let mut tampered = sealed.clone();
        tampered[2] = 3;
        assert_eq!(key.open(&tampered), Err(AuthError::BadMac));
        // Trailer flip.
        let mut tampered = sealed.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x80;
        assert_eq!(key.open(&tampered), Err(AuthError::BadMac));
        // Wrong key.
        let other = ClusterKey::from_secret(b"other-cluster");
        assert_eq!(other.open(&sealed), Err(AuthError::BadMac));
        // Too short.
        assert_eq!(key.open(&sealed[..10]), Err(AuthError::Truncated));
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = ClusterKey::from_secret(b"super-secret").with_previous(b"older-secret");
        let printed = format!("{key:?}");
        assert!(printed.starts_with("ClusterKey(fp="));
        assert!(!printed.contains("super-secret"));
        assert!(!printed.contains("older-secret"));
        for window in key.primary.windows(4) {
            assert!(!printed.contains(&hex(window)));
        }
        for window in key.previous.expect("rotation window open").windows(4) {
            assert!(!printed.contains(&hex(window)));
        }
    }

    #[test]
    fn rotation_window_accepts_either_key_but_signs_with_primary() {
        let old = ClusterKey::from_secret(b"key-a");
        let new = ClusterKey::from_secret(b"key-b");
        let rotating = ClusterKey::from_secret(b"key-b").with_previous(b"key-a");
        assert!(rotating.is_rotating());
        assert!(!new.is_rotating());

        let mut frame = vec![b'C', b'G', 2, 0, 0, 0, 5];
        frame.extend_from_slice(b"hello");

        // A frame signed with the OLD key verifies under the rotating key...
        let sealed_old = old.seal(frame.clone());
        assert_eq!(
            rotating.open(&sealed_old).expect("previous accepted"),
            b"hello"
        );
        let mut body = sealed_old[7..].to_vec();
        rotating
            .open_split(&sealed_old[..7], &mut body)
            .expect("previous accepted on the split path");
        // ...and so does one signed with the NEW key.
        let sealed_new = new.seal(frame.clone());
        assert_eq!(
            rotating.open(&sealed_new).expect("primary accepted"),
            b"hello"
        );

        // The rotating key SIGNS with its primary: a peer holding only the
        // new key verifies its output; a peer holding only the old one
        // cannot.
        let sealed_rotating = rotating.seal(frame.clone());
        assert_eq!(
            new.open(&sealed_rotating).expect("signed with primary"),
            b"hello"
        );
        assert_eq!(old.open(&sealed_rotating), Err(AuthError::BadMac));

        // A third key is still rejected by the rotating verifier.
        let sealed_other = ClusterKey::from_secret(b"key-c").seal(frame);
        assert_eq!(rotating.open(&sealed_other), Err(AuthError::BadMac));
    }

    #[test]
    fn from_env_reads_the_rotation_window() {
        // Env-var manipulation is process-global; this test owns both vars
        // and restores them, and is the only test touching them.
        std::env::set_var(CLUSTER_KEY_ENV, "env-new");
        std::env::set_var(CLUSTER_KEY_PREVIOUS_ENV, "env-old");
        let key = ClusterKey::from_env().expect("primary set");
        assert_eq!(
            key,
            ClusterKey::from_secret(b"env-new").with_previous(b"env-old")
        );
        std::env::remove_var(CLUSTER_KEY_PREVIOUS_ENV);
        let key = ClusterKey::from_env().expect("primary set");
        assert_eq!(key, ClusterKey::from_secret(b"env-new"));
        // A previous key alone enables nothing.
        std::env::remove_var(CLUSTER_KEY_ENV);
        std::env::set_var(CLUSTER_KEY_PREVIOUS_ENV, "env-old");
        assert!(ClusterKey::from_env().is_none());
        std::env::remove_var(CLUSTER_KEY_PREVIOUS_ENV);
    }
}
