//! The one framed binary codec behind every persisted byte.
//!
//! Every file the workspace writes — checkpoints (MHGC), the shard
//! manifest and shard files (MHGS/MHSH), graph snapshots (MHG1) and
//! exported embeddings (MHE1) — is a frame:
//!
//! ```text
//! magic [u8; 4] | version u16 | body | XXH64 (seed 0) of everything before it, u64
//! ```
//!
//! All integers are little-endian. [`Writer`] owns the puts and the checked
//! narrowing of sizes to wire fields ([`size_u32`]/[`size_u16`]).
//! [`Reader::open`] checks length, magic, version and trailer, in that
//! order; every read after it is guarded against the bytes remaining before
//! anything is allocated, and [`Reader::finish`] rejects trailing bytes. The
//! body layout of each format is tabled in DESIGN.md §2.11 ("Persisted
//! formats").
//!
//! The trailer is [`checksum`]: XXH64 with seed 0, four independent 8-byte
//! lanes per 32-byte stripe, so it runs at memory speed where the
//! byte-serial [`fnv1a64`] it replaced did not. A trailer change bumps the
//! version of every format at once; files of an older version are rejected
//! as [`FrameError::UnsupportedVersion`] before their trailer is checked.
//! [`fnv1a64`] stays as the output hash of the golden tests.

use std::fmt;

/// Bytes of the frame header: 4-byte magic plus `u16` version.
const HEADER_LEN: usize = 6;
/// Bytes of the checksum trailer.
pub const TRAILER_LEN: usize = 8;

/// Everything that can be wrong with the bytes of a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes do not start with the expected magic.
    BadMagic,
    /// The frame was written by an unsupported format version.
    UnsupportedVersion(u16),
    /// The bytes end early, a length field disagrees with the bytes
    /// present, or bytes trail the last field.
    Truncated,
    /// The body does not match its checksum trailer.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed over the header and body.
        computed: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The frame is intact but its content breaks an invariant of the
    /// format (an id out of range, non-monotone offsets, …); the payload
    /// names the invariant.
    Inconsistent(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::Truncated => write!(f, "truncated or inconsistent length"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            FrameError::BadUtf8 => write!(f, "invalid UTF-8 in a string field"),
            FrameError::Inconsistent(what) => write!(f, "inconsistent content: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a 64 over a byte stream: the hash the golden tests pin their
/// outputs with. Frames use [`checksum`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One XXH64 lane step: fold an 8-byte word into an accumulator.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds a finished lane into the combined hash.
#[inline(always)]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// The frame trailer: XXH64 with seed 0. [`Writer::finish`] appends it,
/// [`Reader::open`] checks it, and a test that edits a frame re-signs it
/// with this function.
pub fn checksum(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le_u64(word));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = merge(h, lane);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for word in words {
        h = (h ^ round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let mut a = [0u8; 4];
        a.copy_from_slice(&rest[..4]);
        h = (h ^ u64::from(u32::from_le_bytes(a)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Checked narrowing of a size to a `u32` wire field: a count that does not
/// fit would silently wrap and corrupt the file, so fail loudly instead.
pub fn size_u32(n: usize, what: &str) -> u32 {
    assert!(
        u32::try_from(n).is_ok(),
        "encode: {what} {n} exceeds the u32 wire format"
    );
    n as u32
}

/// Checked narrowing of a size to a `u16` wire field.
pub fn size_u16(n: usize, what: &str) -> u16 {
    assert!(
        u16::try_from(n).is_ok(),
        "encode: {what} {n} exceeds the u16 wire format"
    );
    n as u16
}

/// Appends little-endian fields to a frame.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a frame with its magic and version, with room reserved for a
    /// body of `body_bytes`.
    pub fn new(magic: &[u8; 4], version: u16, body_bytes: usize) -> Self {
        let mut w = Self {
            buf: Vec::with_capacity(body_bytes.saturating_add(HEADER_LEN + TRAILER_LEN)),
        };
        w.bytes(magic);
        w.u16(version);
        w
    }

    /// A bare cursor with no header, for a sub-encoding nested inside
    /// another frame; take its bytes with [`Writer::into_bytes`].
    pub fn plain() -> Self {
        Self { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a run of `u32`s, with no length prefix.
    pub fn u32s(&mut self, vs: impl IntoIterator<Item = u32>) {
        for v in vs {
            self.u32(v);
        }
    }

    /// Appends a size as a `u32` field, failing loudly if it does not fit.
    pub fn len_u32(&mut self, n: usize, what: &str) {
        self.u32(size_u32(n, what));
    }

    /// Appends a size as a `u16` field, failing loudly if it does not fit.
    pub fn len_u16(&mut self, n: usize, what: &str) {
        self.u16(size_u16(n, what));
    }

    /// Appends a string list: `u16` count, then per string a `u16` length
    /// and its UTF-8 bytes.
    pub fn str_list(&mut self, items: &[String]) {
        self.len_u16(items.len(), "string-list length");
        for s in items {
            self.len_u16(s.len(), "string length");
            self.bytes(s.as_bytes());
        }
    }

    /// Appends the checksum trailer and returns the finished frame.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.u64(sum);
        self.buf
    }

    /// The bytes of a [`Writer::plain`] cursor, with no trailer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads little-endian fields from a verified frame (or a plain buffer),
/// never past its end.
#[derive(Debug)]
pub struct Reader<'a> {
    cur: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Verifies a frame — length, magic, version, then trailer — and
    /// returns a cursor over its body.
    pub fn open(buf: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Self, FrameError> {
        if buf.len() < HEADER_LEN + TRAILER_LEN {
            return Err(FrameError::Truncated);
        }
        let (framed, trailer) = buf.split_at(buf.len() - TRAILER_LEN);
        let mut r = Self::plain(framed);
        if r.bytes(magic.len())? != magic {
            return Err(FrameError::BadMagic);
        }
        let found = r.u16()?;
        if found != version {
            return Err(FrameError::UnsupportedVersion(found));
        }
        let stored = Self::plain(trailer).u64()?;
        let computed = checksum(framed);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        Ok(r)
    }

    /// A bare cursor with no header or trailer, for a sub-encoding nested
    /// inside another frame.
    pub fn plain(buf: &'a [u8]) -> Self {
        Self { cur: buf }
    }

    /// Takes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.cur.len() {
            return Err(FrameError::Truncated);
        }
        let (head, tail) = self.cur.split_at(n);
        self.cur = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Takes `n` fixed-width words in one length-guarded step.
    fn words<const N: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, FrameError> {
        let raw = self.bytes(n.checked_mul(N).ok_or(FrameError::Truncated)?)?;
        Ok(raw.chunks_exact(N).map(|c| {
            let mut a = [0u8; N];
            a.copy_from_slice(c);
            a
        }))
    }

    /// Reads `n` `u16`s; fails before yielding any if they are not all
    /// present.
    pub fn u16s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u16> + 'a, FrameError> {
        Ok(self.words(n)?.map(u16::from_le_bytes))
    }

    /// Reads `n` `u32`s; fails before yielding any if they are not all
    /// present.
    pub fn u32s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, FrameError> {
        Ok(self.words(n)?.map(u32::from_le_bytes))
    }

    /// Reads `n` `u64`s; fails before yielding any if they are not all
    /// present.
    pub fn u64s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u64> + 'a, FrameError> {
        Ok(self.words(n)?.map(u64::from_le_bytes))
    }

    /// Checks a count read from the wire: `n` items of at least
    /// `min_item_bytes` each must fit in the bytes remaining. A hostile
    /// count fails here, before the caller sizes an allocation by it.
    pub fn count(&self, n: u64, min_item_bytes: usize) -> Result<usize, FrameError> {
        usize::try_from(n)
            .ok()
            .filter(|&n| {
                n.checked_mul(min_item_bytes)
                    .is_some_and(|need| need <= self.cur.len())
            })
            .ok_or(FrameError::Truncated)
    }

    /// Reads `len` bytes of UTF-8.
    pub fn str(&mut self, len: usize) -> Result<String, FrameError> {
        let raw = self.bytes(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| FrameError::BadUtf8)
    }

    /// Reads a string list written by [`Writer::str_list`].
    pub fn str_list(&mut self) -> Result<Vec<String>, FrameError> {
        let n = self.u16()?;
        // Every entry needs at least its 2-byte length prefix.
        let mut out = Vec::with_capacity(self.count(n.into(), 2)?);
        for _ in 0..n {
            let len = self.u16()?;
            out.push(self.str(len.into())?);
        }
        Ok(out)
    }

    /// Ends the read: every byte of the body must have been consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.cur.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(b"TEST", 3, 0);
        w.u8(7);
        w.u16(0x1234);
        w.u32s([1, u32::MAX]);
        w.u64(u64::MAX - 1);
        w.str_list(&["ab".to_string(), "µ".to_string()]);
        w.finish()
    }

    #[test]
    fn checksum_matches_the_xxh64_reference() {
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        // The 8-byte tail loop: zstd's `--check` frame trailer records the
        // low 32 bits of XXH64 (seed 0) of the content.
        let stripe = b"0123456789abcdef0123456789abcdef";
        assert_eq!(
            checksum(&[&stripe[..], b"01234567"].concat()) as u32,
            0x5a79_0442
        );
        assert_eq!(
            checksum(&[&stripe[..], b"0123456789abcdefXYZW"].concat()) as u32,
            0x5a2e_3dd5
        );
    }

    #[test]
    fn roundtrips_every_field() {
        let bytes = sample();
        let mut r = Reader::open(&bytes, b"TEST", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32s(2).unwrap().collect::<Vec<_>>(), [1, u32::MAX]);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str_list().unwrap(), ["ab", "µ"]);
        r.finish().unwrap();
    }

    #[test]
    fn header_checks_run_in_order() {
        let bytes = sample();
        assert_eq!(
            Reader::open(&bytes[..13], b"TEST", 3).unwrap_err(),
            FrameError::Truncated
        );
        assert_eq!(
            Reader::open(&bytes, b"NOPE", 3).unwrap_err(),
            FrameError::BadMagic
        );
        // A wrong version is reported even though the trailer is intact.
        assert_eq!(
            Reader::open(&bytes, b"TEST", 4).unwrap_err(),
            FrameError::UnsupportedVersion(3)
        );
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN] ^= 1;
        assert!(matches!(
            Reader::open(&flipped, b"TEST", 3),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn reads_never_run_past_the_end() {
        let mut r = Reader::plain(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err(), FrameError::Truncated);
        assert!(r.u32s(usize::MAX).is_err());
        assert!(r.u64s(1).is_err());
        assert_eq!(r.count(u64::MAX, 1).unwrap_err(), FrameError::Truncated);
        assert_eq!(r.count(3, 1).unwrap(), 3);
        assert_eq!(r.u16s(1).unwrap().next(), Some(0x0201));
        assert_eq!(r.finish().unwrap_err(), FrameError::Truncated);
        assert_eq!(
            Reader::plain(&[0xff]).str(1).unwrap_err(),
            FrameError::BadUtf8
        );
    }

    #[test]
    fn plain_cursors_have_no_header_or_trailer() {
        let mut w = Writer::plain();
        w.u64(5);
        let bytes = w.into_bytes();
        assert_eq!(bytes, 5u64.to_le_bytes());
        let mut r = Reader::plain(&bytes);
        assert_eq!(r.u64().unwrap(), 5);
        r.finish().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 wire format")]
    fn oversized_fields_fail_loudly() {
        Writer::plain().len_u16(1 << 16, "test count");
    }
}
