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
//! A frame too large to hold whole is read through a [`StreamReader`]: it
//! hands out plain [`Reader`]s over a bounded window, hashes the body with
//! [`Xxh64`] as it streams past, and reports errors with the same
//! precedence as [`Reader::open`] and [`Reader::finish`].
//!
//! The trailer is [`checksum`]: XXH64 with seed 0, four independent 8-byte
//! lanes per 32-byte stripe, so it runs at memory speed where the
//! byte-serial [`fnv1a64`] it replaced did not. A trailer change bumps the
//! version of every format at once; files of an older version are rejected
//! as [`FrameError::UnsupportedVersion`] before their trailer is checked.
//! [`fnv1a64`] stays as the output hash of the golden tests.

use std::fmt;
use std::io;
use std::marker::PhantomData;

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
    let mut sum = Xxh64::new();
    sum.update(bytes);
    sum.digest()
}

/// [`checksum`] computed over bytes that arrive in pieces: feeding a frame
/// in any split gives the same digest as hashing it whole.
#[derive(Clone, Debug)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Bytes of a stripe not yet complete.
    pending: [u8; 32],
    pending_len: usize,
    /// Bytes hashed so far.
    len: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; 32],
            pending_len: 0,
            len: 0,
        }
    }

    fn stripe(&mut self, stripe: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, le_u64(word));
        }
    }

    /// Hashes the next `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let stripe = self.pending;
            self.stripe(&stripe);
            self.pending_len = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let tail = stripes.remainder();
        for stripe in stripes {
            self.stripe(stripe);
        }
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The XXH64 of every byte hashed so far.
    pub fn digest(&self) -> u64 {
        let mut h = if self.len >= 32 {
            let v = self.lanes;
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
        h = h.wrapping_add(self.len);
        let words = self.pending[..self.pending_len].chunks_exact(8);
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

/// Bytes of the window a [`StreamReader`] reads through. It holds the
/// longest field a frame reads in one piece, a string of `u16` length.
pub const STREAM_WINDOW: usize = 1 << 16;

/// Reads a frame from an [`io::Read`] through a window of at most
/// [`STREAM_WINDOW`] bytes, so a frame of any size decodes without being
/// held whole. Its checks are [`Reader::open`]'s, with the same precedence:
/// length, magic and version when it opens; then, in
/// [`StreamReader::finish`], the trailer, hashed as the body streams past,
/// ahead of whatever the decoder found; last, any bytes left unread.
///
/// Fields are read with a plain [`Reader`] over the next bytes
/// ([`StreamReader::take`]), and long runs a window at a time
/// ([`StreamReader::runs`]). `E` is the caller's error type, so a failed
/// read of `src` and a bad frame come out as one error.
pub struct StreamReader<R, E> {
    src: R,
    /// Bytes read from `src` but not yet taken are `window[pos..]`.
    window: Vec<u8>,
    pos: usize,
    /// The window's size: [`STREAM_WINDOW`], or the whole body if smaller.
    cap: usize,
    /// Body bytes not yet read from `src`.
    unread: u64,
    sum: Xxh64,
    /// A read of `src` failed; its error is the result.
    broken: bool,
    _error: PhantomData<fn() -> E>,
}

impl<R: io::Read, E: From<FrameError> + From<io::Error>> StreamReader<R, E> {
    /// Starts reading a frame of `len` bytes from `src`: checks the length,
    /// then reads and checks the magic and the version.
    pub fn open(mut src: R, len: u64, magic: &[u8; 4], version: u16) -> Result<Self, E> {
        let body = len
            .checked_sub((HEADER_LEN + TRAILER_LEN) as u64)
            .ok_or(FrameError::Truncated)?;
        let mut header = [0u8; HEADER_LEN];
        src.read_exact(&mut header)?;
        let mut r = Reader::plain(&header);
        if r.bytes(magic.len())? != magic {
            return Err(FrameError::BadMagic.into());
        }
        let found = r.u16()?;
        if found != version {
            return Err(FrameError::UnsupportedVersion(found).into());
        }
        let mut sum = Xxh64::new();
        sum.update(&header);
        let cap = usize::try_from(body).map_or(STREAM_WINDOW, |b| b.min(STREAM_WINDOW));
        Ok(Self {
            src,
            window: Vec::with_capacity(cap),
            pos: 0,
            cap,
            unread: body,
            sum,
            broken: false,
            _error: PhantomData,
        })
    }

    /// Body bytes not yet taken.
    fn remaining(&self) -> u64 {
        (self.window.len() - self.pos) as u64 + self.unread
    }

    /// Moves the bytes not yet taken to the front of the window and fills
    /// the rest of it from `src`, so that at least `n` are in hand.
    fn fill(&mut self, n: usize) -> Result<(), E> {
        let have = self.window.len() - self.pos;
        if self.broken || n > self.cap || (n - have) as u64 > self.unread {
            return Err(FrameError::Truncated.into());
        }
        self.window.drain(..self.pos);
        self.pos = 0;
        let more = (self.cap - have).min(usize::try_from(self.unread).unwrap_or(usize::MAX));
        self.window.resize(have + more, 0);
        if let Err(e) = self.src.read_exact(&mut self.window[have..]) {
            self.broken = true;
            return Err(e.into());
        }
        self.sum.update(&self.window[have..]);
        self.unread -= more as u64;
        Ok(())
    }

    /// The next `n` bytes of the body, as a plain [`Reader`]. `n` is at
    /// most [`STREAM_WINDOW`].
    pub fn take(&mut self, n: usize) -> Result<Reader<'_>, E> {
        if n > self.window.len() - self.pos {
            self.fill(n)?;
        }
        let at = self.pos;
        self.pos += n;
        Ok(Reader::plain(&self.window[at..at + n]))
    }

    /// Checks a count read from the wire, as [`Reader::count`] does: `n`
    /// items of at least `min_item_bytes` each must fit in the body bytes
    /// not yet taken.
    pub fn count(&self, n: u64, min_item_bytes: usize) -> Result<usize, E> {
        usize::try_from(n)
            .ok()
            .filter(|&n| {
                n.checked_mul(min_item_bytes)
                    .is_some_and(|need| need as u64 <= self.remaining())
            })
            .ok_or_else(|| FrameError::Truncated.into())
    }

    /// Reads `n` items of `item_bytes` each (at most [`STREAM_WINDOW`]),
    /// failing before any is read if they are not all present. `f` gets a
    /// plain [`Reader`] over the next `k` items and `k`, a window at a time.
    pub fn runs(
        &mut self,
        n: usize,
        item_bytes: usize,
        mut f: impl FnMut(Reader<'_>, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        self.count(n as u64, item_bytes)?;
        let per_window = (self.cap / item_bytes.max(1)).max(1);
        let mut left = n;
        while left > 0 {
            let k = left.min(per_window);
            f(self.take(k.saturating_mul(item_bytes))?, k)?;
            left -= k;
        }
        Ok(())
    }

    /// Reads a string list written by [`Writer::str_list`].
    pub fn str_list(&mut self) -> Result<Vec<String>, E> {
        let n = self.take(2)?.u16()?;
        // Every entry needs at least its 2-byte length prefix.
        let mut out = Vec::with_capacity(self.count(n.into(), 2)?);
        for _ in 0..n {
            let len = self.take(2)?.u16()?;
            out.push(self.take(len.into())?.str(len.into())?);
        }
        Ok(out)
    }

    /// Ends the read, given the decoder's result `body`. A failed read of
    /// `src` stands as it is. Otherwise the rest of the body is read
    /// through the checksum and the trailer checked: a mismatch outranks
    /// `body`, as [`Reader::open`] checks the trailer before any field is
    /// decoded. Then `body` stands, and last every byte of the body must
    /// have been taken.
    pub fn finish<T>(mut self, body: Result<T, E>) -> Result<T, E> {
        if self.broken {
            return body;
        }
        let left = self.remaining();
        while self.unread > 0 {
            self.pos = self.window.len();
            self.fill(1)?;
        }
        let mut trailer = [0u8; TRAILER_LEN];
        self.src.read_exact(&mut trailer)?;
        let stored = u64::from_le_bytes(trailer);
        let computed = self.sum.digest();
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed }.into());
        }
        let out = body?;
        if left != 0 {
            return Err(FrameError::Truncated.into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkptError;

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
    fn the_streamed_checksum_matches_in_any_split() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 3, 31, 32, 33, 64, 200] {
            let data = &bytes[..len];
            for cut in 0..=len {
                let mut sum = Xxh64::new();
                sum.update(&data[..cut]);
                // A second split inside the tail, byte by byte.
                for b in data[cut..].chunks(1) {
                    sum.update(b);
                }
                assert_eq!(sum.digest(), checksum(data), "len {len} cut {cut}");
            }
        }
    }

    /// An `io::Read` that hands out at most 7 bytes per call, then fails
    /// once `fail_at` bytes have been read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        fail_at: usize,
        read: usize,
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.read >= self.fail_at {
                return Err(io::Error::other("disk gone"));
            }
            let n = buf.len().min(7).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.read += n;
            Ok(n)
        }
    }

    /// A frame of a string list and a run of `u32`s longer than the window.
    fn long_frame(n: u32) -> Vec<u8> {
        let mut w = Writer::new(b"LONG", 1, 0);
        w.str_list(&["ab".to_string(), "µ".to_string()]);
        w.u32(n);
        w.u32s(0..n);
        w.finish()
    }

    fn read_long(bytes: &[u8], fail_at: usize) -> Result<(Vec<String>, Vec<u32>), CkptError> {
        let src = Trickle {
            bytes,
            fail_at,
            read: 0,
        };
        let mut s = StreamReader::open(src, bytes.len() as u64, b"LONG", 1)?;
        let mut body = || -> Result<_, CkptError> {
            let names = s.str_list()?;
            let n = s.take(4)?.u32()?;
            let mut xs = Vec::with_capacity(s.count(n.into(), 4)?);
            s.runs(n as usize, 4, |mut r, k| {
                xs.extend(r.u32s(k)?);
                Ok(())
            })?;
            Ok((names, xs))
        };
        let body = body();
        s.finish(body)
    }

    fn frame_error<T>(r: Result<T, CkptError>) -> Option<FrameError> {
        match r {
            Err(CkptError::Frame(e)) => Some(e),
            _ => None,
        }
    }

    #[test]
    fn a_streamed_frame_reads_like_a_slice() {
        let n = 3 * STREAM_WINDOW as u32 / 4 + 5;
        let bytes = long_frame(n);
        let (names, xs) = read_long(&bytes, usize::MAX).unwrap();
        assert_eq!(names, ["ab", "µ"]);
        assert_eq!(xs, (0..n).collect::<Vec<_>>());

        // The header checks run first, as `Reader::open`'s do.
        assert_eq!(
            frame_error(read_long(&bytes[..13], usize::MAX)),
            Some(FrameError::Truncated)
        );
        let mut magic = bytes.clone();
        magic[0] ^= 1;
        assert_eq!(
            frame_error(read_long(&magic, usize::MAX)),
            Some(FrameError::BadMagic)
        );
        let mut version = bytes.clone();
        version[4] = 2;
        assert_eq!(
            frame_error(read_long(&version, usize::MAX)),
            Some(FrameError::UnsupportedVersion(2))
        );
        // A forged count fails the decoder, but the trailer outranks it.
        let mut forged = bytes.clone();
        forged[HEADER_LEN + 10..HEADER_LEN + 14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            frame_error(read_long(&forged, usize::MAX)),
            Some(FrameError::ChecksumMismatch { .. })
        ));
        // Re-signed, the forged count itself is the error.
        let body = forged.len() - TRAILER_LEN;
        let sum = checksum(&forged[..body]);
        forged[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            frame_error(read_long(&forged, usize::MAX)),
            Some(FrameError::Truncated)
        );
        // A flip past the decoded fields, and bytes left unread.
        let mut flipped = bytes.clone();
        flipped[body - 1] ^= 1;
        assert!(matches!(
            frame_error(read_long(&flipped, usize::MAX)),
            Some(FrameError::ChecksumMismatch { .. })
        ));
        let mut trailing = long_frame(n);
        trailing.truncate(body);
        trailing.extend_from_slice(&[0; 4]);
        let sum = checksum(&trailing);
        trailing.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            frame_error(read_long(&trailing, usize::MAX)),
            Some(FrameError::Truncated)
        );
        // A failed read is an IO error, mid-body or in the trailer.
        for fail_at in [3, body / 2, body + 2] {
            assert!(
                matches!(read_long(&bytes, fail_at), Err(CkptError::Io(_))),
                "failure at byte {fail_at}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 wire format")]
    fn oversized_fields_fail_loudly() {
        Writer::plain().len_u16(1 << 16, "test count");
    }
}
