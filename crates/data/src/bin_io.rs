//! Packed binary corpus snapshots — the on-disk form of
//! [`CorpusArena`]'s slabs.
//!
//! A corpus reload from CSV pays float parsing, per-row splitting, and
//! per-trajectory vector growth; reloading a *packed* corpus is one
//! streaming pass plus validation: the file's payload **is** the arena's
//! columnar slabs, pulled through one fixed 64 KiB chunk buffer, hashed a
//! chunk at a time and decoded straight into the tables the loader hands
//! to [`CorpusArena::from_raw_slabs`] (MBRs are recomputed there rather
//! than trusted from disk). Nothing holds the whole file. `simsub corpus
//! pack` converts, `--corpus-bin` consumes (CLI `topk`/`serve` and the
//! admin `reload` command's `"corpus_bin"` field).
//!
//! ## Format (version 2, every field one little-endian 64-bit word)
//!
//! ```text
//! magic     8 bytes   b"SSUBARN2" (version is baked into the last byte)
//! n_traj    u64
//! n_points  u64
//! ids       n_traj × u64
//! offsets   (n_traj + 1) × u64
//! xs        n_points × f64 (raw IEEE-754 bits)
//! ys        n_points × f64
//! ts        n_points × f64
//! checksum  u64       four-lane word digest over every word after the
//!                     magic, in file order (see below)
//! ```
//!
//! **Checksum.** Payload word `i` (`n_traj` is word 0) feeds lane `i mod
//! 4` through an xxh64-style round, `lane = rotl(lane + w·P2, 31)·P1`;
//! the four lanes are merged by rotate-and-add, the word count is xored
//! in and xxh64's avalanche finishes. Every step is a bijection in the
//! word or lane it takes, so a change to any single word always changes
//! the digest, and the digest depends only on the word sequence, never on
//! how it was cut into chunks. Version 1 (`SSUBARN1`, byte-serial FNV-1a)
//! is not read: such a file fails with
//! [`BinCorpusError::UnsupportedVersion`] and must be re-packed.
//!
//! Coordinates round-trip bit-exactly (unlike decimal CSV), so a packed
//! corpus answers queries byte-identically to the CSV it was packed from
//! (asserted by `tests/layout_equivalence.rs`). Truncated files, flipped
//! bits, hostile headers and malformed tables are all rejected with a
//! typed [`BinCorpusError`].

use simsub_trajectory::{ArenaError, CorpusArena};
use std::io::{Read, Write};
use std::path::Path;

/// File magic; the trailing `2` is the format version.
pub const BIN_CORPUS_MAGIC: [u8; 8] = *b"SSUBARN2";

/// Errors produced by the packed-corpus reader.
#[derive(Debug)]
pub enum BinCorpusError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`BIN_CORPUS_MAGIC`] nor with another
    /// version of it: not a packed corpus.
    BadMagic,
    /// A packed corpus in a format version this build does not read (the
    /// digit after `SSUBARN`); re-pack it with `simsub corpus pack`.
    UnsupportedVersion(u8),
    /// The file ends before the advertised tables do.
    Truncated,
    /// Bytes remain after the checksum — not this format.
    TrailingBytes,
    /// The payload checksum does not match (corruption).
    ChecksumMismatch,
    /// A count field is implausible (the advertised tables' byte size
    /// overflows).
    ImplausibleCounts,
    /// The slabs decode but violate the arena invariants.
    Arena(ArenaError),
}

impl std::fmt::Display for BinCorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinCorpusError::Io(e) => write!(f, "I/O error: {e}"),
            BinCorpusError::BadMagic => write!(
                f,
                "not a packed corpus (bad magic; expected {})",
                String::from_utf8_lossy(&BIN_CORPUS_MAGIC)
            ),
            BinCorpusError::UnsupportedVersion(v) => write!(
                f,
                "packed corpus format version {v} is not supported (this build reads version {}); \
                 re-pack it from its CSV with `simsub corpus pack`",
                char::from(BIN_CORPUS_MAGIC[7])
            ),
            BinCorpusError::Truncated => write!(f, "truncated packed corpus"),
            BinCorpusError::TrailingBytes => write!(f, "trailing bytes after packed corpus"),
            BinCorpusError::ChecksumMismatch => write!(f, "packed corpus checksum mismatch"),
            BinCorpusError::ImplausibleCounts => write!(f, "packed corpus counts are implausible"),
            BinCorpusError::Arena(e) => write!(f, "invalid corpus payload: {e}"),
        }
    }
}

impl std::error::Error for BinCorpusError {}

impl From<std::io::Error> for BinCorpusError {
    fn from(e: std::io::Error) -> Self {
        BinCorpusError::Io(e)
    }
}

impl From<ArenaError> for BinCorpusError {
    fn from(e: ArenaError) -> Self {
        BinCorpusError::Arena(e)
    }
}

/// Bytes in a word; every field after the magic is one word.
const WORD: usize = 8;
/// Magic plus the two counts.
const HEADER_BYTES: usize = 3 * WORD;
/// The chunk both directions stream through (64 KiB).
const CHUNK_WORDS: usize = 8 * 1024;
const CHUNK_BYTES: usize = CHUNK_WORDS * WORD;
/// Digest lanes; a block is one word per lane.
const LANES: usize = 4;
const BLOCK_BYTES: usize = LANES * WORD;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("a word is 8 bytes"))
}

/// The packed format's checksum: four xxh64-style lanes over the payload
/// words, word `i` into lane `i mod 4` (module docs).
struct WordDigest {
    lanes: [u64; LANES],
    words: u64,
}

impl WordDigest {
    fn new() -> Self {
        // xxh64's lane seeds for seed 0.
        WordDigest {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            words: 0,
        }
    }

    /// One lane step; a bijection in `word` and in `lane`.
    #[inline]
    fn round(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }

    fn push(&mut self, w: u64) {
        let lane = &mut self.lanes[(self.words % LANES as u64) as usize];
        *lane = Self::round(*lane, w);
        self.words += 1;
    }

    /// Hashes whole little-endian words: the words an earlier call left
    /// short of a block first, then 4-word blocks, then the tail.
    fn update(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % WORD, 0, "the digest takes whole words");
        let open = (LANES - (self.words % LANES as u64) as usize) % LANES;
        let (head, body) = bytes.split_at((open * WORD).min(bytes.len()));
        for w in head.chunks_exact(WORD) {
            self.push(word(w));
        }
        let blocks = body.chunks_exact(BLOCK_BYTES);
        let tail = blocks.remainder();
        for block in blocks {
            for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(WORD)) {
                *lane = Self::round(*lane, word(w));
            }
        }
        self.words += (body.len() / BLOCK_BYTES * LANES) as u64;
        for w in tail.chunks_exact(WORD) {
            self.push(word(w));
        }
    }

    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        h ^= self.words;
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Encodes words into one chunk buffer, hashing and writing each chunk
/// whole.
struct ChunkWriter<W> {
    w: W,
    buf: Vec<u8>,
    /// Bytes of `buf` in use.
    len: usize,
    /// Start of the bytes not yet hashed (past the magic in chunk one).
    hashed: usize,
    digest: WordDigest,
}

impl<W: Write> ChunkWriter<W> {
    fn words<T: Copy>(&mut self, table: &[T], encode: impl Fn(T) -> u64) -> std::io::Result<()> {
        let mut rest = table;
        while !rest.is_empty() {
            if self.len == CHUNK_BYTES {
                self.digest.update(&self.buf[self.hashed..]);
                self.w.write_all(&self.buf)?;
                (self.len, self.hashed) = (0, 0);
            }
            let (now, later) = rest.split_at(rest.len().min((CHUNK_BYTES - self.len) / WORD));
            let end = self.len + now.len() * WORD;
            for (dst, &v) in self.buf[self.len..end].chunks_exact_mut(WORD).zip(now) {
                dst.copy_from_slice(&encode(v).to_le_bytes());
            }
            self.len = end;
            rest = later;
        }
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<()> {
        self.digest.update(&self.buf[self.hashed..self.len]);
        let checksum = self.digest.finish();
        if self.len == CHUNK_BYTES {
            self.w.write_all(&self.buf)?;
            self.len = 0;
        }
        self.buf[self.len..self.len + WORD].copy_from_slice(&checksum.to_le_bytes());
        self.w.write_all(&self.buf[..self.len + WORD])?;
        self.w.flush()
    }
}

/// Writes the arena in the packed format, one `write_all` per 64 KiB
/// chunk; the writer needs no buffering of its own.
pub fn write_bin<W: Write>(w: W, arena: &CorpusArena) -> std::io::Result<()> {
    let mut buf = vec![0u8; CHUNK_BYTES];
    buf[..WORD].copy_from_slice(&BIN_CORPUS_MAGIC);
    let mut out = ChunkWriter {
        w,
        buf,
        len: WORD,
        hashed: WORD,
        digest: WordDigest::new(),
    };
    out.words(&[arena.len(), arena.total_points()], |n| n as u64)?;
    out.words(arena.ids(), |id| id)?;
    out.words(arena.offsets(), |off| off as u64)?;
    for slab in [arena.xs(), arena.ys(), arena.ts()] {
        out.words(slab, f64::to_bits)?;
    }
    out.finish()
}

/// Packs the arena into `path`.
pub fn write_bin_file(path: &Path, arena: &CorpusArena) -> std::io::Result<()> {
    write_bin(std::fs::File::create(path)?, arena)
}

fn truncated_on_eof(e: std::io::Error) -> BinCorpusError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof => BinCorpusError::Truncated,
        _ => BinCorpusError::Io(e),
    }
}

/// Fills `buf` as far as the stream goes; returns the bytes read.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// The file's shape, as its header's two counts advertise it.
struct Layout {
    n_traj: usize,
    n_points: usize,
    /// Every byte the file must have: header, tables and checksum.
    file_bytes: u64,
}

impl Layout {
    fn new(n_traj: u64, n_points: u64) -> Result<Self, BinCorpusError> {
        // ids and offsets, three slabs, the checksum — checked, so a
        // hostile header cannot wrap its way to a small size.
        let words = n_traj
            .checked_mul(2)
            .and_then(|w| w.checked_add(n_points.checked_mul(3)?))
            .and_then(|w| w.checked_add(2));
        let file_bytes = words
            .and_then(|w| w.checked_mul(WORD as u64))
            .and_then(|b| b.checked_add(HEADER_BYTES as u64))
            .ok_or(BinCorpusError::ImplausibleCounts)?;
        let size = |n: u64| usize::try_from(n).map_err(|_| BinCorpusError::ImplausibleCounts);
        Ok(Layout {
            n_traj: size(n_traj)?,
            n_points: size(n_points)?,
            file_bytes,
        })
    }
}

/// Reads the header: the magic, then the two counts, which go into
/// `digest` as the payload's first two words.
fn read_header<R: Read>(r: &mut R, digest: &mut WordDigest) -> Result<Layout, BinCorpusError> {
    let mut header = [0u8; HEADER_BYTES];
    let got = read_up_to(r, &mut header)?;
    let magic = &header[..got.min(WORD)];
    if magic != BIN_CORPUS_MAGIC {
        return Err(
            if magic.len() == WORD
                && magic[..WORD - 1] == BIN_CORPUS_MAGIC[..WORD - 1]
                && magic[WORD - 1].is_ascii_digit()
            {
                BinCorpusError::UnsupportedVersion(magic[WORD - 1] - b'0')
            } else if !magic.is_empty() && BIN_CORPUS_MAGIC.starts_with(magic) {
                BinCorpusError::Truncated
            } else {
                BinCorpusError::BadMagic
            },
        );
    }
    if got < HEADER_BYTES {
        return Err(BinCorpusError::Truncated);
    }
    digest.update(&header[WORD..]);
    Layout::new(word(&header[WORD..2 * WORD]), word(&header[2 * WORD..]))
}

/// The payload after the header: tables pulled chunk by chunk through one
/// buffer, each chunk hashed before it is decoded.
struct ChunkReader<R> {
    r: R,
    buf: Vec<u8>,
    digest: WordDigest,
    /// The stream's length was checked against the header, so each table
    /// may be reserved whole up front.
    sized: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Reads the next `count` words into a table, decoding each with
    /// `decode`. Over a stream of unknown length a table grows at most
    /// geometrically, by what has already been read of it or one chunk,
    /// so a header cannot make the reader reserve memory the stream does
    /// not back.
    fn table<T>(
        &mut self,
        count: usize,
        decode: impl Fn(u64) -> T,
    ) -> Result<Vec<T>, BinCorpusError> {
        let mut table = Vec::with_capacity(if self.sized {
            count
        } else {
            count.min(CHUNK_WORDS)
        });
        while table.len() < count {
            let n = (count - table.len()).min(CHUNK_WORDS);
            if table.capacity() - table.len() < n {
                table.reserve_exact((count - table.len()).min(table.len().max(n)));
            }
            let chunk = &mut self.buf[..n * WORD];
            self.r.read_exact(chunk).map_err(truncated_on_eof)?;
            self.digest.update(chunk);
            table.extend(chunk.chunks_exact(WORD).map(|w| decode(word(w))));
        }
        Ok(table)
    }
}

/// The one reader: header, tables, checksum, end of stream, validation.
/// `stream_len` is the stream's byte length where known; the header's
/// counts are then checked against it before anything is reserved.
fn read_packed<R: Read>(mut r: R, stream_len: Option<u64>) -> Result<CorpusArena, BinCorpusError> {
    let mut digest = WordDigest::new();
    let layout = read_header(&mut r, &mut digest)?;
    if let Some(len) = stream_len {
        if layout.file_bytes > len {
            return Err(BinCorpusError::Truncated);
        }
        if layout.file_bytes < len {
            return Err(BinCorpusError::TrailingBytes);
        }
    }
    let Layout {
        n_traj, n_points, ..
    } = layout;
    let mut payload = ChunkReader {
        r,
        buf: vec![0u8; CHUNK_BYTES],
        digest,
        sized: stream_len.is_some(),
    };
    let ids = payload.table(n_traj, |id| id)?;
    let offsets = payload.table(n_traj + 1, |off| off)?;
    if offsets.iter().any(|&off| off > n_points as u64) {
        return Err(BinCorpusError::Arena(ArenaError::BadOffsets));
    }
    let offsets = offsets.into_iter().map(|off| off as usize).collect();
    let xs = payload.table(n_points, f64::from_bits)?;
    let ys = payload.table(n_points, f64::from_bits)?;
    let ts = payload.table(n_points, f64::from_bits)?;

    let mut stored = [0u8; WORD];
    payload
        .r
        .read_exact(&mut stored)
        .map_err(truncated_on_eof)?;
    if read_up_to(&mut payload.r, &mut [0u8; 1])? != 0 {
        return Err(BinCorpusError::TrailingBytes);
    }
    if payload.digest.finish() != u64::from_le_bytes(stored) {
        return Err(BinCorpusError::ChecksumMismatch);
    }
    Ok(CorpusArena::from_raw_slabs(ids, offsets, xs, ys, ts)?)
}

/// Reads a packed corpus from a stream of unknown length in one pass:
/// header, then the tables through one 64 KiB chunk buffer, each chunk
/// hashed and decoded, then checksum verification and arena validation.
pub fn read_bin<R: Read>(r: R) -> Result<CorpusArena, BinCorpusError> {
    read_packed(r, None)
}

/// Reads a packed corpus file in one streaming pass; the header's counts
/// are checked against the file's length before any table is reserved.
pub fn read_bin_file(path: &Path) -> Result<CorpusArena, BinCorpusError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_packed(file, Some(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetSpec};
    use simsub_trajectory::{Point, Trajectory};

    fn arena() -> CorpusArena {
        CorpusArena::from_trajectories(&generate(&DatasetSpec::porto(), 9, 17))
    }

    fn packed(arena: &CorpusArena) -> Vec<u8> {
        let mut buf = Vec::new();
        write_bin(&mut buf, arena).unwrap();
        buf
    }

    /// Both read paths: a stream of unknown length, and one whose length
    /// is checked against the header first (what `read_bin_file` does).
    fn read_both(buf: &[u8]) -> [Result<CorpusArena, BinCorpusError>; 2] {
        [
            read_bin(std::io::Cursor::new(buf)),
            read_packed(std::io::Cursor::new(buf), Some(buf.len() as u64)),
        ]
    }

    fn assert_same_arena(back: &CorpusArena, arena: &CorpusArena) {
        assert_eq!(back.len(), arena.len());
        assert_eq!(back.ids(), arena.ids());
        assert_eq!(back.offsets(), arena.offsets());
        for (a, b) in [
            (back.xs(), arena.xs()),
            (back.ys(), arena.ys()),
            (back.ts(), arena.ts()),
        ] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for s in 0..arena.len() {
            assert_eq!(back.mbr(s), arena.mbr(s), "MBR table recomputed equal");
        }
    }

    /// The payload words after the magic, checksum excluded.
    fn payload_words(buf: &[u8]) -> Vec<u64> {
        buf[WORD..buf.len() - WORD]
            .chunks_exact(WORD)
            .map(word)
            .collect()
    }

    /// Digest of a word sequence, one word at a time.
    fn digest_of(words: &[u64]) -> u64 {
        let mut d = WordDigest::new();
        for &w in words {
            d.push(w);
        }
        d.finish()
    }

    /// Overwrites payload word `i` (`n_traj` is word 0) and recomputes the
    /// checksum, so only validation can reject the result.
    fn refixed(buf: &[u8], edits: &[(usize, u64)]) -> Vec<u8> {
        let mut out = buf.to_vec();
        for &(i, w) in edits {
            out[WORD * (i + 1)..WORD * (i + 2)].copy_from_slice(&w.to_le_bytes());
        }
        let sum = digest_of(&payload_words(&out));
        let end = out.len();
        out[end - WORD..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Trajectories whose lengths cycle through `lens`, `count` of them.
    fn corpus_arena(count: usize, lens: &[usize]) -> CorpusArena {
        let trajs: Vec<Trajectory> = (0..count)
            .map(|i| {
                let n = lens[i % lens.len()];
                let points = (0..n)
                    .map(|j| {
                        let v = (i * 7919 + j * 104_729) as f64;
                        Point::new(v.sin() * 1e3, (v * 0.37).cos() * 1e3 - 0.1, j as f64 * 1.5)
                    })
                    .collect();
                Trajectory::new_unchecked(1_000 + i as u64 * 3, points)
            })
            .collect();
        CorpusArena::from_trajectories(&trajs)
    }

    /// A reader that hands out 1–7 bytes per call.
    struct Dribble<'a> {
        bytes: &'a [u8],
        call: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.call += 1;
            let n = (1 + self.call % 7).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simsub_bin_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let arena = arena();
        let buf = packed(&arena);
        assert_eq!(buf[..WORD], BIN_CORPUS_MAGIC);
        for back in read_both(&buf) {
            assert_same_arena(&back.unwrap(), &arena);
        }
    }

    #[test]
    fn empty_corpus_round_trips() {
        let arena = CorpusArena::empty();
        let buf = packed(&arena);
        for back in read_both(&buf) {
            assert!(back.unwrap().is_empty());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = packed(&arena());
        buf[0] = b'X';
        assert!(matches!(
            read_bin(std::io::Cursor::new(&buf)),
            Err(BinCorpusError::BadMagic)
        ));
        // A version byte that is not a digit is not another version.
        buf[0] = b'S';
        buf[7] = b'x';
        assert!(matches!(
            read_bin(std::io::Cursor::new(&buf)),
            Err(BinCorpusError::BadMagic)
        ));
        for foreign in [&b""[..], b"nonsense", b"SSUBARX", b"id,x,y,t\n0,1,2,3\n"] {
            assert!(matches!(
                read_bin(std::io::Cursor::new(foreign)),
                Err(BinCorpusError::BadMagic)
            ));
        }
        // A prefix of the magic is a cut-off packed corpus.
        assert!(matches!(
            read_bin(std::io::Cursor::new(&BIN_CORPUS_MAGIC[..5])),
            Err(BinCorpusError::Truncated)
        ));
    }

    /// A hand-built version 1 header (`SSUBARN1`, then the same counts)
    /// names its version and says how to fix it, through both readers.
    #[test]
    fn version_one_file_says_to_repack() {
        let mut v1 = b"SSUBARN1".to_vec();
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&2u64.to_le_bytes());
        v1.extend_from_slice(&[0u8; 6 * WORD]);
        let path = temp_path("v1.ssb");
        std::fs::write(&path, &v1).unwrap();
        for err in [
            read_bin(std::io::Cursor::new(&v1)).unwrap_err(),
            read_bin(std::io::Cursor::new(&v1[..WORD])).unwrap_err(),
            read_bin_file(&path).unwrap_err(),
        ] {
            assert!(
                matches!(err, BinCorpusError::UnsupportedVersion(1)),
                "{err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("version 1"), "{msg}");
            assert!(msg.contains("simsub corpus pack"), "{msg}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let buf = packed(&arena());
        for cut in 1..buf.len() {
            let err = read_bin(std::io::Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, BinCorpusError::Truncated), "cut {cut}: {err}");
            let err = read_packed(std::io::Cursor::new(&buf[..cut]), Some(cut as u64)).unwrap_err();
            assert!(
                matches!(err, BinCorpusError::Truncated),
                "sized cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_rejected_by_checksum() {
        let mut buf = packed(&arena());
        // Flip one payload byte deep in the coordinate slabs.
        let idx = buf.len() - 64;
        buf[idx] ^= 0x40;
        for err in read_both(&buf) {
            let err = err.unwrap_err();
            assert!(
                matches!(
                    err,
                    BinCorpusError::ChecksumMismatch | BinCorpusError::Arena(_)
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = packed(&arena());
        buf.push(0);
        for err in read_both(&buf) {
            assert!(matches!(err, Err(BinCorpusError::TrailingBytes)));
        }
    }

    #[test]
    fn file_round_trip() {
        let arena = arena();
        let path = temp_path("corpus.ssb");
        write_bin_file(&path, &arena).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), packed(&arena));
        assert_same_arena(&read_bin_file(&path).unwrap(), &arena);
        std::fs::remove_file(&path).ok();
    }

    /// Multiplicative inverse of an odd word, by Newton iteration.
    fn inverse(odd: u64) -> u64 {
        let mut inv = odd;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(odd), 1);
        inv
    }

    /// Every step of the digest can be undone, so none of them maps two
    /// inputs to one output: a round recovers its word given the lane and
    /// its lane given the word, the merge is a sum over lanes, and the
    /// word-count xor and the avalanche invert too. Hence a change to any
    /// one word changes its lane, every later round on that lane, and the
    /// digest.
    #[test]
    fn digest_steps_are_bijections() {
        let (i1, i2, i3) = (inverse(P1), inverse(P2), inverse(P3));
        let unround = |out: u64| out.wrapping_mul(i1).rotate_right(31);
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..10_000 {
            let (lane, w) = (next(), next());
            let out = WordDigest::round(lane, w);
            assert_eq!(unround(out).wrapping_sub(lane).wrapping_mul(i2), w);
            assert_eq!(unround(out).wrapping_sub(w.wrapping_mul(P2)), lane);

            // The avalanche, undone step by step.
            let mut d = WordDigest::new();
            d.lanes = [next(), next(), next(), next()];
            d.words = next();
            let [a, b, c, e] = d.lanes;
            let merged = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(e.rotate_left(18));
            let mut h = d.finish();
            h ^= h >> 32;
            h = h.wrapping_mul(i3);
            h ^= (h >> 29) ^ (h >> 58);
            h = h.wrapping_mul(i2);
            h ^= h >> 33;
            assert_eq!(h ^ d.words, merged);
        }
    }

    /// The digest depends on the word sequence only: any cut into updates
    /// gives the one-word-at-a-time digest.
    #[test]
    fn digest_ignores_chunk_boundaries() {
        let bytes: Vec<u8> = (0..71u64)
            .flat_map(|i| (i.wrapping_mul(P3) ^ 0x5a5a).to_le_bytes())
            .collect();
        let want = digest_of(&bytes.chunks_exact(WORD).map(word).collect::<Vec<_>>());
        let mut whole = WordDigest::new();
        whole.update(&bytes);
        assert_eq!(whole.finish(), want);
        let words = bytes.len() / WORD;
        for a in 0..=words {
            for b in a..=words.min(a + 9) {
                let mut d = WordDigest::new();
                d.update(&bytes[..a * WORD]);
                d.update(&bytes[a * WORD..b * WORD]);
                d.update(&bytes[b * WORD..]);
                assert_eq!(d.finish(), want, "cuts at words {a} and {b}");
            }
        }
        assert_ne!(digest_of(&[0]), digest_of(&[0, 0]), "length is hashed");
    }

    /// Every bit after the magic of a small file, flipped alone: each
    /// flip is a typed error through both readers, never a load.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let buf = packed(&corpus_arena(3, &[2, 5, 3]));
        let mut corrupted = buf.clone();
        for byte in WORD..buf.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                for got in read_both(&corrupted) {
                    match got {
                        Ok(_) => panic!("flipping bit {bit} of byte {byte} loaded"),
                        Err(BinCorpusError::Io(e)) => panic!("byte {byte} bit {bit}: {e}"),
                        Err(_) => {}
                    }
                }
                corrupted[byte] ^= 1 << bit;
            }
        }
        assert!(read_both(&corrupted).into_iter().all(|r| r.is_ok()));
    }

    /// Payload edits with the checksum recomputed, so validation is the
    /// safety net: each is its typed error, never a panic or a load.
    #[test]
    fn checksum_refixed_mutations_fail_validation() {
        let arena = corpus_arena(3, &[2, 5, 3]);
        let buf = packed(&arena);
        let (n, p) = (arena.len(), arena.total_points());
        // Word indices: counts 0–1, ids, offsets, then the three slabs.
        let (ids, offs) = (2, 2 + n);
        let (xs, ys, ts) = (offs + n + 1, offs + n + 1 + p, offs + n + 1 + 2 * p);
        assert_eq!(payload_words(&buf).len(), ts + p);
        let untouched = refixed(&buf, &[]);
        assert_eq!(untouched, buf);

        let arena_err = |edits: &[(usize, u64)], want: ArenaError| {
            for got in read_both(&refixed(&buf, edits)) {
                match got {
                    Err(BinCorpusError::Arena(e)) => assert_eq!(e, want, "{edits:?}"),
                    other => panic!("{edits:?}: {:?}", other.map(|a| a.len())),
                }
            }
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            arena_err(&[(xs + 4, bad.to_bits())], ArenaError::NonFinitePoint(4));
            arena_err(&[(ys, bad.to_bits())], ArenaError::NonFinitePoint(0));
            arena_err(&[(ts + 9, bad.to_bits())], ArenaError::NonFinitePoint(9));
        }
        // Point 3 is the second trajectory's second point.
        arena_err(
            &[(ts + 3, (-1.0f64).to_bits())],
            ArenaError::TimeNotMonotone(3),
        );
        arena_err(
            &[(ids + 2, arena.ids()[0])],
            ArenaError::DuplicateId(arena.ids()[0]),
        );
        arena_err(&[(offs + 2, 2)], ArenaError::BadOffsets);
        arena_err(&[(offs + 1, 8), (offs + 2, 7)], ArenaError::BadOffsets);
        arena_err(&[(offs + 1, p as u64 + 1)], ArenaError::BadOffsets);
        arena_err(&[(offs + 3, p as u64 - 1)], ArenaError::BadOffsets);
        arena_err(&[(offs, 1)], ArenaError::BadOffsets);

        // Edited counts: the tables no longer line up with the stream.
        let (n, p) = (n as u64, p as u64);
        for counts in [
            (n - 1, p),
            (n + 1, p),
            (n, p - 1),
            (n, p + 1),
            (0, 0),
            (n + 3, p - 2),
            (1 << 40, p),
            (n, 1 << 58),
            (u64::MAX, p),
            (n, u64::MAX / 4),
        ] {
            for got in read_both(&refixed(&buf, &[(0, counts.0), (1, counts.1)])) {
                let err = got.map(|a| a.len()).unwrap_err();
                assert!(
                    matches!(
                        err,
                        BinCorpusError::Arena(_)
                            | BinCorpusError::Truncated
                            | BinCorpusError::TrailingBytes
                            | BinCorpusError::ImplausibleCounts
                    ),
                    "counts {counts:?}: {err}"
                );
            }
        }
    }

    /// The verdict on checksum-valid tables, written out in the order the
    /// reader checks them: the offsets table, then duplicate ids, then the
    /// first non-finite point, then the first time that regresses inside a
    /// trajectory. `words` are the payload words (`n_traj` is word 0).
    fn table_verdict(words: &[u64]) -> Result<(), ArenaError> {
        let (n, p) = (words[0] as usize, words[1] as usize);
        let ids = &words[2..2 + n];
        let offsets = &words[2 + n..3 + 2 * n];
        let slab = |k: usize| -> Vec<f64> {
            let from = 3 + 2 * n + k * p;
            words[from..from + p]
                .iter()
                .map(|&w| f64::from_bits(w))
                .collect()
        };
        let (xs, ys, ts) = (slab(0), slab(1), slab(2));
        if offsets[0] != 0 || offsets[n] != p as u64 || offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ArenaError::BadOffsets);
        }
        if let Some(i) = (1..n).find(|&i| ids[..i].contains(&ids[i])) {
            return Err(ArenaError::DuplicateId(ids[i]));
        }
        if let Some(i) = (0..p).find(|&i| [xs[i], ys[i], ts[i]].iter().any(|v| !v.is_finite())) {
            return Err(ArenaError::NonFinitePoint(i));
        }
        let starts = |i: usize| offsets.contains(&(i as u64));
        if let Some(i) = (1..p).find(|&i| !starts(i) && ts[i] < ts[i - 1]) {
            return Err(ArenaError::TimeNotMonotone(i));
        }
        Ok(())
    }

    /// Every table word (ids, offsets and the three slabs) replaced in turn
    /// by NaN, ±∞, −1.0, 0 and itself + 1, checksum recomputed: both entry
    /// points give the verdict `table_verdict` computes — the same
    /// `ArenaError`, first bad index included — or load exactly the edited
    /// tables. This pins the reader's check order, so a later fused
    /// validation pass cannot drift from it. (Edited counts change the
    /// framing, not the tables; `checksum_refixed_mutations_fail_validation`
    /// covers them.)
    #[test]
    fn hostile_table_words_get_the_first_failing_check() {
        let arena = corpus_arena(3, &[2, 5, 3]);
        let buf = packed(&arena);
        let words = payload_words(&buf);
        let mut verdicts = std::collections::HashSet::new();
        for i in 2..words.len() {
            for value in [
                f64::NAN.to_bits(),
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
                (-1.0f64).to_bits(),
                0,
                words[i].wrapping_add(1),
            ] {
                let mut edited = words.clone();
                edited[i] = value;
                let want = table_verdict(&edited);
                verdicts.insert(want.as_ref().err().map(std::mem::discriminant));
                for got in read_both(&refixed(&buf, &[(i, value)])) {
                    match (got, &want) {
                        (Ok(back), Ok(())) => {
                            let mut loaded = vec![back.len() as u64, back.total_points() as u64];
                            loaded.extend(back.ids());
                            loaded.extend(back.offsets().iter().map(|&o| o as u64));
                            for slab in [back.xs(), back.ys(), back.ts()] {
                                loaded.extend(slab.iter().map(|v| v.to_bits()));
                            }
                            assert_eq!(loaded, edited, "word {i} := {value:#x}");
                        }
                        (Err(BinCorpusError::Arena(e)), Err(w)) => {
                            assert_eq!(&e, w, "word {i} := {value:#x}")
                        }
                        (got, want) => panic!(
                            "word {i} := {value:#x}: got {:?}, want {want:?}",
                            got.map(|a| a.len())
                        ),
                    }
                }
            }
        }
        // Loads, bad offsets, non-finite points and regressing times all
        // occur; a duplicate id needs a copied id, not one of these values.
        assert_eq!(verdicts.len(), 4);
    }

    /// Headers advertising tables the stream cannot hold fail through
    /// both entry points. A reservation of the advertised size would abort
    /// the test process, so passing shows none is made.
    #[test]
    fn hostile_headers_fail_without_reserving() {
        let header = |n_traj: u64, n_points: u64, body_words: usize| {
            let mut h = BIN_CORPUS_MAGIC.to_vec();
            h.extend_from_slice(&n_traj.to_le_bytes());
            h.extend_from_slice(&n_points.to_le_bytes());
            h.resize(h.len() + body_words * WORD, 0);
            h
        };
        let cases = [
            // The point slabs' word count overflows.
            (1, u64::MAX, BinCorpusError::ImplausibleCounts),
            // 2·n_traj overflows.
            (u64::MAX / 2 + 1, 0, BinCorpusError::ImplausibleCounts),
            // The words fit, their byte size does not.
            (0, u64::MAX / 4, BinCorpusError::ImplausibleCounts),
            (u64::MAX / 16, 1, BinCorpusError::ImplausibleCounts),
            // Sizes that fit but that the stream does not back.
            (0, 1 << 58, BinCorpusError::Truncated),
            (1 << 40, 3, BinCorpusError::Truncated),
            (2, 1 << 50, BinCorpusError::Truncated),
        ];
        let path = temp_path("hostile.ssb");
        for (n_traj, n_points, want) in cases {
            let bytes = header(n_traj, n_points, 3 * CHUNK_WORDS + 5);
            std::fs::write(&path, &bytes).unwrap();
            let got = [
                read_bin(std::io::Cursor::new(&bytes)).map(|a| a.len()),
                read_bin(Dribble {
                    bytes: &bytes,
                    call: 0,
                })
                .map(|a| a.len()),
                read_bin_file(&path).map(|a| a.len()),
            ];
            for got in got {
                let err = got.unwrap_err();
                assert_eq!(
                    std::mem::discriminant(&err),
                    std::mem::discriminant(&want),
                    "n_traj {n_traj} n_points {n_points}: {err}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Corpora larger than a chunk, with tables straddling the writer's
    /// chunk edges, round-trip bit-exactly through every reader — a
    /// dribbling one included — and the writer's bytes are the format's
    /// word-at-a-time encoding.
    #[test]
    fn multi_chunk_corpora_round_trip_through_short_reads() {
        let arenas = [
            // ids + offsets straddle the first chunk edge.
            corpus_arena(4_100, &[2, 3]),
            // Long slabs, each straddling chunk edges.
            corpus_arena(3, &[9_000, 1, 4_321]),
            // Exactly one chunk of payload before the checksum.
            corpus_arena(1, &[(CHUNK_WORDS - 1 - 2 - 2) / 3]),
        ];
        for (i, arena) in arenas.iter().enumerate() {
            let buf = packed(arena);
            let mut words = vec![arena.len() as u64, arena.total_points() as u64];
            words.extend(arena.ids());
            words.extend(arena.offsets().iter().map(|&o| o as u64));
            for slab in [arena.xs(), arena.ys(), arena.ts()] {
                words.extend(slab.iter().map(|v| v.to_bits()));
            }
            words.push(digest_of(&words));
            let want: Vec<u8> = BIN_CORPUS_MAGIC
                .into_iter()
                .chain(words.iter().flat_map(|w| w.to_le_bytes()))
                .collect();
            assert!(buf == want, "corpus {i}: writer bytes differ");
            assert!(buf.len() > CHUNK_BYTES, "corpus {i} spans chunks");

            for back in read_both(&buf) {
                assert_same_arena(&back.unwrap(), arena);
            }
            let back = read_bin(Dribble {
                bytes: &buf,
                call: 0,
            })
            .unwrap();
            assert_same_arena(&back, arena);
        }
    }
}
