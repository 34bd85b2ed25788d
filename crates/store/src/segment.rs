//! Sorted spill segments: raw key runs for the shuffle's out-of-core merge
//! path.
//!
//! When a receive-side run stack (`ygm::runs`) exceeds its `--shuffle-budget`
//! cap, the resident runs are k-way merged and streamed here as one sorted
//! **segment**: a flat, non-decreasing sequence of packed shuffle keys (8-byte
//! pairs/incidences or 16-byte events/edges), each stored as its
//! little-endian bytes — the same fixed-width words a snapshot's `ROWS` holds.
//! Duplicates are legal: pair-occurrence multisets repeat keys by design.
//!
//! Layout of a segment file:
//!
//! ```text
//! magic    8 B   b"COORSEG2"
//! width    u8    key width in bytes: 8 or 16
//! count    u64 LE  number of keys
//! paylen   u64 LE  payload length in bytes, count × width
//! sum      u64 LE  the snapshot sections' checksum of the payload bytes
//! payload  count keys, width bytes LE each, non-decreasing
//! ```
//!
//! The writer streams: keys are gathered a chunk at a time, and each chunk is
//! folded into a running sum (the streaming form of
//! [`crate::snapshot::checksum`]) and written out, so spilling never
//! re-buffers the run it is evicting. The reader streams too —
//! [`SegmentReader::next_block`] decodes one chunk at a time into a reusable
//! buffer, which is what lets the final owner-side merge iterate spilled runs
//! without ever holding one resident. Every malformed input (bad magic,
//! truncation, a length that is not `count × width`, keys out of order,
//! checksum mismatch) is a typed [`StoreError`], never a panic — the same
//! contract as [`crate::Snapshot`].

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::err::StoreError;
use crate::snapshot::Checksum;

/// Magic prefix of every segment file.
pub(crate) const SEG_MAGIC: [u8; 8] = *b"COORSEG2";

/// Fixed header size: magic + width + count + paylen + sum.
const HEADER_LEN: usize = 8 + 1 + 8 + 8 + 8;

/// Payload bytes written or read per syscall: large enough that the per-key
/// cost is a copy, small enough to stay cache-resident.
const SEG_CHUNK: usize = 64 << 10;

/// A key width other than 8 or 16 bytes is [`StoreError::Corrupt`].
fn check_width(width: u8) -> Result<(), StoreError> {
    if width == 8 || width == 16 {
        return Ok(());
    }
    Err(StoreError::corrupt(format!(
        "segment key width must be 8 or 16, got {width}"
    )))
}

/// What a finished segment holds — the writer's receipt, used by the spill
/// machinery to account `shuffle.spilled_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Keys written.
    pub keys: u64,
    /// Payload bytes on disk (header excluded).
    pub payload_bytes: u64,
}

/// Streaming writer for one sorted segment.
///
/// Keys must arrive in non-decreasing order and fit the declared width;
/// violations are [`StoreError::Corrupt`] at push time (a writer-side
/// invariant breach, caught before it can poison a file).
pub struct SegmentWriter {
    out: File,
    width: u8,
    count: u64,
    sum: Checksum,
    prev: u128,
    /// Keys encoded but not yet written.
    chunk: Vec<u8>,
}

impl SegmentWriter {
    /// Create a segment file at `path` for keys of `width` bytes (8 or 16).
    /// An existing file is truncated.
    pub fn create(path: &Path, width: u8) -> Result<Self, StoreError> {
        check_width(width)?;
        let mut out = File::create(path)?;
        // Placeholder header; finish() seeks back and fills in the totals.
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(SegmentWriter {
            out,
            width,
            count: 0,
            sum: Checksum::new(),
            prev: 0,
            chunk: Vec::new(),
        })
    }

    /// Append one key. Must be `>= ` the previous key and `< 2^(8*width)`.
    pub fn push(&mut self, key: u128) -> Result<(), StoreError> {
        if self.width == 8 && key > u128::from(u64::MAX) {
            return Err(StoreError::corrupt("segment key overflows declared width"));
        }
        if self.count > 0 && key < self.prev {
            return Err(StoreError::corrupt(
                "segment keys pushed out of sorted order",
            ));
        }
        self.chunk
            .extend_from_slice(&key.to_le_bytes()[..usize::from(self.width)]);
        self.prev = key;
        self.count += 1;
        if self.chunk.len() >= SEG_CHUNK {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Sum and write the encoded keys.
    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        self.sum.update(&self.chunk);
        self.out.write_all(&self.chunk)?;
        self.chunk.clear();
        Ok(())
    }

    /// Flush and patch the header with the final totals.
    pub fn finish(mut self) -> Result<SegmentStats, StoreError> {
        self.flush_chunk()?;
        let payload_len = self.count * u64::from(self.width);
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&SEG_MAGIC);
        header.push(self.width);
        header.extend_from_slice(&self.count.to_le_bytes());
        header.extend_from_slice(&payload_len.to_le_bytes());
        header.extend_from_slice(&self.sum.finish().to_le_bytes());
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header)?;
        Ok(SegmentStats {
            keys: self.count,
            payload_bytes: payload_len,
        })
    }
}

/// Streaming reader over one segment: header validated at open, payload
/// decoded a chunk at a time with a running checksum that is verified once
/// the last key is out. Memory is one chunk and its decoded keys, regardless
/// of segment size.
pub struct SegmentReader {
    input: File,
    width: u8,
    count: u64,
    declared_sum: u64,
    sum: Checksum,
    keys_read: u64,
    prev: u128,
    block: Vec<u128>,
    chunk: Vec<u8>,
}

impl SegmentReader {
    /// Open and validate a segment header. The payload's declared length must
    /// be `count × width` and account for the file exactly; content is
    /// validated as it streams.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut input = File::open(path)?;
        let file_len = input.metadata()?.len();
        let mut header = [0u8; HEADER_LEN];
        if file_len < HEADER_LEN as u64 {
            return Err(StoreError::Truncated {
                what: "segment header",
                need: HEADER_LEN as u64,
                have: file_len,
            });
        }
        input.read_exact(&mut header)?;
        if header[..8] != SEG_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&header[..8]);
            return Err(StoreError::BadMagic { found });
        }
        let width = header[8];
        check_width(width)?;
        let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let (count, payload_len, declared_sum) = (field(9), field(17), field(25));
        if count.checked_mul(u64::from(width)) != Some(payload_len) {
            return Err(StoreError::corrupt(format!(
                "segment declares {count} keys of {width} bytes in {payload_len} payload bytes"
            )));
        }
        let need = HEADER_LEN as u64 + payload_len;
        if file_len < need {
            return Err(StoreError::Truncated {
                what: "segment payload",
                need,
                have: file_len,
            });
        }
        if file_len > need {
            return Err(StoreError::corrupt(format!(
                "segment has {} trailing bytes past the declared payload",
                file_len - need
            )));
        }
        Ok(SegmentReader {
            input,
            width,
            count,
            declared_sum,
            sum: Checksum::new(),
            keys_read: 0,
            prev: 0,
            block: Vec::new(),
            chunk: Vec::new(),
        })
    }

    /// Key width in bytes (8 or 16).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Read and decode the next chunk of keys into the internal buffer and
    /// return it. An empty slice means the segment is exhausted — at that
    /// point the checksum has been verified. Errors are sticky in practice:
    /// callers stop at the first `Err`.
    pub fn next_block(&mut self) -> Result<&[u128], StoreError> {
        self.block.clear();
        let width = usize::from(self.width);
        let left = self.count - self.keys_read;
        if left == 0 {
            if self.sum.finish() != self.declared_sum {
                return Err(StoreError::ChecksumMismatch { section: "segment" });
            }
            return Ok(&self.block);
        }
        // open proved the file holds `count × width` payload bytes
        let take = left.min((SEG_CHUNK / width) as u64) as usize;
        self.chunk.resize(take * width, 0);
        self.input.read_exact(&mut self.chunk)?;
        self.sum.update(&self.chunk);
        let mut prev = self.prev;
        for raw in self.chunk.chunks_exact(width) {
            let mut word = [0u8; 16];
            word[..width].copy_from_slice(raw);
            let key = u128::from_le_bytes(word);
            if key < prev {
                return Err(StoreError::corrupt("segment keys out of order"));
            }
            prev = key;
            self.block.push(key);
        }
        self.prev = prev;
        self.keys_read += take as u64;
        Ok(&self.block)
    }
}

/// Decode a whole segment into memory; the merge path streams via
/// [`SegmentReader::next_block`].
#[cfg(test)]
fn read_all(path: &Path) -> Result<Vec<u128>, StoreError> {
    let mut reader = SegmentReader::open(path)?;
    let mut out = Vec::new();
    loop {
        let block = reader.next_block()?;
        if block.is_empty() {
            return Ok(out);
        }
        out.extend_from_slice(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "coorseg-test-{name}-{}-{:?}.seg",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn write_keys(path: &Path, width: u8, keys: &[u128]) -> SegmentStats {
        let mut w = SegmentWriter::create(path, width).unwrap();
        for &k in keys {
            w.push(k).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_with_duplicates_across_chunks() {
        let path = tmp("roundtrip");
        // 80 KB of keys: two chunks
        let mut keys: Vec<u128> = (0..10_000u128).map(|i| i * 3).collect();
        keys.extend(std::iter::repeat_n(30_000u128, 10)); // duplicates
        keys.sort_unstable();
        let stats = write_keys(&path, 8, &keys);
        assert_eq!(stats.keys, keys.len() as u64);
        assert_eq!(stats.payload_bytes, 8 * keys.len() as u64);
        assert_eq!(read_all(&path).unwrap(), keys);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wide_keys_roundtrip() {
        let path = tmp("wide");
        let keys: Vec<u128> = vec![
            0,
            1,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX - 1,
            u128::MAX,
        ];
        write_keys(&path, 16, &keys);
        assert_eq!(read_all(&path).unwrap(), keys);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_segment_roundtrips() {
        let path = tmp("empty");
        let stats = write_keys(&path, 8, &[]);
        assert_eq!(stats.keys, 0);
        assert_eq!(read_all(&path).unwrap(), Vec::<u128>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_disorder_and_width_overflow() {
        let path = tmp("disorder");
        let mut w = SegmentWriter::create(&path, 8).unwrap();
        w.push(10).unwrap();
        assert!(matches!(w.push(9), Err(StoreError::Corrupt { .. })));
        let mut w = SegmentWriter::create(&path, 8).unwrap();
        assert!(matches!(
            w.push(u128::from(u64::MAX) + 1),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            SegmentWriter::create(&path, 7),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error() {
        let path = tmp("truncate");
        let keys: Vec<u128> = (0..300u128).collect();
        write_keys(&path, 8, &keys);
        let bytes = std::fs::read(&path).unwrap();
        let cut_path = tmp("truncate-cut");
        for cut in 0..bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert!(
                read_all(&cut_path).is_err(),
                "cut at {cut} of {} silently accepted",
                bytes.len()
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut_path).ok();
    }

    #[test]
    fn bit_flips_are_caught() {
        let path = tmp("flip");
        let keys: Vec<u128> = (0..500u128).map(|i| i * 7).collect();
        write_keys(&path, 8, &keys);
        let bytes = std::fs::read(&path).unwrap();
        let flip_path = tmp("flip-cut");
        // every byte, one bit each — header flips fail structurally, payload
        // flips fail the checksum (or a structural check first)
        for at in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[at] ^= 0x10;
            std::fs::write(&flip_path, &dam).unwrap();
            assert!(read_all(&flip_path).is_err(), "flip at byte {at} accepted");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&flip_path).ok();
    }

    /// Runs of 1–8 random bytes overwritten anywhere in the file, each read
    /// as it is and with the header's checksum rewritten to match the damaged
    /// payload, so the decoder's structural checks run rather than the
    /// checksum alone. Never a panic: a typed error, or keys that are still
    /// sorted and inside the declared width.
    #[test]
    fn multi_byte_mutations_never_panic_even_behind_the_checksum() {
        // splitmix64: the loop's only source of randomness
        let mut state = 0x5eed_c0de_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let path = tmp("mutate");
        let (mut opened, mut corrupt) = (0u32, 0u32);
        for width in [8u8, 16] {
            let shift = 128 - u32::from(width) * 8;
            let mut keys: Vec<u128> = (0..300)
                .map(|_| {
                    (u128::from(next()) << 64 | u128::from(next())) >> (shift + next() as u32 % 64)
                })
                .collect();
            keys.sort_unstable();
            write_keys(&path, width, &keys);
            let image = std::fs::read(&path).unwrap();
            for _ in 0..1200 {
                let mut bytes = image.clone();
                let at = next() as usize % bytes.len();
                for slot in bytes.iter_mut().skip(at).take(1 + next() as usize % 8) {
                    *slot = next() as u8;
                }
                let mut repaired = bytes.clone();
                let sum = crate::snapshot::checksum(&repaired[HEADER_LEN..]);
                repaired[25..33].copy_from_slice(&sum.to_le_bytes());
                for candidate in [bytes, repaired] {
                    std::fs::write(&path, &candidate).unwrap();
                    match read_all(&path) {
                        Ok(got) => {
                            let limit = u128::MAX >> (128 - u32::from(candidate[8]) * 8);
                            assert!(got.windows(2).all(|w| w[0] <= w[1]), "unsorted keys");
                            assert!(got.iter().all(|&k| k <= limit), "key past width");
                            opened += 1;
                        }
                        Err(StoreError::Io(e)) => panic!("I/O error on a mutated segment: {e}"),
                        Err(StoreError::Corrupt { .. }) => corrupt += 1,
                        Err(_) => {}
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
        // the repaired copies must reach past the checksum into the decoder
        assert!(
            opened > 100 && corrupt > 1000,
            "opened {opened}, corrupt {corrupt}"
        );
    }

    /// Any other magic, the delta-varint `COORSEG1` layout's included, has no
    /// reader.
    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("magic");
        write_keys(&path, 8, &[5, 6]);
        let mut bytes = std::fs::read(&path).unwrap();
        for magic in [b"NOTASEGM", b"COORSEG1"] {
            bytes[..8].copy_from_slice(magic);
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                SegmentReader::open(&path),
                Err(StoreError::BadMagic { found }) if &found == magic
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    /// A header whose count and width do not multiply to its payload length
    /// is corrupt, even when the file's length agrees with that payload.
    #[test]
    fn count_times_width_must_be_the_payload_length() {
        let path = tmp("count");
        write_keys(&path, 16, &[1, 2, 3]);
        let image = std::fs::read(&path).unwrap();
        for (count, width) in [(2u64, 16u8), (4, 16), (5, 8), (u64::MAX / 8, 16)] {
            let mut bytes = image.clone();
            bytes[8] = width;
            bytes[9..17].copy_from_slice(&count.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match SegmentReader::open(&path) {
                Err(StoreError::Corrupt { what }) => {
                    assert!(what.contains("payload bytes"), "{what}")
                }
                other => panic!("{count} x {width}: expected Corrupt, got {:?}", other.err()),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("missing-never-written");
        assert!(matches!(SegmentReader::open(&path), Err(StoreError::Io(_))));
    }
}
