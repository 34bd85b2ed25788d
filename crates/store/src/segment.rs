//! Sorted spill segments: delta-varint key runs for the shuffle's
//! out-of-core merge path.
//!
//! When a receive-side run stack (`ygm::runs`) exceeds its `--shuffle-budget`
//! cap, the resident runs are k-way merged and streamed here as one sorted
//! **segment**: a flat, non-decreasing sequence of packed shuffle keys (8-byte
//! pairs/incidences or 16-byte events/edges), framed in `SEG_BLOCK`-key
//! blocks — each block opens with its first key absolute, followed by
//! non-negative deltas, so ascending dense keys cost a byte or two each.
//! Duplicates are legal (a delta of zero): pair-occurrence multisets repeat
//! keys by design.
//!
//! Layout of a segment file:
//!
//! ```text
//! magic    8 B   b"COORSEG1"
//! width    u8    logical key width in bytes: 8 or 16
//! count    u64 LE  number of keys
//! paylen   u64 LE  payload length in bytes
//! sum      u64 LE  the snapshot sections' checksum of the payload bytes
//! payload  ceil(count / SEG_BLOCK) blocks:
//!            varint first key (absolute),
//!            then (block_len - 1) × varint delta from predecessor
//! ```
//!
//! The writer streams: keys are encoded a block at a time, and each block is
//! folded into a running sum (the streaming form of
//! [`crate::snapshot::checksum`]) and written to a buffered file, so
//! spilling never re-buffers the run it is evicting. The reader streams too
//! — [`SegmentReader::next_block`] decodes one block at a time into a
//! reusable buffer, which is what lets the final owner-side merge iterate
//! spilled runs without ever holding one resident. Every malformed input
//! (bad magic, truncation, varint overflow, keys out of order or out of
//! width range, checksum mismatch) is a typed [`StoreError`], never a panic
//! — the same contract as [`crate::Snapshot`].

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::err::StoreError;
use crate::snapshot::Checksum;
use crate::varint;

/// Magic prefix of every segment file.
pub(crate) const SEG_MAGIC: [u8; 8] = *b"COORSEG1";

/// Keys per block: big enough to amortize decode dispatch, small enough for a stack-friendly
/// reusable buffer.
pub(crate) const SEG_BLOCK: usize = 128;

/// Fixed header size: magic + width + count + paylen + sum.
const HEADER_LEN: usize = 8 + 1 + 8 + 8 + 8;

/// What a finished segment holds — the writer's receipt, used by the spill
/// machinery to account `shuffle.spilled_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Keys written.
    pub keys: u64,
    /// Encoded payload bytes on disk (header excluded).
    pub payload_bytes: u64,
}

/// Streaming writer for one sorted segment.
///
/// Keys must arrive in non-decreasing order and fit the declared width;
/// violations are [`StoreError::Corrupt`] at push time (a writer-side
/// invariant breach, caught before it can poison a file).
pub struct SegmentWriter {
    out: BufWriter<File>,
    width: u8,
    count: u64,
    payload_len: u64,
    sum: Checksum,
    prev: u128,
    /// The current block's encoded keys.
    block: Vec<u8>,
}

impl SegmentWriter {
    /// Create a segment file at `path` for keys of `width` bytes (8 or 16).
    /// An existing file is truncated.
    pub fn create(path: &Path, width: u8) -> Result<Self, StoreError> {
        if width != 8 && width != 16 {
            return Err(StoreError::corrupt(format!(
                "segment key width must be 8 or 16, got {width}"
            )));
        }
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        // Placeholder header; finish() seeks back and fills in the totals.
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(SegmentWriter {
            out,
            width,
            count: 0,
            payload_len: 0,
            sum: Checksum::new(),
            prev: 0,
            block: Vec::new(),
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
        if self.count.is_multiple_of(SEG_BLOCK as u64) {
            self.flush_block()?;
            varint::write_u128(&mut self.block, key);
        } else {
            varint::write_u128(&mut self.block, key - self.prev);
        }
        self.prev = key;
        self.count += 1;
        Ok(())
    }

    /// Sum and write the encoded block.
    fn flush_block(&mut self) -> Result<(), StoreError> {
        self.sum.update(&self.block);
        self.payload_len += self.block.len() as u64;
        self.out.write_all(&self.block)?;
        self.block.clear();
        Ok(())
    }

    /// Flush, patch the header with the final totals, and sync lengths.
    pub fn finish(mut self) -> Result<SegmentStats, StoreError> {
        self.flush_block()?;
        let mut file = self
            .out
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&SEG_MAGIC);
        header.push(self.width);
        header.extend_from_slice(&self.count.to_le_bytes());
        header.extend_from_slice(&self.payload_len.to_le_bytes());
        header.extend_from_slice(&self.sum.finish().to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.flush()?;
        Ok(SegmentStats {
            keys: self.count,
            payload_bytes: self.payload_len,
        })
    }
}

/// Payload bytes fetched per read syscall: large enough that the per-key cost
/// is slice indexing, small enough to stay cache-resident.
const SEG_CHUNK: usize = 64 << 10;

/// Streaming reader over one segment: header validated at open, payload
/// decoded block-at-a-time with a running checksum that is verified once the
/// last block is out. Memory is one chunk + one block buffer, regardless of
/// segment size. The checksum runs over each fetched chunk in bulk — byte-at-
/// a-time hashing in the varint loop dominated the out-of-core merge's wall.
pub struct SegmentReader {
    input: File,
    width: u8,
    count: u64,
    payload_len: u64,
    declared_sum: u64,
    sum: Checksum,
    bytes_read: u64,
    keys_read: u64,
    prev: u128,
    block: Vec<u128>,
    chunk: Vec<u8>,
    chunk_pos: usize,
}

impl SegmentReader {
    /// Open and validate a segment header. The payload's declared length must
    /// account for the file exactly; content is validated as it streams.
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
        if width != 8 && width != 16 {
            return Err(StoreError::corrupt(format!(
                "segment key width must be 8 or 16, got {width}"
            )));
        }
        let count = u64::from_le_bytes(header[9..17].try_into().expect("8-byte slot"));
        let payload_len = u64::from_le_bytes(header[17..25].try_into().expect("8-byte slot"));
        let declared_sum = u64::from_le_bytes(header[25..33].try_into().expect("8-byte slot"));
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
        if count == 0 && payload_len != 0 {
            return Err(StoreError::corrupt("empty segment declares payload bytes"));
        }
        Ok(SegmentReader {
            input,
            width,
            count,
            payload_len,
            declared_sum,
            sum: Checksum::new(),
            bytes_read: 0,
            keys_read: 0,
            prev: 0,
            block: Vec::with_capacity(SEG_BLOCK),
            chunk: Vec::new(),
            chunk_pos: 0,
        })
    }

    /// Logical key width in bytes (8 or 16).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Serve the next payload byte from the chunk buffer, refilling (and
    /// bulk-hashing the refill) when it runs dry. The open-time file-length
    /// check guarantees every fetched byte is payload.
    #[inline]
    fn next_byte(&mut self) -> Result<u8, StoreError> {
        if self.bytes_read >= self.payload_len {
            return Err(StoreError::Truncated {
                what: "segment varint",
                need: self.bytes_read + 1,
                have: self.payload_len,
            });
        }
        if self.chunk_pos == self.chunk.len() {
            let want = (self.payload_len - self.bytes_read).min(SEG_CHUNK as u64) as usize;
            self.chunk.resize(want, 0);
            self.input.read_exact(&mut self.chunk)?;
            self.sum.update(&self.chunk);
            self.chunk_pos = 0;
        }
        let b = self.chunk[self.chunk_pos];
        self.chunk_pos += 1;
        self.bytes_read += 1;
        Ok(b)
    }

    /// Decode one varint. The 1–2 byte case (almost every delta in a dense
    /// sorted run) decodes straight off the chunk slice; everything else
    /// falls back to the byte loop. Chunk bytes are payload by construction,
    /// so the fast path needs no length accounting beyond the cursor bump.
    #[inline]
    fn read_varint(&mut self) -> Result<u128, StoreError> {
        if self.chunk.len() - self.chunk_pos >= 2 {
            let b0 = self.chunk[self.chunk_pos];
            if b0 < 0x80 {
                self.chunk_pos += 1;
                self.bytes_read += 1;
                return Ok(u128::from(b0));
            }
            let b1 = self.chunk[self.chunk_pos + 1];
            if b1 < 0x80 {
                self.chunk_pos += 2;
                self.bytes_read += 2;
                return Ok(u128::from(b0 & 0x7f) | (u128::from(b1) << 7));
            }
        }
        self.read_varint_slow()
    }

    fn read_varint_slow(&mut self) -> Result<u128, StoreError> {
        let mut v: u128 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.next_byte()?;
            if shift == 126 && byte > 3 {
                return Err(StoreError::corrupt("segment varint overflows u128"));
            }
            v |= u128::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 126 {
                return Err(StoreError::corrupt("segment varint longer than 19 bytes"));
            }
        }
    }

    /// Decode the next block of keys into the internal buffer and return it.
    /// An empty slice means the segment is exhausted — at that point the
    /// payload length and checksum have been verified. Errors are sticky in
    /// practice: callers stop at the first `Err`.
    pub fn next_block(&mut self) -> Result<&[u128], StoreError> {
        self.block.clear();
        if self.keys_read == self.count {
            if self.bytes_read != self.payload_len {
                return Err(StoreError::corrupt(format!(
                    "segment has {} payload bytes past the last key",
                    self.payload_len - self.bytes_read
                )));
            }
            if self.sum.finish() != self.declared_sum {
                return Err(StoreError::ChecksumMismatch { section: "segment" });
            }
            return Ok(&self.block);
        }
        let take = (self.count - self.keys_read).min(SEG_BLOCK as u64) as usize;
        let max_key = if self.width == 8 {
            u128::from(u64::MAX)
        } else {
            u128::MAX
        };
        for k in 0..take {
            let v = self.read_varint()?;
            let key = if k == 0 {
                // Block-leading absolute key; still must not run backwards.
                if self.keys_read > 0 && v < self.prev {
                    return Err(StoreError::corrupt("segment block leader out of order"));
                }
                v
            } else {
                self.prev
                    .checked_add(v)
                    .ok_or_else(|| StoreError::corrupt("segment delta overflows key space"))?
            };
            if key > max_key {
                return Err(StoreError::corrupt("segment key overflows declared width"));
            }
            self.prev = key;
            self.keys_read += 1;
            self.block.push(key);
        }
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
    fn roundtrip_with_duplicates_across_blocks() {
        let path = tmp("roundtrip");
        let mut keys: Vec<u128> = (0..1000u128).map(|i| i * 3).collect();
        keys.extend(std::iter::repeat_n(3000u128, 10)); // duplicates
        keys.sort_unstable();
        let stats = write_keys(&path, 8, &keys);
        assert_eq!(stats.keys, keys.len() as u64);
        assert!(stats.payload_bytes > 0);
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

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTASEGMENTFILE!....................").unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(StoreError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("missing-never-written");
        assert!(matches!(SegmentReader::open(&path), Err(StoreError::Io(_))));
    }
}
