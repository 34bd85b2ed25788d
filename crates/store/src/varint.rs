//! LEB128 varints and zigzag signed framing: the counts, timestamps and
//! window of a snapshot's `META`, the counts heading its name tables, and the
//! delta-coded keys of a spill segment (which decodes its own blocks).
//!
//! Small values take one byte and any `u64` fits. Signed values (timestamps,
//! window bounds) go through zigzag so small negatives stay small.

use crate::err::StoreError;

/// Append `v` as LEB128.
#[inline]
pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` zigzag-encoded.
#[inline]
pub(crate) fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Decode one LEB128 value at `*pos`, advancing it. Truncation and
/// over-length encodings are typed errors, never panics.
pub(crate) fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(StoreError::Truncated {
                what: "varint",
                need: (*pos + 1) as u64,
                have: bytes.len() as u64,
            });
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(StoreError::corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Decode one zigzag value at `*pos`, advancing it.
#[inline]
pub(crate) fn read_i64(bytes: &[u8], pos: &mut usize) -> Result<i64, StoreError> {
    let z = read_u64(bytes, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Decode a varint expected to fit `u32` (dense vertex/author/page ids).
#[inline]
pub(crate) fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, StoreError> {
    let v = read_u64(bytes, pos)?;
    u32::try_from(v).map_err(|_| StoreError::corrupt(format!("value {v} overflows u32 id")))
}

/// Append `v` as LEB128 — the wide-key variant for 16-byte sorted-segment
/// keys ([`crate::segment`]); at most 19 bytes.
#[inline]
pub(crate) fn write_u128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64_boundaries() {
        let vals = [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &vals {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn roundtrip_i64_boundaries() {
        let vals = [0, -1, 1, i64::MIN, i64::MAX, -1234567890123, 1234567890123];
        let mut buf = Vec::new();
        for &v in &vals {
            write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_and_overlong_are_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(matches!(
            read_u64(&buf[..buf.len() - 1], &mut pos),
            Err(StoreError::Truncated { .. })
        ));
        // 11 continuation bytes can never be a valid u64.
        let bad = [0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_u64(&bad, &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
        // 10th byte with payload bits above bit 63 set.
        let bad = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(matches!(
            read_u64(&bad, &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn u32_overflow_is_typed() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        let mut pos = 0;
        assert!(matches!(
            read_u32(&buf, &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
