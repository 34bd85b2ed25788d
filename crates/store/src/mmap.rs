//! Read-only byte access to a snapshot file: `mmap` where available, an
//! owned buffer everywhere else.
//!
//! The whole point of the snapshot format is that opening one costs page
//! tables, not copies — N concurrent pipeline processes mapping the same
//! snapshot share one page-cache copy of the columns. The container ships no
//! `libc` crate, so the mapping goes through the two C symbols `std` already
//! links. Any mapping failure (exotic filesystem, non-unix target) degrades
//! to `std::fs::read`: same bytes, same API, just resident.
//!
//! Either way the bytes start at an 8-aligned address (a mapping is
//! page-aligned; the owned buffer places its copy so), which is what lets
//! `words` borrow a file's little-endian `u64` arrays in place and
//! [`Words`] hand one out as a value that keeps the bytes alive.

use std::fs::File;
use std::io;
use std::ops::{Deref, Range};
use std::path::Path;
use std::sync::Arc;

use crate::err::StoreError;

/// Immutable bytes backing a snapshot: a private read-only file mapping or
/// an owned buffer.
pub(crate) struct Bytes {
    inner: Inner,
}

enum Inner {
    /// The bytes are `buf[start..]`, `start` chosen to make them 8-aligned.
    Owned { buf: Vec<u8>, start: usize },
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
}

// SAFETY: `Inner::Owned` holds a `Vec<u8>`, `Send` on its own. `Inner::Mapped`
// is a pointer to a `PROT_READ | MAP_PRIVATE` mapping this value alone owns:
// nothing in the process writes through it, so it may be read, and unmapped
// on drop, from whichever thread holds the value.
unsafe impl Send for Bytes {}
// SAFETY: as above, and `&Bytes` only hands out `&[u8]` over memory that is
// never written through this mapping, so any number of threads may share it.
unsafe impl Sync for Bytes {}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub(crate) const PROT_READ: i32 = 1;
    pub(crate) const MAP_PRIVATE: i32 = 2;
    pub(crate) const MADV_DONTNEED: i32 = 4;

    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub(crate) fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

impl Bytes {
    /// An owned copy of `bytes` (tests, in-memory round-trips, the fallback
    /// when a file cannot be mapped), placed at an 8-aligned address — a
    /// `Vec<u8>` promises only 1 — so it opens exactly as a mapping would.
    pub(crate) fn copy_from(bytes: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(bytes.len() + 7);
        // the allocation does not move: nothing below outgrows the capacity
        let start = (8 - buf.as_ptr() as usize % 8) % 8;
        buf.resize(start, 0);
        buf.extend_from_slice(bytes);
        Bytes {
            inner: Inner::Owned { buf, start },
        }
    }

    /// Map `path` read-only; fall back to reading it into memory if the
    /// mapping cannot be established.
    pub(crate) fn map_file(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file larger than usize"))?;
        if len == 0 {
            return Ok(Bytes::copy_from(&[]));
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: a fresh mapping at an address of the kernel's choosing
            // (`addr` null, no `MAP_FIXED`), so no existing memory is touched.
            // `file` is open for the call and `len` is its non-zero length as
            // just reported by its metadata; the mapping is read-only and
            // private. Failure is `MAP_FAILED`, checked below before the
            // pointer is used.
            let ptr = unsafe {
                sys::mmap(
                    core::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                return Ok(Bytes {
                    inner: Inner::Mapped { ptr, len },
                });
            }
        }
        Ok(Bytes::copy_from(&std::fs::read(path)?))
    }

    /// Let the whole pages inside `range` leave the process's resident set:
    /// a hint for bytes the caller holds a copy of and will not read here
    /// again. The mapping is private and never written, so a later read
    /// faults a page back in from the file, as the first read did; owned
    /// bytes stay as they are.
    pub(crate) fn release(&self, range: Range<usize>) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            // 4 KiB pages: on a host with larger ones an unaligned start
            // fails the call, and the pages merely stay resident.
            const PAGE: usize = 4096;
            let start = range.start.next_multiple_of(PAGE);
            let end = range.end.min(len) / PAGE * PAGE;
            if start < end {
                // SAFETY: `start..end` lies inside the `len` bytes mapped at
                // `ptr` (`end <= len`) and starts on a page boundary of the
                // page-aligned mapping, as `madvise` requires. On a private
                // mapping nothing wrote to, `MADV_DONTNEED` drops page-table
                // entries only: the mapping stays, and every `&[u8]`
                // borrowed from `self` reads the file's bytes again on its
                // next access. A failure only leaves the pages resident.
                unsafe {
                    sys::madvise(
                        ptr.cast::<u8>().add(start).cast(),
                        end - start,
                        sys::MADV_DONTNEED,
                    );
                }
            }
        }
    }

    /// Whether the bytes are an actual file mapping (as opposed to the
    /// owned-buffer fallback). Diagnostics only.
    pub(crate) fn is_mapped(&self) -> bool {
        match self.inner {
            Inner::Owned { .. } => false,
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.inner {
            Inner::Owned { buf, start } => &buf[*start..],
            #[cfg(unix)]
            // SAFETY: `ptr` came from a successful `mmap` of exactly `len`
            // bytes (the only place `Mapped` is built), is page-aligned and
            // non-null, and stays mapped until `Drop`, which outlives the
            // borrow returned here. `len` fits `isize` because the file fit
            // the address space. Nothing in this process writes to the
            // mapping. What it cannot rule out is another process truncating
            // the file, after which reads past the new end fault (`SIGBUS`):
            // keeping the file whole while mapped is the caller's obligation,
            // stated on `Snapshot::open`.
            Inner::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            // SAFETY: `ptr`/`len` are exactly what the successful `mmap`
            // returned and was asked for, unmapped once (this is `Drop`), and
            // every `&[u8]` borrowed from `self` has ended. A failure is
            // ignored: there is nothing to do about it in a destructor.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

/// `bytes` as the little-endian `u64` words it holds, borrowed in place: the
/// one cast between the file's bytes and the rows `PageRows` reads. An
/// address that is not 8-aligned or a length that is not whole words is
/// [`StoreError::Corrupt`]; a big-endian host, which would read every word
/// byte-swapped, is [`StoreError::Unsupported`].
pub(crate) fn words(bytes: &[u8]) -> Result<&[u64], StoreError> {
    if cfg!(target_endian = "big") {
        return Err(StoreError::Unsupported {
            what: "little-endian row words on a big-endian host",
        });
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(8) || !bytes.len().is_multiple_of(8) {
        return Err(StoreError::corrupt(format!(
            "{} bytes at address {:p} are not 8-aligned whole words",
            bytes.len(),
            bytes.as_ptr()
        )));
    }
    // SAFETY: the pointer is 8-aligned (the alignment of `u64`, checked
    // above) and non-null, and `len / 8` words cover exactly the `len` bytes
    // of `bytes`, which are initialised and live for the returned borrow.
    // Every bit pattern is a valid `u64`, and the host is little-endian, so
    // each word reads as the file wrote it. The shared borrow of `bytes`
    // forbids writes through it while the words are borrowed; the mapping a
    // snapshot's bytes usually are is never written by this process.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) })
}

/// A run of `words` that owns a share of its `Bytes`: cheap to clone,
/// `Send + Sync`, and it keeps the mapping alive after the snapshot that
/// handed it out is dropped. Derefs to `&[u64]`.
#[derive(Clone)]
pub struct Words {
    bytes: Arc<Bytes>,
    range: Range<usize>,
}

impl Words {
    /// The words of `bytes[range]`, checked as [`words`] checks them.
    pub(crate) fn new(bytes: Arc<Bytes>, range: Range<usize>) -> Result<Self, StoreError> {
        let run = bytes
            .get(range.clone())
            .ok_or_else(|| StoreError::corrupt("word range outside the bytes"))?;
        words(run)?;
        Ok(Words { bytes, range })
    }
}

impl Deref for Words {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        words(&self.bytes[self.range.clone()]).expect("checked by Words::new")
    }
}

impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mapped = self.bytes.is_mapped();
        write!(
            f,
            "Words({} at {:?}, mapped: {mapped})",
            self.len(),
            self.range
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_a_real_file_and_reads_it_back() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("store-mmap-test-{}", std::process::id()));
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let bytes = Bytes::map_file(&path).unwrap();
        assert_eq!(&*bytes, &payload[..]);
        drop(bytes);
        std::fs::remove_file(&path).ok();
    }

    /// Released pages read back as the file's bytes, whole or cut at any
    /// offset, and releasing owned bytes changes nothing.
    #[test]
    fn released_pages_read_back_from_the_file() {
        let path = std::env::temp_dir().join(format!("store-mmap-release-{}", std::process::id()));
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapped = Bytes::map_file(&path).unwrap();
        let owned = Bytes::copy_from(&payload);
        for bytes in [&mapped, &owned] {
            assert_eq!(&**bytes, &payload[..]);
            for range in [0..100_000, 5..9000, 4096..8192, 99_000..200_000] {
                bytes.release(range);
                assert_eq!(&**bytes, &payload[..]);
            }
        }
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn owned_copies_are_8_aligned_and_words_are_checked() {
        let image: Vec<u8> = (0..41u8).collect();
        for skew in 0..8 {
            let bytes = Bytes::copy_from(&image[skew..]);
            assert_eq!(&*bytes, &image[skew..]);
            assert_eq!(bytes.as_ptr() as usize % 8, 0);
        }
        let bytes = Arc::new(Bytes::copy_from(&image));
        let first = u64::from_le_bytes(image[8..16].try_into().unwrap());
        assert_eq!(Words::new(Arc::clone(&bytes), 8..24).unwrap()[0], first);
        assert_eq!(words(&bytes[..0]).unwrap(), &[] as &[u64]);
        for bad in [1..9, 8..20, 40..48] {
            assert!(
                Words::new(Arc::clone(&bytes), bad.clone()).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn empty_file_is_empty_bytes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("store-mmap-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let bytes = Bytes::map_file(&path).unwrap();
        assert!(bytes.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
