//! Read-only byte access to a snapshot file: `mmap` where available, an
//! owned buffer everywhere else.
//!
//! The whole point of the snapshot format is that opening one costs page
//! tables, not copies — N concurrent pipeline processes mapping the same
//! snapshot share one page-cache copy of the columns. The container ships no
//! `libc` crate, so the mapping goes through the two C symbols `std` already
//! links. Any mapping failure (exotic filesystem, non-unix target) degrades
//! to `std::fs::read`: same bytes, same API, just resident.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// Immutable bytes backing a snapshot: a private read-only file mapping or
/// an owned buffer.
pub struct Bytes {
    inner: Inner,
}

enum Inner {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
}

// SAFETY: `Inner::Owned` is a `Vec<u8>`, `Send` on its own. `Inner::Mapped`
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

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Bytes {
    /// Wrap an owned buffer (tests, in-memory round-trips).
    pub fn from_vec(v: Vec<u8>) -> Self {
        Bytes {
            inner: Inner::Owned(v),
        }
    }

    /// Map `path` read-only; fall back to reading it into memory if the
    /// mapping cannot be established.
    pub fn map_file(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file larger than usize"))?;
        if len == 0 {
            return Ok(Bytes::from_vec(Vec::new()));
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
        Ok(Bytes::from_vec(std::fs::read(path)?))
    }

    /// Whether the bytes are an actual file mapping (as opposed to the
    /// owned-buffer fallback). Diagnostics only.
    pub fn is_mapped(&self) -> bool {
        match self.inner {
            Inner::Owned(_) => false,
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.inner {
            Inner::Owned(v) => v,
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
