//! Memory other ranks on this host may write into, reached only through
//! ranged copies.
//!
//! A [`SharedMem`] is zeroed memory from the allocator, which only this
//! process reaches ([`SharedMem::zeroed`]), or a shared read-write
//! mapping of a new `memfd` ([`SharedMem::memfd`], whose descriptor
//! other processes can take and map) or of such a file taken from its
//! owner ([`SharedMem::of_file`]). Nothing is populated up front: a
//! mapped page costs memory once something touches it.
//!
//! Several ranks may hold one mapping at once and each copy into a part
//! of it, so no method hands out a slice of the whole: bytes go in and
//! out by [`SharedMem::write`] and [`SharedMem::read`], and a caller that
//! must lend a window to another routine (a gather send, a kernel read)
//! borrows that window alone, for the length of a closure. Two ranks
//! writing one byte at once race, and what the byte then holds is not
//! specified, as in any SHMEM program; they never touch anything outside
//! the mapping.

use std::fs::File;
use std::io;
use std::os::fd::FromRawFd;
use std::os::unix::io::AsRawFd;
use std::ptr::NonNull;

use crate::{errno, nr, syscall6};

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const MAP_SHARED: usize = 1;
/// `memfd_create`'s close-on-exec flag.
const MFD_CLOEXEC: usize = 1;

/// Memory reached only through ranged copies (module docs). Freed or
/// unmapped on drop; a `memfd`'s pages live on while any process maps
/// the file.
#[derive(Debug)]
pub struct SharedMem {
    ptr: NonNull<u8>,
    len: usize,
    /// The mapped file; `None` for allocator memory.
    file: Option<File>,
}

// SAFETY: `ptr` and `len` never change after construction, and every
// access to the bytes is a bounds-checked copy or a window borrowed for
// one closure call; the memory stays valid until drop, which needs the
// handle itself. `file` is a `File`, which is `Send` and `Sync`.
// Concurrent copies into one byte race the way shared memory between
// processes does: what the byte then holds is unspecified, which is the
// contract the module docs state and SHMEM programs avoid.
unsafe impl Send for SharedMem {}
unsafe impl Sync for SharedMem {}

impl SharedMem {
    /// `len` zeroed bytes from the allocator, which only this process
    /// reaches.
    pub fn zeroed(len: usize) -> SharedMem {
        let bytes = Box::into_raw(vec![0u8; len].into_boxed_slice());
        SharedMem {
            ptr: NonNull::new(bytes.cast()).expect("a box is never null"),
            len,
            file: None,
        }
    }

    /// `len` bytes of a new `memfd`, mapped shared: another process on
    /// this host may take its descriptor and map the same pages.
    pub fn memfd(len: usize) -> io::Result<SharedMem> {
        let name = b"fm-heap\0";
        // SAFETY: a NUL-terminated name the kernel only reads, and flags.
        let fd = errno(unsafe {
            syscall6(
                nr::MEMFD_CREATE,
                name.as_ptr() as usize,
                MFD_CLOEXEC,
                0,
                0,
                0,
                0,
            )
        })?;
        // SAFETY: a new descriptor nothing else in this process owns.
        let file = unsafe { File::from_raw_fd(fd as i32) };
        file.set_len(len as u64)?;
        Self::map(len, file)
    }

    /// Map the first `len` bytes of `file`, shared: a `memfd` another
    /// process made. Fails if the file is shorter.
    pub fn of_file(file: File, len: usize) -> io::Result<SharedMem> {
        if file.metadata()?.len() < len as u64 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Self::map(len, file)
    }

    fn map(len: usize, file: File) -> io::Result<SharedMem> {
        let ptr = match len {
            0 => NonNull::dangling(),
            _ => {
                // SAFETY: a fresh mapping at an address the kernel picks
                // overlaps nothing this process already uses.
                let addr = errno(unsafe {
                    syscall6(
                        crate::SYS_MMAP,
                        0,
                        len,
                        PROT_READ | PROT_WRITE,
                        MAP_SHARED,
                        file.as_raw_fd() as usize,
                        0,
                    )
                })?;
                NonNull::new(addr as *mut u8).expect("mmap returned a mapping at 0")
            }
        };
        Ok(SharedMem {
            ptr,
            len,
            file: Some(file),
        })
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `memfd` behind the mapping; `None` for allocator memory.
    pub fn file(&self) -> Option<&File> {
        self.file.as_ref()
    }

    /// The start of `offset..offset + len`, checked against the mapping.
    fn at(&self, offset: usize, len: usize) -> *mut u8 {
        let end = offset.checked_add(len);
        assert!(
            end.is_some_and(|end| end <= self.len),
            "{len} bytes at {offset} run past a {}-byte mapping",
            self.len
        );
        // SAFETY: `offset + len <= self.len`, inside the mapping.
        unsafe { self.ptr.as_ptr().add(offset) }
    }

    /// Copy `data` into the mapping at `offset`.
    ///
    /// # Panics
    /// If the range runs past the mapping.
    pub fn write(&self, offset: usize, data: &[u8]) {
        let to = self.at(offset, data.len());
        // SAFETY: `to` has `data.len()` mapped bytes, and `data` is a
        // borrow of this process's memory, not of the mapping's window.
        unsafe { std::ptr::copy(data.as_ptr(), to, data.len()) }
    }

    /// Copy the mapping's bytes at `offset` into `out`.
    ///
    /// # Panics
    /// If the range runs past the mapping.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        let from = self.at(offset, out.len());
        // SAFETY: `from` has `out.len()` mapped bytes; `out` is writable.
        unsafe { std::ptr::copy(from, out.as_mut_ptr(), out.len()) }
    }

    /// Lend `f` the window `offset..offset + len`, read-only.
    ///
    /// # Panics
    /// If the range runs past the mapping.
    pub fn with_range<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        // SAFETY: the window is mapped, and lives as long as `&self`.
        f(unsafe { std::slice::from_raw_parts(self.at(offset, len), len) })
    }

    /// Lend `f` the window `offset..offset + len` to fill. The caller
    /// owns that window for the call: no other copy lands in it.
    ///
    /// # Panics
    /// If the range runs past the mapping.
    pub fn with_range_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        // SAFETY: the window is mapped and lives as long as `&self`; its
        // writers are the caller's alone for the call (method docs).
        f(unsafe { std::slice::from_raw_parts_mut(self.at(offset, len), len) })
    }
}

impl Drop for SharedMem {
    fn drop(&mut self) {
        if self.file.is_none() {
            let bytes = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
            // SAFETY: `zeroed` leaked exactly this box, and nothing
            // reaches it after drop.
            drop(unsafe { Box::from_raw(bytes) });
        } else if self.len > 0 {
            // SAFETY: exactly the region `map` got back, owned by this
            // handle; nothing reaches it after drop.
            unsafe {
                syscall6(
                    crate::SYS_MUNMAP,
                    self.ptr.as_ptr() as usize,
                    self.len,
                    0,
                    0,
                    0,
                    0,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Process;

    #[test]
    fn two_mappings_of_one_memfd_share_pages() {
        let a = SharedMem::memfd(8192).expect("memfd");
        let file = a.file().expect("a memfd has a file").try_clone().unwrap();
        let b = SharedMem::of_file(file, 8192).expect("map it again");
        a.write(4000, b"across a page");
        let mut got = [0u8; 13];
        b.read(4000, &mut got);
        assert_eq!(&got, b"across a page");
        b.with_range_mut(100, 4, |w| w.copy_from_slice(b"back"));
        a.with_range(100, 4, |r| assert_eq!(r, b"back"));
    }

    #[test]
    fn a_descriptor_taken_through_the_pidfd_maps_the_same_pages() {
        let a = SharedMem::memfd(4096).expect("memfd");
        let me = Process::open(std::process::id()).expect("a process may open itself");
        let fd = a.file().unwrap().as_raw_fd();
        let b = SharedMem::of_file(me.take_fd(fd).expect("take our own fd"), 4096).unwrap();
        b.write(0, b"taken");
        let mut got = [0u8; 5];
        a.read(0, &mut got);
        assert_eq!(&got, b"taken");
        assert!(
            SharedMem::of_file(me.take_fd(fd).unwrap(), 8192).is_err(),
            "short file"
        );
    }

    #[test]
    fn zeroed_and_empty_memory() {
        let m = SharedMem::zeroed(4096);
        assert!(m.file().is_none());
        let mut got = [1u8; 16];
        m.read(4080, &mut got);
        assert_eq!(got, [0u8; 16], "fresh memory is zero");
        m.write(4000, b"kept");
        m.with_range(4000, 4, |r| assert_eq!(r, b"kept"));
        let empty = SharedMem::zeroed(0);
        assert!(empty.is_empty());
        empty.read(0, &mut []);
        assert!(SharedMem::memfd(0).expect("empty memfd").is_empty());
    }

    #[test]
    #[should_panic(expected = "run past a 4096-byte mapping")]
    fn a_copy_past_the_end_panics() {
        SharedMem::zeroed(4096).write(4090, &[0u8; 8]);
    }
}
