//! File-backed shared memory mappings, without a `libc` dependency.
//!
//! The workspace deliberately takes no external crates, so the two
//! syscalls a shared-memory transport cannot live without — `mmap` and
//! `munmap` — are issued directly via `core::arch::asm!`. Everything
//! else (creating the file under `/dev/shm`, sizing it, unlinking it)
//! goes through `std::fs`.
//!
//! The wrappers are deliberately minimal: always `PROT_READ |
//! PROT_WRITE`, always `MAP_SHARED | MAP_POPULATE`, always offset 0 —
//! exactly the one shape the segment layer needs. Populating at map time
//! matters to the rings: a consumer polls the slot it is waiting for
//! *before* the producer has written it, and on a page nobody has touched
//! yet the two would take the page's first fault against each other, one
//! slot after another, all through the ring's first lap. A [`Mapping`] owns its region and
//! unmaps on drop; the backing file's lifetime is independent (Linux
//! keeps the pages alive while any mapping exists, even after the name
//! is unlinked — which is what makes last-one-out cleanup safe).

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const MAP_SHARED: usize = 1;
/// Fault the whole mapping in (for a fresh tmpfs file: allocate its zero
/// pages) inside the `mmap` call. Same value on x86_64 and aarch64.
const MAP_POPULATE: usize = 0x8000;

#[cfg(target_arch = "x86_64")]
mod sys {
    pub const SYS_MMAP: usize = 9;
    pub const SYS_MUNMAP: usize = 11;

    /// Six-argument Linux syscall on x86_64.
    ///
    /// # Safety
    /// The caller vouches for the syscall number and arguments.
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(target_arch = "aarch64")]
mod sys {
    pub const SYS_MMAP: usize = 222;
    pub const SYS_MUNMAP: usize = 215;

    /// Six-argument Linux syscall on aarch64.
    ///
    /// # Safety
    /// The caller vouches for the syscall number and arguments.
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!(
    "fm-shm issues mmap/munmap via raw syscalls and only knows the \
     x86_64 and aarch64 Linux ABIs; add the numbers for this target"
);

/// A `MAP_SHARED`, read-write mapping of the front of a file. Unmapped
/// on drop.
#[derive(Debug)]
pub struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// A Mapping is a dumb region handle; all concurrency control lives in
// the atomics the segment layer places inside it. Moving the handle
// between threads is fine.
unsafe impl Send for Mapping {}

impl Mapping {
    /// Map the first `len` bytes of `file` shared and writable.
    pub fn of_file(file: &File, len: usize) -> io::Result<Mapping> {
        assert!(len > 0, "cannot map zero bytes");
        let fd = file.as_raw_fd();
        let ret = unsafe {
            sys::syscall6(
                sys::SYS_MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd as usize,
                0,
            )
        };
        // On error the kernel returns -errno in the usual [-4095, -1]
        // window; anything else is the mapped address.
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(Mapping {
            ptr: ret as *mut u8,
            len,
        })
    }

    /// Base address of the region.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty (never true: construction rejects 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe {
            sys::syscall6(sys::SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Seek, SeekFrom, Write};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_file(len: u64) -> (std::path::PathBuf, File) {
        // Tests run on parallel threads: a process-wide counter, not a
        // clock, keeps their names apart.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "fm-shm-mem-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create scratch file");
        file.set_len(len).expect("size scratch file");
        (path, file)
    }

    #[test]
    fn mapping_reflects_file_writes_both_ways() {
        let (path, mut file) = scratch_file(4096);
        let map = Mapping::of_file(&file, 4096).expect("map");
        assert_eq!(map.len(), 4096);
        assert!(!map.is_empty());

        // Write through the mapping, read through the file.
        unsafe {
            std::ptr::copy_nonoverlapping(b"ring".as_ptr(), map.as_ptr(), 4);
        }
        let mut back = [0u8; 4];
        file.seek(SeekFrom::Start(0)).unwrap();
        file.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ring");

        // Write through the file, read through the mapping.
        file.seek(SeekFrom::Start(8)).unwrap();
        file.write_all(b"bell").unwrap();
        let mut seen = [0u8; 4];
        unsafe {
            std::ptr::copy_nonoverlapping(map.as_ptr().add(8), seen.as_mut_ptr(), 4);
        }
        assert_eq!(&seen, b"bell");

        drop(map);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn two_mappings_of_one_file_share_pages() {
        let (path, file) = scratch_file(4096);
        let a = Mapping::of_file(&file, 4096).expect("map a");
        let b = Mapping::of_file(&file, 4096).expect("map b");
        unsafe {
            a.as_ptr().add(100).write_volatile(0xEE);
            assert_eq!(b.as_ptr().add(100).read_volatile(), 0xEE);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mapping_bad_fd_is_an_error_not_a_crash() {
        let (path, file) = scratch_file(0);
        // Zero-length file: mapping a page past EOF is legal to create on
        // Linux, so test the error path with a closed fd instead.
        drop(file);
        let file = std::fs::File::open(&path).expect("reopen read-only");
        // Read-only fd + PROT_WRITE + MAP_SHARED must fail with EACCES.
        let err = Mapping::of_file(&file, 4096).expect_err("read-only fd");
        assert_eq!(err.raw_os_error(), Some(13), "expected EACCES: {err}");
        std::fs::remove_file(path).unwrap();
    }
}
