//! The Linux syscalls the Fast Messages stack issues itself, without a
//! `libc` dependency.
//!
//! The workspace takes no external crates, so the few syscalls `std` has
//! no wrapper for are issued here through `core::arch::asm!` — this crate
//! holds the workspace's only `asm!`. Two layers use it:
//!
//! * `fm-shm` maps its segments with [`syscall6`] ([`SYS_MMAP`] /
//!   [`SYS_MUNMAP`], the result read by [`errno`]);
//! * `fm-core`'s one-sided same-host pull reads a peer's memory through
//!   [`Process`], a safe handle that pairs a pidfd with
//!   `process_vm_readv`, so `fm-core` itself keeps
//!   `#![forbid(unsafe_code)]`;
//! * a one-sided arena lives in a [`SharedMem`]: memory reached only
//!   through ranged copies. A `shmem-fm` heap a PE in another process
//!   reaches is one over a `memfd`, which that PE takes with
//!   [`Process::take_fd`] (`pidfd_getfd`) and maps.
//!
//! Only the x86_64 and aarch64 Linux ABIs are known; any other target is
//! a compile error, not a wrong syscall number.

#![warn(missing_docs)]

use std::io;

mod process;
mod shared_mem;

pub use process::Process;
pub use shared_mem::SharedMem;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const PPOLL: usize = 271;
    pub const PROCESS_VM_READV: usize = 310;
    pub const PIDFD_OPEN: usize = 434;
    pub const PIDFD_GETFD: usize = 438;
    pub const MEMFD_CREATE: usize = 319;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const PPOLL: usize = 73;
    pub const PROCESS_VM_READV: usize = 270;
    pub const PIDFD_OPEN: usize = 434;
    pub const PIDFD_GETFD: usize = 438;
    pub const MEMFD_CREATE: usize = 279;
}

/// `mmap(2)`'s number on this target.
pub const SYS_MMAP: usize = nr::MMAP;
/// `munmap(2)`'s number on this target.
pub const SYS_MUNMAP: usize = nr::MUNMAP;

/// A raw syscall's return as a result: the kernel returns `-errno` in
/// the `[-4095, -1]` window, and anything else is the call's value.
pub fn errno(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Six-argument Linux syscall on x86_64.
///
/// # Safety
/// The caller vouches for the syscall number and arguments.
#[cfg(target_arch = "x86_64")]
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

/// Six-argument Linux syscall on aarch64.
///
/// # Safety
/// The caller vouches for the syscall number and arguments.
#[cfg(target_arch = "aarch64")]
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

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "fm-sys issues raw Linux syscalls and only knows the x86_64 and \
     aarch64 ABIs; add the numbers for this target"
);
