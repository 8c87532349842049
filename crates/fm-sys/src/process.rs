//! Reading another process's memory in one kernel copy.
//!
//! `process_vm_readv` copies straight from the other address space into
//! ours, but it names the process by a bare pid, and a pid is recycled
//! once its process has been reaped. A [`Process`] therefore also holds
//! a pidfd, opened while the pid still named the process we mean. The
//! pidfd follows that process, not the number: it polls readable once
//! the process has exited. So after every read [`Process::read`] polls
//! it with a zero timeout. A process still alive *after* the read was
//! alive throughout it, and its pid cannot have named anyone else; a
//! process that has exited fails the read, whoever holds its pid now.
//!
//! Whether this process may read the other at all is the kernel's
//! decision, made on every read by its ptrace-attach check (same user,
//! and whatever the ptrace policy allows: Yama `ptrace_scope=1` refuses
//! a sibling). A process may always read itself.

use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

use crate::{errno, nr, syscall6};

/// `ESRCH`: the process has gone.
const ESRCH: i32 = 3;
/// `EINTR`: a signal arrived during the call.
const EINTR: i32 = 4;
/// `poll(2)`'s readable event, which a pidfd raises at exit.
const POLLIN: i16 = 1;

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: usize,
    len: usize,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Another process (or this one), opened for reading its memory. The
/// pidfd closes on drop.
#[derive(Debug)]
pub struct Process {
    pid: u32,
    pidfd: OwnedFd,
}

impl Process {
    /// Open process `pid` (`pidfd_open`). Fails if no such process
    /// exists, or on a kernel older than 5.3 (`ENOSYS`).
    pub fn open(pid: u32) -> io::Result<Process> {
        // SAFETY: pidfd_open takes a pid and flags (0) by value and
        // touches no memory of ours.
        let fd = errno(unsafe { syscall6(nr::PIDFD_OPEN, pid as usize, 0, 0, 0, 0, 0) })?;
        // SAFETY: a successful pidfd_open returns a new descriptor that
        // nothing else in this process owns.
        let pidfd = unsafe { OwnedFd::from_raw_fd(fd as i32) };
        Ok(Process { pid, pidfd })
    }

    /// Fill `out` from the process's memory at `addr`, in one
    /// `process_vm_readv`. An error if the kernel refuses the read, if
    /// it comes up short, or if the process has exited by the time it
    /// returns. Nothing outside `out` is written, and nothing allocates.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> io::Result<()> {
        let local = IoVec {
            base: out.as_mut_ptr() as usize,
            len: out.len(),
        };
        let remote = IoVec {
            base: addr as usize,
            len: out.len(),
        };
        // SAFETY: the kernel writes at most `local.len` bytes at
        // `local.base`, which is `out`, borrowed mutably for the call;
        // both iovecs live until it returns. `remote` names the other
        // process's memory, which the kernel checks and only reads.
        let n = errno(unsafe {
            syscall6(
                nr::PROCESS_VM_READV,
                self.pid as usize,
                &local as *const IoVec as usize,
                1,
                &remote as *const IoVec as usize,
                1,
                0,
            )
        })?;
        if n != out.len() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if self.exited()? {
            return Err(io::Error::from_raw_os_error(ESRCH));
        }
        Ok(())
    }

    /// A duplicate of the process's descriptor `fd` (`pidfd_getfd`):
    /// how a peer's `memfd` crosses into this process. The kernel makes
    /// the ptrace-attach check `process_vm_readv` makes, and the pidfd
    /// names the process opened, whoever holds its pid by now.
    pub fn take_fd(&self, fd: i32) -> io::Result<File> {
        // SAFETY: pidfd_getfd takes two descriptors and flags (0) by
        // value and touches no memory of ours.
        let got = errno(unsafe {
            syscall6(
                nr::PIDFD_GETFD,
                self.pidfd.as_raw_fd() as usize,
                fd as usize,
                0,
                0,
                0,
                0,
            )
        })?;
        // SAFETY: a new descriptor nothing else in this process owns.
        Ok(unsafe { File::from_raw_fd(got as i32) })
    }

    /// Whether the process has exited: its pidfd polls readable.
    fn exited(&self) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: self.pidfd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let now = Timespec { sec: 0, nsec: 0 };
        loop {
            // SAFETY: one `pollfd` the kernel may write `revents` of, a
            // zero timeout it only reads, no signal mask; all three live
            // until the call returns.
            let ret = unsafe {
                syscall6(
                    nr::PPOLL,
                    &mut fd as *mut PollFd as usize,
                    1,
                    &now as *const Timespec as usize,
                    0,
                    0,
                    0,
                )
            };
            match errno(ret) {
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                ready => return ready.map(|n| n != 0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me() -> Process {
        Process::open(std::process::id()).expect("a process may open itself")
    }

    /// A child that has exited and been reaped, with its pidfd opened
    /// while it was still there.
    fn reaped_child() -> Process {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn `true`");
        let process = Process::open(child.id()).expect("open the child before it is reaped");
        child.wait().expect("reap the child");
        process
    }

    #[test]
    fn reading_this_process_is_bit_exact() {
        let src: Vec<u8> = (0..256 * 1024u32)
            .map(|i| (i * 7 + i / 251) as u8)
            .collect();
        let mut out = vec![0u8; src.len()];
        me().read(src.as_ptr() as u64, &mut out).expect("read self");
        assert_eq!(out, src);
    }

    #[test]
    fn an_unmapped_address_is_an_error_and_writes_nothing_outside_out() {
        let mut buf = [0xAAu8; 64];
        me().read(8, &mut buf[16..48])
            .expect_err("address 8 is unmapped");
        assert!(buf[..16].iter().chain(&buf[48..]).all(|&b| b == 0xAA));
    }

    #[test]
    fn a_pid_above_pid_max_fails_at_open() {
        let pid_max: u32 = std::fs::read_to_string("/proc/sys/kernel/pid_max")
            .expect("read pid_max")
            .trim()
            .parse()
            .expect("pid_max is a number");
        Process::open(pid_max + 1).expect_err("no process has this pid");
    }

    #[test]
    fn a_reaped_child_fails() {
        let child = reaped_child();
        let src = [5u8; 32];
        let mut out = [0u8; 32];
        child
            .read(src.as_ptr() as u64, &mut out)
            .expect_err("the child is gone");
    }

    /// The identity rule, without waiting for a pid to be recycled: the
    /// pid names a live process that can be read (this one), but the
    /// pidfd is of a process that has exited. Only the poll after the
    /// read can tell, and the read must fail.
    #[test]
    fn a_pid_that_no_longer_names_the_opened_process_is_refused() {
        let exited = reaped_child();
        let stranger = Process {
            pid: std::process::id(),
            pidfd: exited.pidfd,
        };
        let src = [9u8; 32];
        let mut out = [0u8; 32];
        let err = stranger
            .read(src.as_ptr() as u64, &mut out)
            .expect_err("the opened process has exited");
        assert_eq!(err.raw_os_error(), Some(ESRCH));
    }
}
