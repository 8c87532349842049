//! Reading a same-host peer's memory: the one I/O of the one-sided pull
//! path (DESIGN.md §16, "Same-host pull").
//!
//! `/proc/<pid>/mem` is a file over the peer's address space, so a pull
//! is one positioned read of it, in safe Rust. The file is opened once
//! per peer and stays bound to the address space it was opened on: a
//! peer that exits leaves it reading nothing, and a later process that
//! reuses the pid is never read through it. Whether this process may
//! read the peer at all (same user, and whatever the ptrace policy
//! allows) is the kernel's decision at open; a refused open is
//! remembered, not retried.

use std::fs::File;

/// The open `/proc/<pid>/mem` of every peer read so far.
#[derive(Default)]
pub(super) struct PeerMem {
    /// By peer rank: the pid the file was opened for, and the file
    /// (`None` where the open was refused).
    files: Vec<Option<(u32, Option<File>)>>,
}

impl PeerMem {
    /// Fill `out` from the memory of `peer` (process `pid`) at `addr`.
    /// False when the peer may not be read or the read comes up short.
    pub(super) fn read(&mut self, peer: usize, pid: u32, addr: u64, out: &mut [u8]) -> bool {
        if self.files.len() <= peer {
            self.files.resize_with(peer + 1, || None);
        }
        let entry = &mut self.files[peer];
        if entry.as_ref().is_none_or(|(opened, _)| *opened != pid) {
            *entry = Some((pid, open(pid)));
        }
        match entry {
            Some((_, Some(file))) => read_at(file, addr, out),
            _ => false,
        }
    }
}

#[cfg(target_os = "linux")]
fn open(pid: u32) -> Option<File> {
    File::open(format!("/proc/{pid}/mem")).ok()
}

#[cfg(target_os = "linux")]
fn read_at(file: &File, addr: u64, out: &mut [u8]) -> bool {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(out, addr).is_ok()
}

#[cfg(not(target_os = "linux"))]
fn open(_pid: u32) -> Option<File> {
    None
}

#[cfg(not(target_os = "linux"))]
fn read_at(_file: &File, _addr: u64, _out: &mut [u8]) -> bool {
    false
}
