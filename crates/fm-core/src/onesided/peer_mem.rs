//! Reading a same-host peer's memory: the one I/O of the one-sided pull
//! path (DESIGN.md §16, "Same-host pull").
//!
//! A pull is one `process_vm_readv` from the peer's address space
//! straight into the destination, one kernel copy, through
//! [`fm_sys::Process`] (so this crate keeps `#![forbid(unsafe_code)]`).
//! The peer is opened once (a pidfd) and every read checks afterwards
//! that it is still the process that was opened: a peer that exits
//! reads nothing, and a later process that reuses the pid is never read.
//! Whether this process may read the peer at all (same user, and
//! whatever the ptrace policy allows) is the kernel's decision on every
//! read; a refused open is remembered, not retried.

use fm_sys::Process;

/// The opened process of every peer read so far.
#[derive(Default)]
pub(super) struct PeerMem {
    /// By peer rank: the pid the process was opened for, and its handle
    /// (`None` where the open was refused).
    procs: Vec<Option<(u32, Option<Process>)>>,
}

impl PeerMem {
    /// Fill `out` from the memory of `peer` (process `pid`) at `addr`.
    /// False when the peer may not be read, has exited, or the read
    /// comes up short.
    pub(super) fn read(&mut self, peer: usize, pid: u32, addr: u64, out: &mut [u8]) -> bool {
        if self.procs.len() <= peer {
            self.procs.resize_with(peer + 1, || None);
        }
        let entry = &mut self.procs[peer];
        if entry.as_ref().is_none_or(|(opened, _)| *opened != pid) {
            *entry = Some((pid, Process::open(pid).ok()));
        }
        match entry {
            Some((_, Some(process))) => process.read(addr, out).is_ok(),
            _ => false,
        }
    }
}
