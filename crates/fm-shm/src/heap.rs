//! Symmetric heaps every PE on this host can reach.
//!
//! `shmem-fm` backs each PE's heap with one shared [`SharedMem`]
//! ([`publish`]) and tells the PEs its engine knows share this host the
//! heap's [`HeapId`]. A peer reaches the heap with [`attach`]:
//!
//! * in this process, it takes the `Arc`'d memory [`publish`] left in a
//!   process-wide registry, so there is no second view of it and its
//!   pages are counted once;
//! * in another process, it takes the heap's `memfd` through the owner's
//!   pidfd (`pidfd_getfd`, the ptrace-attach check `process_vm_readv`
//!   makes), checks it names the file the id does, and maps it.
//!
//! Only a heap a PE in another process may reach needs the file: one
//! whose peers all run in this process is zeroed allocator memory, as a
//! one-sided arena only this process reaches is.
//!
//! Either way the peer holds its own reference: a heap outlives its
//! owner while a peer still copies into it. The registry holds only weak
//! references, so it keeps nothing alive.

use std::io;
use std::os::unix::fs::MetadataExt;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use fm_sys::{Process, SharedMem};

/// What names a published heap to a peer: the owner's descriptor
/// number, and the file's device and inode, which identify it in any
/// process. A heap with no file has descriptor −1, device 0 and a
/// number of this process's own as its inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapId {
    /// The owner's descriptor of the `memfd`, or −1.
    pub fd: i32,
    /// `st_dev` of the file, or 0.
    pub dev: u64,
    /// `st_ino` of the file, or the heap's number in this process.
    pub ino: u64,
}

/// Heaps published by this process.
static HEAPS: Mutex<Vec<(HeapId, Weak<SharedMem>)>> = Mutex::new(Vec::new());

/// A new zeroed `len`-byte heap for PEs of processes `pids` to
/// [`attach`] to, and its id: a `memfd` if any of them is another
/// process (and one can be made), else allocator memory.
pub fn publish(len: usize, mut pids: impl Iterator<Item = u32>) -> (Arc<SharedMem>, HeapId) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let me = std::process::id();
    let file = match pids.all(|pid| pid == me) {
        true => None,
        false => SharedMem::memfd(len).ok(),
    };
    let heap = Arc::new(file.unwrap_or_else(|| SharedMem::zeroed(len)));
    let named = |file: &std::fs::File| Some((file.as_raw_fd(), file.metadata().ok()?));
    let id = match heap.file().and_then(named) {
        Some((fd, meta)) => HeapId {
            fd,
            dev: meta.dev(),
            ino: meta.ino(),
        },
        None => HeapId {
            fd: -1,
            dev: 0,
            ino: NEXT.fetch_add(1, Ordering::Relaxed),
        },
    };
    let mut heaps = HEAPS.lock().unwrap_or_else(|e| e.into_inner());
    heaps.retain(|(_, h)| h.strong_count() > 0);
    heaps.push((id, Arc::downgrade(&heap)));
    (heap, id)
}

/// Map the `len`-byte heap `id` published by process `pid`. Fails if the
/// heap is gone, is not `len` bytes long, or `pid` may not be reached.
pub fn attach(pid: u32, id: HeapId, len: usize) -> io::Result<Arc<SharedMem>> {
    if pid == std::process::id() {
        let heaps = HEAPS.lock().unwrap_or_else(|e| e.into_inner());
        let same = |h: &HeapId| (h.dev, h.ino) == (id.dev, id.ino);
        return heaps
            .iter()
            .filter(|(h, _)| same(h))
            .find_map(|(_, heap)| heap.upgrade())
            .filter(|heap| heap.len() == len)
            .ok_or_else(|| io::ErrorKind::NotFound.into());
    }
    let file = Process::open(pid)?.take_fd(id.fd)?;
    let meta = file.metadata()?;
    if (meta.dev(), meta.ino()) != (id.dev, id.ino) {
        return Err(io::ErrorKind::NotFound.into());
    }
    Ok(Arc::new(SharedMem::of_file(file, len)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_heap_attached_in_process_is_the_published_memory() {
        let me = std::process::id();
        // Peers all in this process: no file.
        let (heap, id) = publish(8192, [me].into_iter());
        assert!(heap.file().is_none());
        let peer = attach(me, id, 8192).expect("attach");
        assert!(Arc::ptr_eq(&heap, &peer), "a second view of the heap");
        // A peer in another process: a memfd, still attached in process
        // by reference.
        let (file_heap, file_id) = publish(8192, [me, me + 1].into_iter());
        assert!(file_heap.file().is_some() && file_id.fd >= 0);
        let peer = attach(me, file_id, 8192).expect("attach");
        assert!(Arc::ptr_eq(&file_heap, &peer), "a second view of the file");
        assert!(attach(me, file_id, 4096).is_err(), "wrong size");
        // The peer's reference outlives the owner's.
        drop(file_heap);
        peer.write(8000, b"still mapped");
        drop(peer);
        assert!(attach(me, file_id, 8192).is_err(), "gone");
        drop(heap);
    }

    #[test]
    fn an_id_that_names_another_file_is_refused() {
        let (_heap, id) = publish(4096, [0].into_iter());
        let stranger = HeapId {
            ino: id.ino ^ 1,
            ..id
        };
        assert!(attach(std::process::id(), stranger, 4096).is_err());
    }
}
