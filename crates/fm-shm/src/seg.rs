//! Shared-memory segments: one file under `/dev/shm` per co-located
//! rank pair, holding a pair of SPSC rings plus an ownership header.
//!
//! # Layout
//!
//! ```text
//! +0     magic: u64        written by the creator, validated on attach
//! +8     ready: u32        0 while the creator initializes, then 1
//! +12    version: u32
//! +16    slots: u32        ring geometry (both rings identical)
//! +20    payload: u32      frame capacity per slot
//! +24    lo_pid: u32       creator (lower rank) process id
//! +28    hi_pid: u32       attacher (higher rank) process id, 0 = not yet
//! +32    lo_rank: u32
//! +36    hi_rank: u32
//! +40    epoch: u64        run incarnation stamp
//! +48    lo_gone: u32      graceful-leave flags (see cleanup below)
//! +52    hi_gone: u32
//! +4096  ring lo→hi        (RawRing::bytes_for(slots, payload) bytes)
//! +...   ring hi→lo
//! ```
//!
//! # Torn startup
//!
//! The attacher may arrive *before* the creator has finished — or even
//! started — initializing. Two guards close every window: the creator
//! builds the file with `O_EXCL` and only flips `ready` to 1 (release
//! store) after the header, geometry, and both rings are fully written;
//! the attacher retries opening until the file exists, then spins on
//! `ready` (acquire load) before trusting a single other byte. A
//! leftover file from a dead earlier run (same name, stale pids) is
//! detected by the creator, unlinked, and recreated.
//!
//! # Ownership and cleanup
//!
//! Both endpoints record their pid in the header. On graceful drop each
//! sets its `gone` flag (SeqCst) and then checks the peer's: the second
//! leaver sees both flags up and unlinks the file — last one out turns
//! off the lights, and the SeqCst store-then-load means at least one of
//! two racing leavers observes the other. A crashed process never sets
//! its flag, so its segments survive as named files; [`reclaim_stale`]
//! sweeps the directory and unlinks any segment whose registered pids
//! are all dead (`/proc/<pid>` gone). Unlinking never invalidates a
//! live peer's view: Linux keeps the pages while any mapping exists.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::mem::Mapping;
use crate::ring::RawRing;

/// `"FMSHM2\0"` little-endian plus a layout version byte.
pub const SEG_MAGIC: u64 = 0x01_00_32_4D_48_53_4D_46;

/// Header page size; rings start at this offset.
pub const SEG_HDR_BYTES: usize = 4096;

/// Current layout version (stored at +12, validated on attach).
/// Version 2 padded the ring slot stride to whole cache lines. Version 3
/// keeps every offset and publishes a frame by a stamp in its slot header
/// instead of by the ring's `tail` word (see [`crate::ring`]): a version
/// 2 peer neither writes stamps nor reads them, so it is refused.
pub const SEG_VERSION: u32 = 3;

const OFF_MAGIC: usize = 0;
const OFF_READY: usize = 8;
const OFF_VERSION: usize = 12;
const OFF_SLOTS: usize = 16;
const OFF_PAYLOAD: usize = 20;
const OFF_LO_PID: usize = 24;
const OFF_HI_PID: usize = 28;
const OFF_LO_RANK: usize = 32;
const OFF_HI_RANK: usize = 36;
const OFF_EPOCH: usize = 40;
const OFF_LO_GONE: usize = 48;
const OFF_HI_GONE: usize = 52;

/// File name for the segment joining ranks `lo < hi` of run `run_id`.
pub fn segment_name(run_id: &str, lo: usize, hi: usize) -> String {
    debug_assert!(lo < hi);
    format!("fm-shm-{run_id}-p{lo}x{hi}")
}

/// Which end of the pair this process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The lower rank: creates and initializes the segment.
    Lo,
    /// The higher rank: attaches to the creator's segment.
    Hi,
}

/// Geometry both sides must agree on.
#[derive(Debug, Clone, Copy)]
pub struct SegGeometry {
    /// Slots per direction (power of two).
    pub slots: u32,
    /// Frame capacity per slot, bytes.
    pub payload: u32,
}

impl SegGeometry {
    fn file_bytes(&self) -> usize {
        SEG_HDR_BYTES + 2 * RawRing::bytes_for(self.slots, self.payload)
    }
}

/// One mapped rank-pair segment, with this process's transmit and
/// receive rings role-assigned.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    map: Mapping,
    side: Side,
    /// Ring this process produces into.
    pub tx: RawRing,
    /// Ring this process consumes from.
    pub rx: RawRing,
}

impl Segment {
    fn header_u32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off.is_multiple_of(4) && off + 4 <= SEG_HDR_BYTES);
        unsafe { &*(self.map.as_ptr().add(off) as *const AtomicU32) }
    }

    fn header_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8) && off + 8 <= SEG_HDR_BYTES);
        unsafe { &*(self.map.as_ptr().add(off) as *const AtomicU64) }
    }

    fn build(path: PathBuf, map: Mapping, side: Side, geom: SegGeometry) -> Segment {
        let ring_bytes = RawRing::bytes_for(geom.slots, geom.payload);
        let lo_to_hi =
            unsafe { RawRing::at(map.as_ptr().add(SEG_HDR_BYTES), geom.slots, geom.payload) };
        let hi_to_lo = unsafe {
            RawRing::at(
                map.as_ptr().add(SEG_HDR_BYTES + ring_bytes),
                geom.slots,
                geom.payload,
            )
        };
        let (tx, rx) = match side {
            Side::Lo => (lo_to_hi, hi_to_lo),
            Side::Hi => (hi_to_lo, lo_to_hi),
        };
        Segment {
            path,
            map,
            side,
            tx,
            rx,
        }
    }

    /// Create and fully initialize the segment for rank pair `(lo, hi)`;
    /// the caller is the lower rank. A leftover same-name file whose
    /// registered owners are all dead is reclaimed and replaced; a
    /// live-owned one is an error (run-id collision).
    pub fn create(
        dir: &Path,
        run_id: &str,
        lo: usize,
        hi: usize,
        geom: SegGeometry,
        epoch: u64,
    ) -> io::Result<Segment> {
        let path = dir.join(segment_name(run_id, lo, hi));
        let file = loop {
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(f) => break f,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if segment_is_stale(&path)? {
                        // A previous incarnation crashed without cleanup.
                        std::fs::remove_file(&path)?;
                        continue;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("segment {} is owned by a live process", path.display()),
                    ));
                }
                Err(e) => return Err(e),
            }
        };
        file.set_len(geom.file_bytes() as u64)?;
        let map = Mapping::of_file(&file, geom.file_bytes())?;
        let seg = Segment::build(path, map, Side::Lo, geom);
        // tmpfs hands out zero pages, so cursors and gone-flags start 0.
        seg.header_u32(OFF_VERSION)
            .store(SEG_VERSION, Ordering::Relaxed);
        seg.header_u32(OFF_SLOTS)
            .store(geom.slots, Ordering::Relaxed);
        seg.header_u32(OFF_PAYLOAD)
            .store(geom.payload, Ordering::Relaxed);
        seg.header_u32(OFF_LO_PID)
            .store(std::process::id(), Ordering::Relaxed);
        seg.header_u32(OFF_LO_RANK)
            .store(lo as u32, Ordering::Relaxed);
        seg.header_u32(OFF_HI_RANK)
            .store(hi as u32, Ordering::Relaxed);
        seg.header_u64(OFF_EPOCH).store(epoch, Ordering::Relaxed);
        seg.header_u64(OFF_MAGIC)
            .store(SEG_MAGIC, Ordering::Relaxed);
        // The publication point: nothing above is visible to the
        // attacher until this release store, and everything is after it.
        seg.header_u32(OFF_READY).store(1, Ordering::Release);
        Ok(seg)
    }

    /// Attach to the segment for rank pair `(lo, hi)`; the caller is the
    /// higher rank. Waits out torn startup: retries the open until the
    /// creator has made the file, then spins on `ready` until the
    /// creator has finished initializing — both bounded by `timeout`.
    pub fn attach(
        dir: &Path,
        run_id: &str,
        lo: usize,
        hi: usize,
        geom: SegGeometry,
        timeout: Duration,
    ) -> io::Result<Segment> {
        let path = dir.join(segment_name(run_id, lo, hi));
        let deadline = Instant::now() + timeout;
        let file = loop {
            match File::options().read(true).write(true).open(&path) {
                Ok(f) => {
                    // The creator sizes the file before writing the
                    // header; a file shorter than the header page is
                    // the creator mid-`set_len`. Geometry (and thus the
                    // full file size) is validated from the header
                    // below, never assumed.
                    if f.metadata()?.len() as usize >= SEG_HDR_BYTES {
                        break f;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("segment {} never appeared", path.display()),
                ));
            }
            std::thread::yield_now();
        };
        // Probe the header page alone first: the advertised geometry
        // decides how many bytes the real mapping needs, so trusting
        // the caller's geometry for the map size would turn a mismatch
        // into a timeout (or an out-of-bounds ring view).
        let probe = Mapping::of_file(&file, SEG_HDR_BYTES)?;
        let ready = unsafe { &*(probe.as_ptr().add(OFF_READY) as *const AtomicU32) };
        while ready.load(Ordering::Acquire) != 1 {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("segment {} never became ready", path.display()),
                ));
            }
            std::thread::yield_now();
        }
        drop(probe);
        let map = Mapping::of_file(&file, geom.file_bytes())?;
        let seg = Segment::build(path, map, Side::Hi, geom);
        let corrupt = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("segment {}: {what}", seg.path.display()),
            )
        };
        if seg.header_u64(OFF_MAGIC).load(Ordering::Relaxed) != SEG_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if seg.header_u32(OFF_VERSION).load(Ordering::Relaxed) != SEG_VERSION {
            return Err(corrupt("layout version mismatch"));
        }
        if seg.header_u32(OFF_SLOTS).load(Ordering::Relaxed) != geom.slots
            || seg.header_u32(OFF_PAYLOAD).load(Ordering::Relaxed) != geom.payload
        {
            return Err(corrupt("ring geometry mismatch"));
        }
        if seg.header_u32(OFF_LO_RANK).load(Ordering::Relaxed) != lo as u32
            || seg.header_u32(OFF_HI_RANK).load(Ordering::Relaxed) != hi as u32
        {
            return Err(corrupt("rank pair mismatch"));
        }
        seg.header_u32(OFF_HI_PID)
            .store(std::process::id(), Ordering::Release);
        Ok(seg)
    }

    /// The peer's registered pid (0 while the attacher hasn't arrived).
    pub fn peer_pid(&self) -> u32 {
        match self.side {
            Side::Lo => self.header_u32(OFF_HI_PID).load(Ordering::Acquire),
            Side::Hi => self.header_u32(OFF_LO_PID).load(Ordering::Acquire),
        }
    }

    /// Whether the peer has set its graceful-leave flag.
    pub fn peer_gone(&self) -> bool {
        let off = match self.side {
            Side::Lo => OFF_HI_GONE,
            Side::Hi => OFF_LO_GONE,
        };
        self.header_u32(off).load(Ordering::SeqCst) == 1
    }

    /// Run incarnation stamp recorded by the creator.
    pub fn epoch(&self) -> u64 {
        self.header_u64(OFF_EPOCH).load(Ordering::Relaxed)
    }

    /// Backing file path (for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // Graceful leave: raise my flag, then look at the peer's. SeqCst
        // on both makes this a store-then-load pair: of two racing
        // leavers at least one sees the other's flag and unlinks.
        let mine = match self.side {
            Side::Lo => OFF_LO_GONE,
            Side::Hi => OFF_HI_GONE,
        };
        self.header_u32(mine).store(1, Ordering::SeqCst);
        let peer_attached = self.peer_pid() != 0 || self.side == Side::Hi;
        if !peer_attached || self.peer_gone() {
            // Last one out (or the peer never came): remove the name.
            // ENOENT just means the peer won the race.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Whether `pid` names a live process (`/proc/<pid>` exists). Pid 0
/// means "never registered" and counts as dead.
pub(crate) fn pid_alive(pid: u32) -> bool {
    pid != 0 && Path::new(&format!("/proc/{pid}")).exists()
}

/// Whether the segment file at `path` belongs entirely to dead
/// processes. A file too short to hold a header, or one whose magic
/// never got written (creator died mid-init), is stale by definition —
/// unless its creator might still be mid-initialization, which the
/// caller rules out by only probing names it is about to recreate or
/// has swept as leftovers.
fn segment_is_stale(path: &Path) -> io::Result<bool> {
    let file = match File::options().read(true).write(true).open(path) {
        Ok(f) => f,
        // Vanished concurrently: that's as stale as it gets.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(true),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len() as usize;
    if len < SEG_HDR_BYTES {
        return Ok(true);
    }
    let map = Mapping::of_file(&file, SEG_HDR_BYTES)?;
    let u32_at = |off: usize| unsafe {
        (*(map.as_ptr().add(off) as *const AtomicU32)).load(Ordering::Acquire)
    };
    let u64_at = |off: usize| unsafe {
        (*(map.as_ptr().add(off) as *const AtomicU64)).load(Ordering::Acquire)
    };
    if u64_at(OFF_MAGIC) != SEG_MAGIC {
        return Ok(true); // creator died before finishing initialization
    }
    let lo = u32_at(OFF_LO_PID);
    let hi = u32_at(OFF_HI_PID);
    Ok(!pid_alive(lo) && !pid_alive(hi))
}

/// Sweep `dir` for `fm-shm-*` segment files owned entirely by dead
/// processes and unlink them. Returns the reclaimed paths. Safe to run
/// concurrently with live clusters: their files have live pids and are
/// left alone.
pub fn reclaim_stale(dir: &Path) -> io::Result<Vec<PathBuf>> {
    reclaim_stale_older_than(dir, Duration::ZERO)
}

/// [`reclaim_stale`] restricted to files last modified at least
/// `min_age` ago. The age guard is what makes the sweep safe to run
/// from every [`crate::ShmDevice::open`]: a concurrent cluster's
/// segment in its torn-startup window (created, magic not yet
/// published) is indistinguishable from a crash leftover by content,
/// but it is always *young* — so a grace period longer than any
/// create-to-publish gap protects it, while genuinely dead files age
/// past the grace and get swept by whichever open comes next.
pub fn reclaim_stale_older_than(dir: &Path, min_age: Duration) -> io::Result<Vec<PathBuf>> {
    let mut reclaimed = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("fm-shm-") {
            continue;
        }
        if !min_age.is_zero() {
            let old_enough = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= min_age);
            if !old_enough {
                continue;
            }
        }
        let path = entry.path();
        match segment_is_stale(&path) {
            Ok(true) => {
                if std::fs::remove_file(&path).is_ok() {
                    reclaimed.push(path);
                }
            }
            Ok(false) => {}
            // A file that vanished mid-probe was someone else's cleanup.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir() -> PathBuf {
        std::env::temp_dir()
    }

    fn geom() -> SegGeometry {
        SegGeometry {
            slots: 8,
            payload: 256,
        }
    }

    fn unique_run(tag: &str) -> String {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        format!(
            "{tag}{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )
    }

    #[test]
    fn create_attach_and_move_frames_both_ways() {
        let run = unique_run("seg");
        let lo = Segment::create(&test_dir(), &run, 0, 1, geom(), 7).expect("create");
        let hi = Segment::attach(&test_dir(), &run, 0, 1, geom(), Duration::from_secs(2))
            .expect("attach");
        assert_eq!(hi.epoch(), 7);
        assert_eq!(lo.peer_pid(), std::process::id());
        assert_eq!(hi.peer_pid(), std::process::id());

        lo.tx.try_push(|s| {
            s[..3].copy_from_slice(b"abc");
            Some(3usize)
        });
        assert_eq!(hi.rx.try_pop(|f| f.to_vec()), Some(b"abc".to_vec()));
        hi.tx.try_push(|s| {
            s[..3].copy_from_slice(b"xyz");
            Some(3usize)
        });
        assert_eq!(lo.rx.try_pop(|f| f.to_vec()), Some(b"xyz".to_vec()));

        let path = lo.path().to_path_buf();
        drop(lo);
        assert!(path.exists(), "first leaver keeps the file for the peer");
        drop(hi);
        assert!(!path.exists(), "last one out unlinks");
    }

    #[test]
    fn attach_times_out_when_no_creator_shows_up() {
        let run = unique_run("noc");
        let err = Segment::attach(&test_dir(), &run, 0, 1, geom(), Duration::from_millis(50))
            .expect_err("nothing to attach to");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn attacher_waits_out_a_torn_startup() {
        // The attacher starts first; the creator arrives late and slow.
        let run = unique_run("torn");
        let dir = test_dir();
        let run2 = run.clone();
        let dir2 = dir.clone();
        let attacher = std::thread::spawn(move || {
            Segment::attach(&dir2, &run2, 0, 1, geom(), Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        let lo = Segment::create(&dir, &run, 0, 1, geom(), 1).expect("create");
        let hi = attacher.join().unwrap().expect("attach survives the wait");
        lo.tx.try_push(|s| {
            s[0] = 0x5A;
            Some(1usize)
        });
        assert_eq!(hi.rx.try_pop(|f| f[0]), Some(0x5A));
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let run = unique_run("geo");
        let _lo = Segment::create(&test_dir(), &run, 0, 1, geom(), 0).expect("create");
        let other = SegGeometry {
            slots: 16,
            payload: 256,
        };
        let err = Segment::attach(&test_dir(), &run, 0, 1, other, Duration::from_secs(1))
            .expect_err("mismatched geometry");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_version_2_segment_is_refused() {
        // Same offsets, but its creator would ring `tail`, not stamp slots.
        let run = unique_run("v2");
        let lo = Segment::create(&test_dir(), &run, 0, 1, geom(), 0).expect("create");
        lo.header_u32(OFF_VERSION).store(2, Ordering::Relaxed);
        let err = Segment::attach(&test_dir(), &run, 0, 1, geom(), Duration::from_secs(1))
            .expect_err("a peer that never stamps");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("layout version mismatch"), "{err}");
    }

    #[test]
    fn reclaim_sweeps_dead_owned_segments_only() {
        let dir = test_dir();
        let run = unique_run("rcl");
        // A live segment (owned by this test process).
        let live = Segment::create(&dir, &run, 0, 1, geom(), 0).expect("create live");

        // A forged dead segment: a real header naming a pid that cannot
        // be alive (pid_max on Linux caps below u32::MAX).
        let dead_name = format!("fm-shm-{}-dead", unique_run("x"));
        let dead_path = dir.join(&dead_name);
        {
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&dead_path)
                .expect("forge dead segment");
            f.set_len(SEG_HDR_BYTES as u64).unwrap();
            let map = Mapping::of_file(&f, SEG_HDR_BYTES).unwrap();
            unsafe {
                (*(map.as_ptr().add(OFF_LO_PID) as *const AtomicU32))
                    .store(u32::MAX - 1, Ordering::Relaxed);
                (*(map.as_ptr() as *const AtomicU64)).store(SEG_MAGIC, Ordering::Release);
            }
        }
        // A half-initialized leftover: file exists, magic never written.
        let torn_name = format!("fm-shm-{}-torn", unique_run("y"));
        let torn_path = dir.join(&torn_name);
        {
            let f = OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&torn_path)
                .expect("forge torn segment");
            f.set_len(64).unwrap();
        }

        let reclaimed = reclaim_stale(&dir).expect("sweep");
        assert!(reclaimed.contains(&dead_path), "dead-owned segment swept");
        assert!(reclaimed.contains(&torn_path), "torn leftover swept");
        assert!(!dead_path.exists() && !torn_path.exists());
        assert!(live.path().exists(), "live segment untouched");
    }

    #[test]
    fn creator_reclaims_a_same_name_crash_leftover() {
        let dir = test_dir();
        let run = unique_run("re");
        let name = segment_name(&run, 0, 1);
        let path = dir.join(&name);
        {
            // Leftover from a "crashed" run: dead pid, valid magic.
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .expect("forge leftover");
            f.set_len(SEG_HDR_BYTES as u64).unwrap();
            let map = Mapping::of_file(&f, SEG_HDR_BYTES).unwrap();
            unsafe {
                (*(map.as_ptr().add(OFF_LO_PID) as *const AtomicU32))
                    .store(u32::MAX - 2, Ordering::Relaxed);
                (*(map.as_ptr() as *const AtomicU64)).store(SEG_MAGIC, Ordering::Release);
            }
        }
        let seg = Segment::create(&dir, &run, 0, 1, geom(), 3).expect("reclaim and recreate");
        assert_eq!(seg.epoch(), 3, "fresh segment, not the leftover");
    }

    #[test]
    fn create_refuses_a_live_owned_collision() {
        let dir = test_dir();
        let run = unique_run("col");
        let _first = Segment::create(&dir, &run, 0, 1, geom(), 0).expect("create");
        let err = Segment::create(&dir, &run, 0, 1, geom(), 0).expect_err("collision");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
    }
}
