//! Partitioned shuffle with epoch barriers — the streaming-dataflow soak
//! scenario.
//!
//! Every rank is simultaneously a producer and a partition owner: it
//! generates a seeded stream of `(key, payload)` records, routes each to
//! `key % ranks`, and after every `records_per_epoch` records injects an
//! epoch-barrier message into the channel to *every* rank (itself
//! included). Because FM channels are FIFO per (source, destination), a
//! barrier for epoch `e` arriving from sender `s` proves all of `s`'s
//! epoch-`e` records for this rank are already in — the in-channel
//! barrier pattern of streaming dataflows, not a global collective, so
//! epochs pipeline across ranks.
//!
//! The whole schedule is a pure function of `(seed, sender, epoch)`:
//! receivers *recompute* every sender's record stream and verify
//!
//! * **per-key ordering** — records of key `k` from sender `s` carry a
//!   per-(s,k) sequence number and must arrive exactly consecutively
//!   (FM's FIFO promise surfaced at the application layer), and
//! * **epoch completeness** — the count received from `s` in epoch `e`
//!   matches both the barrier's claim and the recomputed expectation,
//!   with epochs completing strictly in order.
//!
//! [`ShuffleRunner`] is poll-driven like `testutil::ScriptRunner`, so the
//! same state machine runs on the virtual-time simulator (one `poll` per
//! program step) and on blocking transports ([`run_shuffle`] spins it).

use std::collections::{HashMap, VecDeque};

use fm_model::rng::DetRng;

use crate::api::{drive, Mpi};
use crate::types::{RecvReq, SendReq};

/// Tag carrying shuffle records.
pub const REC_TAG: u32 = 0x5AFE_0001;
/// Tag carrying epoch-barrier markers.
pub const BAR_TAG: u32 = 0x5AFE_0002;

/// Bytes of a record header: key (u64 LE), per-(sender,key) seq (u32),
/// epoch (u32). Payloads are padded to at least this.
pub const REC_HDR: usize = 16;

/// Outstanding-send cap: enough to pipeline, bounded so a million-message
/// run never holds more than a window of request handles.
const SEND_WINDOW: usize = 64;

/// A complete, seedable description of one shuffle run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleSpec {
    /// Participating ranks (each is producer + partition owner).
    pub ranks: usize,
    /// Key-space size; ownership is `key % ranks`.
    pub keys: u64,
    /// Records each rank produces per epoch.
    pub records_per_epoch: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Bytes per record message (padded up to [`REC_HDR`]).
    pub payload: usize,
    /// Master seed; every rank's record stream derives from it.
    pub seed: u64,
}

impl ShuffleSpec {
    /// The RNG producing `sender`'s record keys for `epoch` — a pure
    /// function of the spec, so receivers can replay it.
    fn epoch_rng(&self, sender: usize, epoch: usize) -> DetRng {
        DetRng::seed_from_u64(
            self.seed
                .wrapping_add((sender as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((epoch as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
        )
    }

    /// The keys `sender` emits in `epoch`, in order.
    pub fn epoch_keys(&self, sender: usize, epoch: usize) -> Vec<u64> {
        let mut rng = self.epoch_rng(sender, epoch);
        (0..self.records_per_epoch)
            .map(|_| rng.below(self.keys.max(1)))
            .collect()
    }

    /// Total records one rank produces.
    pub fn records_per_rank(&self) -> u64 {
        (self.records_per_epoch * self.epochs) as u64
    }

    /// Total records the whole shuffle routes.
    pub fn total_records(&self) -> u64 {
        self.records_per_rank() * self.ranks as u64
    }
}

/// What one rank measured after its shuffle completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleReport {
    /// Records this rank produced and sent (including self-routed).
    pub records_sent: u64,
    /// Records this rank owned and received — matches the recomputed
    /// expectation or the runner panics.
    pub records_received: u64,
    /// Epochs fully closed (all senders' barriers in, counts verified).
    pub epochs_completed: usize,
    /// Distinct (sender, key) channels whose ordering was checked.
    pub channels_checked: usize,
}

/// Poll-driven shuffle participant for one rank. Construct, then call
/// [`ShuffleRunner::poll`] until it returns `true`; any ordering or
/// completeness violation panics with a diagnostic.
pub struct ShuffleRunner {
    spec: ShuffleSpec,
    me: usize,
    // -- producer side --
    epoch: usize,
    keys_left: VecDeque<u64>,
    key_seq: HashMap<u64, u32>,
    sent_this_epoch: Vec<u32>,
    bar_dst: Option<usize>,
    outstanding: VecDeque<SendReq>,
    records_sent: u64,
    // -- owner side --
    recv: Option<RecvReq>,
    next_seq: HashMap<(usize, u64), u32>,
    epoch_got: Vec<Vec<u32>>,
    bar_claim: Vec<Vec<Option<u32>>>,
    expected: Vec<Vec<u32>>,
    epochs_completed: usize,
    records_received: u64,
    bars_received: u64,
    expected_records: u64,
}

impl ShuffleRunner {
    /// A runner for rank `me`. Precomputes, by replaying every sender's
    /// seeded stream, exactly how many records this rank must receive per
    /// (sender, epoch) — the ground truth the live run is held to.
    pub fn new(spec: ShuffleSpec, me: usize) -> ShuffleRunner {
        assert!(spec.ranks >= 2, "shuffle needs at least two ranks");
        assert!(me < spec.ranks);
        let mut expected = vec![vec![0u32; spec.epochs]; spec.ranks];
        let mut expected_records = 0u64;
        for (s, per_epoch) in expected.iter_mut().enumerate() {
            for (e, slot) in per_epoch.iter_mut().enumerate() {
                let n = spec
                    .epoch_keys(s, e)
                    .into_iter()
                    .filter(|k| (*k % spec.ranks as u64) as usize == me)
                    .count() as u32;
                *slot = n;
                expected_records += n as u64;
            }
        }
        ShuffleRunner {
            spec,
            me,
            epoch: 0,
            keys_left: spec.epoch_keys(me, 0).into(),
            key_seq: HashMap::new(),
            sent_this_epoch: vec![0; spec.ranks],
            bar_dst: None,
            outstanding: VecDeque::new(),
            records_sent: 0,
            recv: None,
            next_seq: HashMap::new(),
            epoch_got: vec![vec![0; spec.epochs]; spec.ranks],
            bar_claim: vec![vec![None; spec.epochs]; spec.ranks],
            expected,
            epochs_completed: 0,
            records_received: 0,
            bars_received: 0,
            expected_records,
        }
    }

    fn process(&mut self, src: usize, tag: u32, data: &[u8]) {
        match tag {
            REC_TAG => {
                let key = u64::from_le_bytes(data[0..8].try_into().expect("record key"));
                let seq = u32::from_le_bytes(data[8..12].try_into().expect("record seq"));
                let epoch =
                    u32::from_le_bytes(data[12..16].try_into().expect("record epoch")) as usize;
                assert_eq!(
                    (key % self.spec.ranks as u64) as usize,
                    self.me,
                    "rank {} received key {key} it does not own",
                    self.me
                );
                let want = self.next_seq.entry((src, key)).or_insert(0);
                assert_eq!(
                    seq, *want,
                    "per-key ordering broken: ({src}, key {key}) seq {seq}, wanted {want}"
                );
                *want += 1;
                assert!(
                    self.bar_claim[src][epoch].is_none(),
                    "record from {src} for epoch {epoch} after its barrier"
                );
                self.epoch_got[src][epoch] += 1;
                self.records_received += 1;
            }
            BAR_TAG => {
                let epoch = u32::from_le_bytes(data[0..4].try_into().expect("bar epoch")) as usize;
                let claim = u32::from_le_bytes(data[4..8].try_into().expect("bar count"));
                assert!(
                    self.bar_claim[src][epoch].replace(claim).is_none(),
                    "duplicate barrier from {src} for epoch {epoch}"
                );
                assert_eq!(
                    self.epoch_got[src][epoch], claim,
                    "epoch {epoch} from {src}: got {} records, barrier claims {claim}",
                    self.epoch_got[src][epoch]
                );
                assert_eq!(
                    claim, self.expected[src][epoch],
                    "epoch {epoch} from {src}: barrier claims {claim}, replay expects {}",
                    self.expected[src][epoch]
                );
                self.bars_received += 1;
                // Close epochs strictly in order as their barriers fill in.
                while self.epochs_completed < self.spec.epochs
                    && (0..self.spec.ranks)
                        .all(|s| self.bar_claim[s][self.epochs_completed].is_some())
                {
                    self.epochs_completed += 1;
                }
            }
            other => panic!("unexpected shuffle tag {other:#x}"),
        }
    }

    /// Advance producer and owner state; returns `true` once this rank
    /// has sent everything, received everything it owns, and closed every
    /// epoch.
    pub fn poll(&mut self, mpi: &mut impl Mpi) -> bool {
        mpi.progress();
        // Drain whatever the matcher already completed (repost-and-check
        // loops through queued unexpected messages synchronously).
        let max_len = self.spec.payload.max(REC_HDR);
        loop {
            let req = match self.recv.take() {
                Some(r) => r,
                None => mpi.irecv(None, None, max_len),
            };
            if !req.is_done() {
                self.recv = Some(req);
                break;
            }
            let status = req.status().expect("done recv has status");
            let data = req.take().expect("done recv has data");
            self.process(status.src, status.tag, &data);
        }
        // Reap acknowledged sends from the window's front.
        while self.outstanding.front().is_some_and(SendReq::is_done) {
            self.outstanding.pop_front();
        }
        // Produce while the window has room.
        while self.outstanding.len() < SEND_WINDOW && self.epoch < self.spec.epochs {
            if let Some(dst) = self.bar_dst {
                // Mid-barrier fan-out: one marker per rank, then next epoch.
                let mut bar = vec![0u8; 8];
                bar[0..4].copy_from_slice(&(self.epoch as u32).to_le_bytes());
                bar[4..8].copy_from_slice(&self.sent_this_epoch[dst].to_le_bytes());
                let req = mpi.isend(dst, BAR_TAG, bar);
                self.outstanding.push_back(req);
                if dst + 1 < self.spec.ranks {
                    self.bar_dst = Some(dst + 1);
                } else {
                    self.bar_dst = None;
                    self.epoch += 1;
                    self.sent_this_epoch.fill(0);
                    if self.epoch < self.spec.epochs {
                        self.keys_left = self.spec.epoch_keys(self.me, self.epoch).into();
                    }
                }
            } else if let Some(key) = self.keys_left.pop_front() {
                let dst = (key % self.spec.ranks as u64) as usize;
                let seq = self.key_seq.entry(key).or_insert(0);
                let mut rec = vec![0u8; max_len];
                rec[0..8].copy_from_slice(&key.to_le_bytes());
                rec[8..12].copy_from_slice(&seq.to_le_bytes());
                rec[12..16].copy_from_slice(&(self.epoch as u32).to_le_bytes());
                *seq += 1;
                self.sent_this_epoch[dst] += 1;
                let req = mpi.isend(dst, REC_TAG, rec);
                self.outstanding.push_back(req);
                self.records_sent += 1;
            } else {
                // Epoch's records are all dispatched: start the barrier.
                self.bar_dst = Some(0);
            }
        }
        self.epoch >= self.spec.epochs
            && self.outstanding.is_empty()
            && self.records_received == self.expected_records
            && self.epochs_completed == self.spec.epochs
            && self.bars_received == (self.spec.ranks * self.spec.epochs) as u64
    }

    /// The completed rank's summary (call after [`ShuffleRunner::poll`]
    /// returns `true`).
    pub fn report(&self) -> ShuffleReport {
        ShuffleReport {
            records_sent: self.records_sent,
            records_received: self.records_received,
            epochs_completed: self.epochs_completed,
            channels_checked: self.next_seq.len(),
        }
    }
}

/// Run one rank's shuffle to completion on a blocking-capable transport
/// (OS threads or processes over shm rings or fm-udp — never the
/// simulator), under MPI's blocking driver: a lost peer, a panicked rank
/// or a wedge ends it.
pub fn run_shuffle(mpi: &mut impl Mpi, spec: ShuffleSpec) -> ShuffleReport {
    let mut runner = ShuffleRunner::new(spec, mpi.rank());
    drive(mpi, "shuffle", |m| runner.poll(m));
    runner.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShuffleSpec {
        ShuffleSpec {
            ranks: 4,
            keys: 64,
            records_per_epoch: 50,
            epochs: 3,
            payload: 32,
            seed: 0xDA7A,
        }
    }

    #[test]
    fn epoch_keys_are_deterministic_and_seed_sensitive() {
        let s = spec();
        assert_eq!(s.epoch_keys(1, 2), s.epoch_keys(1, 2));
        assert_ne!(s.epoch_keys(1, 2), s.epoch_keys(2, 2));
        assert_ne!(s.epoch_keys(1, 2), s.epoch_keys(1, 1));
        let mut other = s;
        other.seed ^= 1;
        assert_ne!(s.epoch_keys(1, 2), other.epoch_keys(1, 2));
    }

    #[test]
    fn expected_counts_partition_the_stream() {
        let s = spec();
        let total: u64 = (0..s.ranks)
            .map(|me| {
                let r = ShuffleRunner::new(s, me);
                r.expected_records
            })
            .sum();
        assert_eq!(total, s.total_records());
    }

    #[test]
    #[should_panic(expected = "per-key ordering broken")]
    fn out_of_order_seq_is_caught() {
        let s = spec();
        let mut r = ShuffleRunner::new(s, 0);
        // Key 0 belongs to rank 0; seq must start at 0.
        let mut rec = vec![0u8; REC_HDR];
        rec[8..12].copy_from_slice(&7u32.to_le_bytes());
        r.process(1, REC_TAG, &rec);
    }

    #[test]
    #[should_panic(expected = "barrier claims")]
    fn short_epoch_is_caught() {
        let s = spec();
        let mut r = ShuffleRunner::new(s, 0);
        // A barrier claiming zero records when the replay expects some.
        let count = r.expected[1][0];
        assert!(count > 0, "seed must route rank-1 epoch-0 records to 0");
        let mut bar = vec![0u8; 8];
        bar[4..8].copy_from_slice(&0u32.to_le_bytes());
        r.process(1, BAR_TAG, &bar);
    }
}
