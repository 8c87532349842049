//! Deterministic fault injection.
//!
//! Myrinet's bit-error rate is "very low" (paper §3.1) — low enough that FM
//! relies on the hardware CRC and does not retransmit. The simulator's
//! default is therefore a perfect network. Fault models exist to *test*
//! that reliance — and, since the reliability sublayer landed, to *break*
//! it on purpose:
//!
//! * corruption faults exercise the NIC CRC check (corrupted packets are
//!   dropped and counted, never delivered wrong);
//! * drop / duplicate / reorder faults exercise the engines' retransmit
//!   sublayer (on whenever a model is installed), which must recover.
//!
//! Every probabilistic model carries its own seed and draws from its own
//! [`fm_model::rng::DetRng`] stream, so a run is bit-identical for a given
//! `(workload, fault list, seeds)` triple. Models compose: install several
//! at once and the first one that fires on a packet decides its fate.

use fm_model::rng::DetRng;

/// A policy deciding what happens to packets in flight.
#[derive(Debug, Clone)]
pub enum FaultModel {
    /// Perfect network (the Myrinet default).
    None,
    /// Corrupt every `n`-th packet (1-based: the `n`-th, `2n`-th, …). The
    /// NIC CRC catches the corruption and drops the packet.
    EveryNth(u64),
    /// Corrupt each packet independently with probability `p`, from a
    /// seeded RNG — deterministic for a given seed.
    BitError {
        /// Per-packet corruption probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Silently drop each packet with probability `p` (the packet vanishes
    /// in the fabric: no CRC count, no arrival).
    Drop {
        /// Per-packet drop probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Silently drop every `n`-th packet (1-based, like
    /// [`FaultModel::EveryNth`]).
    DropEveryNth(u64),
    /// Deliver each packet twice with probability `p` (the second copy
    /// transits the fabric right behind the first).
    Duplicate {
        /// Per-packet duplication probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Delay each packet with probability `p` long enough that later
    /// packets overtake it (delivery reordering).
    Reorder {
        /// Per-packet reorder probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// What the fabric does to one packet (decided at injection time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Flip bits; the receiving NIC's CRC will drop it.
    Corrupt,
    /// The packet vanishes.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Deliver late, behind packets injected after it.
    Reorder,
}

/// One installed model plus its private RNG stream (if probabilistic).
struct Armed {
    model: FaultModel,
    rng: Option<DetRng>,
}

impl Armed {
    fn new(model: FaultModel) -> Self {
        let rng = match &model {
            FaultModel::BitError { seed, .. }
            | FaultModel::Drop { seed, .. }
            | FaultModel::Duplicate { seed, .. }
            | FaultModel::Reorder { seed, .. } => Some(DetRng::seed_from_u64(*seed)),
            _ => None,
        };
        Armed { model, rng }
    }

    /// The action this model requests for the `count`-th packet (1-based).
    fn fire(&mut self, count: u64) -> FaultAction {
        match &self.model {
            FaultModel::None => FaultAction::Deliver,
            FaultModel::EveryNth(n) => {
                if *n > 0 && count.is_multiple_of(*n) {
                    FaultAction::Corrupt
                } else {
                    FaultAction::Deliver
                }
            }
            FaultModel::DropEveryNth(n) => {
                if *n > 0 && count.is_multiple_of(*n) {
                    FaultAction::Drop
                } else {
                    FaultAction::Deliver
                }
            }
            FaultModel::BitError { p, .. } => self.roll(*p, FaultAction::Corrupt),
            FaultModel::Drop { p, .. } => self.roll(*p, FaultAction::Drop),
            FaultModel::Duplicate { p, .. } => self.roll(*p, FaultAction::Duplicate),
            FaultModel::Reorder { p, .. } => self.roll(*p, FaultAction::Reorder),
        }
    }

    fn roll(&mut self, p: f64, action: FaultAction) -> FaultAction {
        let rng = self
            .rng
            .as_mut()
            .expect("probabilistic model carries an RNG");
        if rng.chance(p) {
            action
        } else {
            FaultAction::Deliver
        }
    }
}

/// Stateful applier for a list of [`FaultModel`]s.
///
/// Models are consulted in installation order for every packet; the first
/// model that requests a non-[`FaultAction::Deliver`] action wins. Models
/// later in the list still advance their RNG streams on every packet, so
/// each stream stays a pure function of `(seed, packet index)`.
pub struct FaultInjector {
    models: Vec<Armed>,
    count: u64,
}

impl FaultInjector {
    /// Build an injector for a single `model`.
    pub fn new(model: FaultModel) -> Self {
        Self::compose(vec![model])
    }

    /// Build an injector applying `models` in order.
    pub fn compose(models: Vec<FaultModel>) -> Self {
        FaultInjector {
            models: models.into_iter().map(Armed::new).collect(),
            count: 0,
        }
    }

    /// Decide the next packet's fate.
    pub fn next_action(&mut self) -> FaultAction {
        self.count += 1;
        let mut decided = FaultAction::Deliver;
        for armed in &mut self.models {
            // Always fire (advancing RNG streams deterministically); keep
            // the first non-Deliver decision.
            let action = armed.fire(self.count);
            if decided == FaultAction::Deliver {
                decided = action;
            }
        }
        decided
    }

    /// Decide whether the next packet is corrupted (legacy single-model
    /// helper; equivalent to `next_action() == Corrupt`).
    pub fn corrupt_next(&mut self) -> bool {
        self.next_action() == FaultAction::Corrupt
    }

    /// Packets seen so far.
    pub fn packets_seen(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_corrupts() {
        let mut f = FaultInjector::new(FaultModel::None);
        assert!((0..1000).all(|_| !f.corrupt_next()));
        assert_eq!(f.packets_seen(), 1000);
    }

    #[test]
    fn every_nth_hits_exactly() {
        let mut f = FaultInjector::new(FaultModel::EveryNth(3));
        let hits: Vec<bool> = (0..9).map(|_| f.corrupt_next()).collect();
        assert_eq!(
            hits,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn every_zero_never_corrupts() {
        let mut f = FaultInjector::new(FaultModel::EveryNth(0));
        assert!((0..10).all(|_| !f.corrupt_next()));
    }

    #[test]
    fn bit_error_is_deterministic_per_seed() {
        let run = |seed| {
            let mut f = FaultInjector::new(FaultModel::BitError { p: 0.1, seed });
            (0..1000).map(|_| f.corrupt_next()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn bit_error_rate_is_roughly_p() {
        let mut f = FaultInjector::new(FaultModel::BitError { p: 0.2, seed: 7 });
        let hits = (0..10_000).filter(|_| f.corrupt_next()).count();
        assert!((1_600..2_400).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn drop_every_nth_requests_drops() {
        let mut f = FaultInjector::new(FaultModel::DropEveryNth(4));
        let actions: Vec<FaultAction> = (0..8).map(|_| f.next_action()).collect();
        assert_eq!(
            actions,
            [
                FaultAction::Deliver,
                FaultAction::Deliver,
                FaultAction::Deliver,
                FaultAction::Drop,
                FaultAction::Deliver,
                FaultAction::Deliver,
                FaultAction::Deliver,
                FaultAction::Drop,
            ]
        );
    }

    #[test]
    fn probabilistic_variants_are_deterministic_and_track_p() {
        for make in [
            (|seed| FaultModel::Drop { p: 0.3, seed }) as fn(u64) -> FaultModel,
            |seed| FaultModel::Duplicate { p: 0.3, seed },
            |seed| FaultModel::Reorder { p: 0.3, seed },
        ] {
            let run = |seed: u64| {
                let mut f = FaultInjector::new(make(seed));
                (0..2000).map(|_| f.next_action()).collect::<Vec<_>>()
            };
            assert_eq!(run(5), run(5));
            assert_ne!(run(5), run(6));
            let fired = run(5)
                .iter()
                .filter(|a| **a != FaultAction::Deliver)
                .count();
            assert!((450..750).contains(&fired), "fired = {fired}");
        }
    }

    #[test]
    fn composed_models_apply_in_order() {
        // Drop-every-2nd composed with corrupt-every-3rd: packet 6 matches
        // both; the first-listed model (drop) wins.
        let mut f =
            FaultInjector::compose(vec![FaultModel::DropEveryNth(2), FaultModel::EveryNth(3)]);
        let actions: Vec<FaultAction> = (0..6).map(|_| f.next_action()).collect();
        assert_eq!(
            actions,
            [
                FaultAction::Deliver,
                FaultAction::Drop,
                FaultAction::Corrupt,
                FaultAction::Drop,
                FaultAction::Deliver,
                FaultAction::Drop,
            ]
        );
    }

    #[test]
    fn composed_rng_streams_are_independent_of_order_position() {
        // A probabilistic model draws once per packet regardless of whether
        // an earlier model already decided, so its stream is reproducible.
        let solo = {
            let mut f = FaultInjector::new(FaultModel::Drop { p: 0.5, seed: 9 });
            (0..100)
                .map(|_| f.next_action() == FaultAction::Drop)
                .collect::<Vec<_>>()
        };
        let mut composed = FaultInjector::compose(vec![
            FaultModel::EveryNth(0), // inert
            FaultModel::Drop { p: 0.5, seed: 9 },
        ]);
        let behind: Vec<bool> = (0..100)
            .map(|_| composed.next_action() == FaultAction::Drop)
            .collect();
        assert_eq!(solo, behind);
    }
}
