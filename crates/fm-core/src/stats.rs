//! Engine counters, and the one way a counter set is declared.
//!
//! These make the paper's copy-accounting story *observable*: the ablation
//! benches and the layering tests read `bytes_copied` and `credit_stalls`
//! to show where FM 1.x-style interfaces lose performance and FM 2.x-style
//! interfaces don't.
//!
//! Every counter set of the stack — the engine's [`FmStats`], the
//! buffer pool's [`crate::PoolStats`] and each transport's device
//! counters — is declared once, through [`counters!`](crate::counters):
//! the plain struct of `pub u64` fields, which the hot path bumps with
//! `+=`, and, from the same list of names, its field-wise `delta`, its
//! [`Counters::fields`] and a `Display` of the non-zero counters. A
//! report prints a set through [`Counters`] and names none of its
//! fields. The counters stay per engine and per device: the simulator
//! and a `LoopbackPair` step every rank on one thread, so per-thread
//! slots would merge the ranks' counts.

/// A counter set's `(name, value)` pairs, in declaration order: what a
/// report prints, whatever the set.
pub trait Counters {
    /// Every `(name, value)` pair, in declaration order, zeros included.
    fn fields(&self) -> impl Iterator<Item = (&'static str, u64)>;
}

/// Declare a counter set: a `pub struct` of `pub u64` fields, each with
/// its doc comment, deriving `Debug, Clone, Copy, Default, PartialEq,
/// Eq`. From the one list of names it also generates:
///
/// * `delta(&self, earlier)`, the field-wise difference `self - earlier`
///   (saturating), for reporting what happened between two snapshots;
/// * [`Counters::fields`](crate::stats::Counters::fields);
/// * `Display`: one `name=value` pair per non-zero counter,
///   space-separated, or `"(all zero)"`.
///
/// ```
/// fm_core::counters! {
///     /// Frames one side moved.
///     pub struct Moved {
///         /// Frames sent.
///         pub sent: u64,
///         /// Frames received.
///         pub received: u64,
///     }
/// }
/// let early = Moved { sent: 2, received: 0 };
/// let late = Moved { sent: 5, received: 1 };
/// assert_eq!(late.delta(&early).to_string(), "sent=3 received=1");
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: u64, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            /// Field-wise difference `self - earlier` (saturating), for
            /// reporting what happened between two snapshots.
            pub fn delta(&self, earlier: &$name) -> $name {
                $name { $( $field: self.$field.saturating_sub(earlier.$field), )* }
            }
        }

        impl $crate::stats::Counters for $name {
            fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($field), self.$field) ),*].into_iter()
            }
        }

        impl ::std::fmt::Display for $name {
            /// One `name=value` pair per non-zero counter, space-separated
            /// (all zeros formats as `"(all zero)"`).
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                let nonzero = $crate::stats::Counters::fields(self).filter(|&(_, v)| v != 0);
                let mut sep = "";
                for (name, value) in nonzero {
                    write!(f, "{sep}{name}={value}")?;
                    sep = " ";
                }
                if sep.is_empty() {
                    f.write_str("(all zero)")?;
                }
                Ok(())
            }
        }
    };
}

crate::counters! {
    /// Counters kept by both FM engines.
    pub struct FmStats {
        /// Messages fully sent (END/LAST flushed to the device).
        pub messages_sent: u64,
        /// Message payload bytes sent.
        pub bytes_sent: u64,
        /// Messages fully received (handler ran / completed).
        pub messages_received: u64,
        /// Message payload bytes received.
        pub bytes_received: u64,
        /// Data packets pushed to the device.
        pub packets_sent: u64,
        /// Data packets drained from the device.
        pub packets_received: u64,
        /// Credit-only packets sent.
        pub credit_packets_sent: u64,
        /// Host memcpy bytes performed by the engine (staging assembly,
        /// `FM_receive` copies, …). The layering-efficiency story in one
        /// number.
        pub bytes_copied: u64,
        /// Times a send could not proceed for lack of credits.
        pub credit_stalls: u64,
        /// Times a send could not proceed because the NIC queue was full.
        pub device_stalls: u64,
        /// Handler invocations (FM 1.x) or handler task spawns (FM 2.x).
        pub handlers_run: u64,
        /// Data packets re-sent by the reliability sublayer (SACK holes and
        /// timed-out heads: one re-send is one packet).
        pub retransmissions: u64,
        /// Standalone ACK_ONLY packets sent (piggybacked acks are free).
        pub acks_sent: u64,
        /// Received data packets discarded as duplicates — already delivered
        /// or already held — or out-of-window (reliability sublayer's
        /// in-order filter). A packet held for later release is not one.
        pub duplicates_dropped: u64,
        /// Retransmit timer expirations (each re-sends one packet, the
        /// oldest unacknowledged).
        pub retransmit_timeouts: u64,
        /// Resends of holes a SACK bitmap exposed, ahead of the timer (fast
        /// retransmit; a subset of `retransmissions`).
        pub fast_retransmits: u64,
        /// Per-peer protocol-state resets after a peer restarted with a new
        /// incarnation epoch (`PeerEventKind::Rejoining`).
        pub peer_resets: u64,
        /// Protocol errors surfaced to the application (`FmError`s queued).
        pub errors_reported: u64,
        /// Packet-buffer pool takes served from the free list (recycled
        /// frames — the zero-alloc steady state made visible).
        pub pool_hits: u64,
        /// Packet-buffer pool takes that had to allocate a fresh frame
        /// (warm-up, or bursts deeper than the free list).
        pub pool_misses: u64,
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::{Debug, Display};

    use super::*;
    use crate::PoolStats;

    /// `delta` is the field-wise saturating difference, name by name.
    fn delta_subtracts_fieldwise_on<C: Counters + Copy + Debug + PartialEq>(
        early: C,
        late: C,
        delta: fn(&C, &C) -> C,
    ) {
        let want: Vec<_> = late
            .fields()
            .zip(early.fields())
            .map(|((name, l), (_, e))| (name, l.saturating_sub(e)))
            .collect();
        assert_eq!(delta(&late, &early).fields().collect::<Vec<_>>(), want);
        assert_eq!(
            delta(&early, &late).fields().filter(|f| f.1 != 0).count(),
            0
        );
    }

    /// `Display` lists the non-zero counters in declaration order.
    fn display_shows_only_nonzero_on<C: Counters + Default + Display>(c: C, want: &str) {
        assert_eq!(c.to_string(), want);
        assert_eq!(C::default().to_string(), "(all zero)");
        assert!(C::default().fields().all(|(_, v)| v == 0));
    }

    #[test]
    fn default_is_zeroed() {
        let s = FmStats::default();
        assert_eq!(s.messages_sent, 0);
        assert_eq!(s.bytes_copied, 0);
        assert_eq!(s, FmStats::default());
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = FmStats {
            packets_sent: 10,
            retransmissions: 2,
            ..FmStats::default()
        };
        let late = FmStats {
            packets_sent: 25,
            retransmissions: 5,
            acks_sent: 3,
            ..FmStats::default()
        };
        let d = late.delta(&early);
        assert_eq!(d.packets_sent, 15);
        assert_eq!(d.retransmissions, 3);
        assert_eq!(d.acks_sent, 3);
        assert_eq!(d.messages_sent, 0);
        delta_subtracts_fieldwise_on(early, late, FmStats::delta);
        let (early, late) = (
            PoolStats { hits: 4, misses: 1 },
            PoolStats { hits: 9, misses: 1 },
        );
        assert_eq!(late.delta(&early), PoolStats { hits: 5, misses: 0 });
        delta_subtracts_fieldwise_on(early, late, PoolStats::delta);
    }

    #[test]
    fn display_shows_only_nonzero() {
        let s = FmStats {
            messages_sent: 2,
            duplicates_dropped: 1,
            ..FmStats::default()
        };
        display_shows_only_nonzero_on(s, "messages_sent=2 duplicates_dropped=1");
        display_shows_only_nonzero_on(PoolStats { hits: 0, misses: 3 }, "misses=3");
    }

    #[test]
    fn fields_name_every_counter_once_in_declaration_order() {
        let names: Vec<_> = FmStats::default().fields().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 20);
        assert_eq!(names[0], "messages_sent");
        assert_eq!(names[19], "pool_misses");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
