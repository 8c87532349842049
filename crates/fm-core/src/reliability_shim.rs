//! The per-engine reliability choice, kept in name only for callers
//! outside the workspace: an engine retransmits to exactly the peers
//! whose links may lose packets ([`NetDevice::is_lossy_to`]), so every
//! choice passed here is ignored.

use fm_model::MachineProfile;

use crate::device::NetDevice;
use crate::{Fm1Engine, Fm2Engine};

/// Ignored, whichever variant is passed.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Reliability {
    /// Ignored.
    #[default]
    TrustSubstrate,
    /// Ignored: the window is the profile's `credits_per_peer`.
    Retransmit(RetransmitConfig),
}

/// Ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetransmitConfig;

impl RetransmitConfig {
    /// The same value as [`RetransmitConfig::default`].
    pub fn adaptive() -> Self {
        RetransmitConfig
    }
}

impl<D: NetDevice> Fm1Engine<D> {
    /// [`Fm1Engine::new`]; the reliability argument is ignored.
    pub fn with_reliability(device: D, profile: MachineProfile, _: Reliability) -> Self {
        Self::new(device, profile)
    }
}

impl<D: NetDevice> Fm2Engine<D> {
    /// [`Fm2Engine::new`]; the reliability argument is ignored.
    pub fn with_reliability(device: D, profile: MachineProfile, _: Reliability) -> Self {
        Self::new(device, profile)
    }
}
