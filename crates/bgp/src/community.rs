//! The BGP community Tango attaches: Vultr's "do not announce to AS X"
//! action community, which shapes the prototype's outbound announcements.
//!
//! §4.1: *"each server ... uses BGP communities offered by Vultr to shape
//! outbound BGP announcements"* and *"BGP communities let us prevent
//! export of our announcements to select transit providers of Vultr."*
//!
//! Vultr's real customer guide defines `64600:ASN` = "do not announce to
//! this AS". We model the same semantics with the same numbering. Prior
//! work (reference 12 in the paper, SICO) shows such traffic-control
//! communities are widely honored; a speaker acts on them only when it
//! is configured to (the Vultr borders in the prototype), and everyone
//! else carries them through opaquely.

use core::fmt;
use tango_topology::AsId;

/// The community namespace for "do not announce to AS" actions.
const NS_NO_EXPORT_TO: u16 = 64600;

/// A BGP community attribute value. Speakers exchange these typed; no
/// RFC 1997 / RFC 8092 encoding is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Community {
    /// Action: the processing speaker must not announce this route to the
    /// given AS. This is the suppression knob of the §4.1 discovery loop.
    NoExportTo(AsId),
}

impl Community {
    /// Does this community forbid export to `neighbor`?
    pub fn forbids_export_to(self, neighbor: AsId) -> bool {
        let Community::NoExportTo(target) = self;
        target == neighbor
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Community::NoExportTo(asid) = self;
        write!(f, "{NS_NO_EXPORT_TO}:{}", asid.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_encoding_matches_vultr_numbering() {
        assert_eq!(Community::NoExportTo(AsId(2914)).to_string(), "64600:2914");
    }

    #[test]
    fn action_predicates() {
        let c = Community::NoExportTo(AsId(2914));
        assert!(c.forbids_export_to(AsId(2914)));
        assert!(!c.forbids_export_to(AsId(1299)));
    }
}
