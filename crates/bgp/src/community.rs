//! BGP communities, including the Vultr-style action communities the
//! Tango prototype uses to shape outbound announcements.
//!
//! §4.1: *"each server ... uses BGP communities offered by Vultr to shape
//! outbound BGP announcements"* and *"BGP communities let us prevent
//! export of our announcements to select transit providers of Vultr."*
//!
//! Vultr's real customer guide defines `64600:ASN` = "do not announce to
//! this AS" and `64699:ASN`-style prepend actions. We model the same
//! semantics with the same numbering. Prior work (reference 12 in the paper,
//! SICO) shows such traffic-control communities are widely honored, so
//! the engine lets every speaker interpret them (a documented
//! simplification — in the prototype only Vultr's border needs to).

use core::fmt;
use tango_topology::AsId;

/// The community namespace for "do not announce to AS" actions.
pub const NS_NO_EXPORT_TO: u16 = 64600;

/// A BGP community attribute value. Speakers exchange these typed; no
/// RFC 1997 / RFC 8092 encoding is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Community {
    /// An opaque `asn:value` tag with no modeled semantics.
    Plain(u16, u16),
    /// RFC 1997 well-known NO_EXPORT (0xFFFFFF01): do not export outside
    /// the receiving AS.
    NoExport,
    /// RFC 1997 well-known NO_ADVERTISE (0xFFFFFF02): do not advertise at
    /// all.
    NoAdvertise,
    /// Action: the processing speaker must not announce this route to the
    /// given AS. This is the suppression knob of the §4.1 discovery loop.
    NoExportTo(AsId),
    /// Action: prepend the processing speaker's ASN `n` extra times when
    /// announcing to the given AS (clamped to 1 ≤ n ≤ 3 when applied).
    PrependTo(AsId, u8),
}

impl Community {
    /// Effective extra-prepend count for exporting to `neighbor`
    /// (0 if this community does not apply).
    pub fn prepend_count_for(self, neighbor: AsId) -> u8 {
        match self {
            Community::PrependTo(target, n) if target == neighbor => n.clamp(1, 3),
            _ => 0,
        }
    }

    /// Does this community forbid export to `neighbor`?
    pub fn forbids_export_to(self, neighbor: AsId) -> bool {
        matches!(self, Community::NoExportTo(target) if target == neighbor)
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Community::Plain(a, v) => write!(f, "{a}:{v}"),
            Community::NoExport => write!(f, "no-export"),
            Community::NoAdvertise => write!(f, "no-advertise"),
            Community::NoExportTo(asid) => write!(f, "{NS_NO_EXPORT_TO}:{}", asid.0),
            Community::PrependTo(asid, n) => write!(f, "prepend{n}x:{}", asid.0),
        }
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
        assert_eq!(c.prepend_count_for(AsId(2914)), 0);

        let p = Community::PrependTo(AsId(2914), 2);
        assert_eq!(p.prepend_count_for(AsId(2914)), 2);
        assert_eq!(p.prepend_count_for(AsId(1299)), 0);
        assert!(!p.forbids_export_to(AsId(2914)));
    }

    #[test]
    fn prepend_zero_clamps_to_one() {
        let p = Community::PrependTo(AsId(7), 0);
        assert_eq!(p.prepend_count_for(AsId(7)), 1);
    }
}
