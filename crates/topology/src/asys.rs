//! Autonomous-system (routing-domain) node types.
//!
//! A node here is a *routing domain with one border*: for the transit
//! providers this coincides with the AS; for Vultr — whose two datacenters
//! exchange traffic over the public Internet, not a private WAN (§4) — we
//! model each DC border as its own node so AS-level paths between the two
//! sites are meaningful. This is documented as a substitution in DESIGN.md.

use core::fmt;

/// An AS number (or synthetic routing-domain id — see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AsId(pub u32);

impl AsId {
    /// Private-use ASNs (RFC 6996): 64512–65534 and 4200000000–4294967294.
    /// The Tango prototype's tenant sessions use one; Vultr strips it on
    /// export ("these sessions were established with a private ASN that is
    /// removed from the AS path", §4.1 footnote).
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for AsId {
    fn from(v: u32) -> Self {
        AsId(v)
    }
}

/// What role a node plays in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// An edge network with no customers of its own (access or enterprise).
    Stub,
    /// A transit provider in the core (NTT, Telia, GTT, ...).
    Transit,
    /// A cloud/datacenter border (the Vultr DC edges in the prototype).
    CloudEdge,
}

/// A node in the AS-level topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsNode {
    /// The node's id.
    pub id: AsId,
    /// Role in the topology.
    pub kind: AsKind,
    /// Human-readable name used in experiment output ("NTT", "Vultr-LA").
    pub name: String,
}

impl AsNode {
    /// Construct a node.
    pub fn new(id: impl Into<AsId>, kind: AsKind, name: impl Into<String>) -> Self {
        AsNode {
            id: id.into(),
            kind,
            name: name.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_asn_ranges() {
        assert!(AsId(64512).is_private());
        assert!(AsId(65534).is_private());
        assert!(!AsId(64511).is_private());
        assert!(!AsId(65535).is_private());
        assert!(AsId(4_200_000_000).is_private());
        assert!(AsId(4_294_967_294).is_private());
        assert!(!AsId(4_294_967_295).is_private());
        assert!(!AsId(2914).is_private()); // NTT
    }

    #[test]
    fn display_format() {
        assert_eq!(AsId(2914).to_string(), "AS2914");
    }

    #[test]
    fn node_construction() {
        let n = AsNode::new(2914u32, AsKind::Transit, "NTT");
        assert_eq!(n.id, AsId(2914));
        assert_eq!(n.kind, AsKind::Transit);
        assert_eq!(n.name, "NTT");
    }
}
