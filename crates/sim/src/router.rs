//! The plain IP router: the [`Agent`] of every node that is not a Tango
//! edge.

use crate::ctx::{Agent, Ctx};
use crate::packet::Packet;
use tango_net::PrefixTrie;
use tango_topology::AsId;

/// A plain IP router: longest-prefix-match forwarding with hop-limit
/// decrement. The behaviour of every non-Tango node (Vultr borders and
/// transit ASes).
pub struct RouterAgent {
    id: AsId,
    table: PrefixTrie<AsId>,
}

impl RouterAgent {
    /// A router with the given forwarding table (usually built by
    /// `tango_bgp::BgpEngine::forwarding_table`).
    pub fn new(id: AsId, table: PrefixTrie<AsId>) -> Self {
        RouterAgent { id, table }
    }
}

impl Agent for RouterAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        let Some(dst) = pkt.dst_addr() else {
            return ctx.count_no_route(pkt);
        };
        let Some(&next) = self.table.lookup(dst.into()) else {
            return ctx.count_no_route(pkt);
        };
        if next == self.id {
            // Locally destined at a plain router: nothing behind it.
            return ctx.count_no_route(pkt);
        }
        if !pkt.decrement_hop_limit() {
            return ctx.count_ttl_expired(pkt);
        }
        ctx.transmit(next, pkt);
    }
}
