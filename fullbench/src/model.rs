//! The reference model: a plain `HashMap` replay of the UPDATE stream
//! one upstream peer sends to a router with one downstream peer.
//!
//! It shares no code with the program beyond reading the generated
//! UPDATEs. It keeps the expected Loc-RIB (which is also the expected
//! FIB, since one peer's route always wins) and what has been
//! advertised downstream, and derives per phase the expected
//! advertisements: local AS prepended, next hop rewritten, one action
//! per prefix whose advertised route changed. Contents are compared
//! through digests (order-sensitive for the advertisement stream,
//! order-free for tables), so a 1M-prefix phase is checked without a
//! second copy of every route.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use bgpbench_wire::{Asn, PathAttribute, Prefix, UpdateMessage};

/// A route as the model stores it: origin code, AS path, next hop.
#[derive(Debug)]
struct ModelRoute {
    origin: u8,
    path: Vec<u32>,
    next_hop: Ipv4Addr,
}

/// What one phase must leave behind and send downstream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// UPDATE messages in the phase.
    pub updates: u64,
    /// Prefix-level transactions in the phase.
    pub transactions: u64,
    /// Downstream advertisement actions (announce or withdraw).
    pub exports: u64,
    /// Order-sensitive digest of those actions.
    pub export_digest: u64,
    /// Loc-RIB size after the phase.
    pub rib_len: u64,
    /// Order-free digest of the Loc-RIB after the phase.
    pub rib_digest: u64,
    /// FIB size after the phase.
    pub fib_len: u64,
    /// Order-free digest of the FIB after the phase.
    pub fib_digest: u64,
}

/// The replay state. Routes are stored once per announcing UPDATE and
/// referenced by index; what was advertised is kept as its hash.
pub struct Model {
    local_asn: u32,
    export_hop: Ipv4Addr,
    routes: Vec<ModelRoute>,
    loc_rib: HashMap<Prefix, u32>,
    advertised: HashMap<Prefix, u64>,
}

impl Model {
    pub fn new(local_asn: Asn, export_hop: Ipv4Addr) -> Self {
        Model {
            local_asn: u32::from(local_asn.0),
            export_hop,
            routes: Vec::new(),
            loc_rib: HashMap::new(),
            advertised: HashMap::new(),
        }
    }

    /// Replays one phase and returns what the router must show after it.
    pub fn phase(&mut self, updates: &[UpdateMessage]) -> Expect {
        let mut expect = Expect::default();
        let mut exports = Digest::new();
        for update in updates {
            expect.updates += 1;
            expect.transactions += (update.withdrawn().len() + update.nlri().len()) as u64;
            for prefix in update.withdrawn() {
                self.loc_rib.remove(prefix);
            }
            if !update.nlri().is_empty() {
                let route = route_of(update);
                // Loop prevention drops a path through our own AS.
                if !route.path.contains(&self.local_asn) {
                    let index = self.routes.len() as u32;
                    self.routes.push(route);
                    for prefix in update.nlri() {
                        self.loc_rib.insert(*prefix, index);
                    }
                }
            }
            // Advertise in message order: withdrawals, then NLRI.
            for prefix in update.withdrawn().iter().chain(update.nlri()) {
                let desired = self.loc_rib.get(prefix).map(|&index| {
                    let route = &self.routes[index as usize];
                    announce_hash(
                        prefix,
                        route.origin,
                        std::iter::once(self.local_asn).chain(route.path.iter().copied()),
                        self.export_hop,
                    )
                });
                if desired == self.advertised.get(prefix).copied() {
                    continue;
                }
                expect.exports += 1;
                match desired {
                    Some(hash) => {
                        exports.push(hash);
                        self.advertised.insert(*prefix, hash);
                    }
                    None => {
                        exports.push(withdraw_hash(prefix));
                        self.advertised.remove(prefix);
                    }
                }
            }
        }
        expect.export_digest = exports.value();
        expect.rib_len = self.loc_rib.len() as u64;
        expect.fib_len = self.loc_rib.len() as u64;
        for (prefix, &index) in &self.loc_rib {
            let route = &self.routes[index as usize];
            expect.rib_digest = expect.rib_digest.wrapping_add(announce_hash(
                prefix,
                route.origin,
                route.path.iter().copied(),
                route.next_hop,
            ));
            expect.fib_digest = expect
                .fib_digest
                .wrapping_add(fib_hash(prefix, route.next_hop));
        }
        expect
    }
}

fn route_of(update: &UpdateMessage) -> ModelRoute {
    let mut route = ModelRoute {
        origin: 0,
        path: Vec::new(),
        next_hop: Ipv4Addr::UNSPECIFIED,
    };
    for attr in update.attributes() {
        match attr {
            PathAttribute::Origin(origin) => route.origin = *origin as u8,
            PathAttribute::AsPath(path) => route.path = path_asns(path),
            PathAttribute::NextHop(hop) => route.next_hop = *hop,
            _ => {}
        }
    }
    route
}

/// The AS numbers of a path, segment by segment.
pub fn path_asns(path: &bgpbench_wire::AsPath) -> Vec<u32> {
    use bgpbench_wire::AsPathSegment;
    path.segments()
        .iter()
        .flat_map(|segment| match segment {
            AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns) => asns.iter(),
        })
        .map(|asn| u32::from(asn.0))
        .collect()
}

/// SplitMix64's finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn prefix_key(prefix: &Prefix) -> u64 {
    (u64::from(prefix.network_bits()) << 8) | u64::from(prefix.len())
}

/// Hash of an announced route (Loc-RIB entry or advertisement).
pub fn announce_hash(
    prefix: &Prefix,
    origin: u8,
    path: impl Iterator<Item = u32>,
    next_hop: Ipv4Addr,
) -> u64 {
    let mut h = mix(0xA11C_E000 ^ prefix_key(prefix));
    h = mix(h ^ u64::from(origin));
    for asn in path {
        h = mix(h ^ (1 << 40) ^ u64::from(asn));
    }
    mix(h ^ (2 << 40) ^ u64::from(u32::from(next_hop)))
}

/// Hash of an advertised withdrawal.
pub fn withdraw_hash(prefix: &Prefix) -> u64 {
    mix(0x0DE1_E7E0 ^ prefix_key(prefix))
}

/// Hash of a FIB entry.
pub fn fib_hash(prefix: &Prefix, next_hop: Ipv4Addr) -> u64 {
    mix(mix(0xF1B0_0000 ^ prefix_key(prefix)) ^ u64::from(u32::from(next_hop)))
}

/// An order-sensitive fold of action hashes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0x5EED)
    }

    pub fn push(&mut self, item: u64) {
        self.0 = mix(self.0.rotate_left(17) ^ item);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Folds every action of one decoded UPDATE into `digest`, the same
/// way the model folds its expected actions; returns the action count.
pub fn digest_update(update: &UpdateMessage, digest: &mut Digest) -> u64 {
    for prefix in update.withdrawn() {
        digest.push(withdraw_hash(prefix));
    }
    if !update.nlri().is_empty() {
        let route = route_of(update);
        for prefix in update.nlri() {
            digest.push(announce_hash(
                prefix,
                route.origin,
                route.path.iter().copied(),
                route.next_hop,
            ));
        }
    }
    (update.withdrawn().len() + update.nlri().len()) as u64
}
