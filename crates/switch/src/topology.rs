//! Switch topologies: which directed links a packet crosses on its way
//! from one node to another.
//!
//! The SP's building block is a 16-port switch frame (paper §1.2). Systems
//! up to 16 nodes are a single frame: every packet crosses one switch stage,
//! entering on the source's injection link and leaving on the destination's
//! ejection link. Larger systems cable frames together; a cross-frame packet
//! additionally crosses an inter-frame cable, one extra switch stage per
//! cable. Each (src, dst) pair has `routes_per_pair` distinct routes which
//! the adapter firmware cycles through; across frames, the route index picks
//! which of the parallel inter-frame cables the packet rides.
//!
//! A [`Topology`] expands `(src, dst, route)` into an explicit [`HopPath`]:
//! the ordered directed links the packet serializes onto. The fabric charges
//! occupancy per link, so congestion accrues at intermediate stages too, and
//! fault injectors can be pinned to any single link.
//!
//! Beyond the flat all-to-all cabling, [`Topology::fat_tree`] composes
//! frames-of-16 under spine stages into a folded-Clos fabric: a cross-frame
//! packet climbs up-links to the lowest tier whose spine group covers both
//! endpoints, then descends down-links to the destination frame. The route
//! index picks the spine plane ridden at every tier, and per-tier lane
//! counts thin out under oversubscription exactly the way real datacenter
//! fabrics are provisioned.

/// Ports per switch frame on the SP.
pub const FRAME_PORTS: usize = 16;

/// Upper bound on links in any [`HopPath`]: inj + ej plus one up-link and
/// one down-link per spine tier climbed (three tiers today).
pub const MAX_PATH_LINKS: usize = 8;

/// Parallel directed cables between each ordered frame pair unless a
/// topology asks otherwise (matching the SP's four routes per destination).
pub const DEFAULT_CABLES_PER_PAIR: usize = 4;

/// Identifier of one directed fabric link. The numbering is dense per
/// topology: injection links first (`node`), then ejection links
/// (`nodes + node`), then inter-frame cables (see [`Topology::cable`]).
pub type LinkId = u32;

/// How the machine's switch frames are arranged and cabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// One 16-port frame: every pair is one switch stage apart.
    SingleFrame {
        /// Attached nodes (≤ [`FRAME_PORTS`]).
        nodes: usize,
    },
    /// `frames` frames of `nodes_per_frame` nodes each, every frame pair
    /// joined by `cables_per_pair` parallel directed cables (the SP cables
    /// frames all-to-all up to about five frames; beyond that real systems
    /// add intermediate switch boards, which this model does not).
    MultiFrame {
        /// Number of frames.
        frames: usize,
        /// Nodes attached to each frame (≤ [`FRAME_PORTS`]).
        nodes_per_frame: usize,
        /// Parallel directed cables between each ordered frame pair.
        cables_per_pair: usize,
    },
    /// A folded-Clos fabric of `radix^(levels-1)` leaf frames under
    /// `levels - 1` spine tiers. At tier `t` (1-based above the leaves),
    /// each tier-`(t-1)` unit owns `tier_lanes(t)` parallel up-links into
    /// its tier-`t` spine group and the same number of down-links back;
    /// lane counts start at `cables_per_pair` and shrink by the
    /// oversubscription factor per tier.
    FatTree {
        /// Switch tiers including the leaf frames (≥ 2).
        levels: usize,
        /// Children per spine group (leaf frames per tier-1 group, tier-1
        /// groups per tier-2 group, ...).
        radix: usize,
        /// Per-tier capacity divisor: lanes at tier `t` are
        /// `max(1, cables_per_pair / oversubscription^(t-1))`.
        oversubscription: usize,
        /// Nodes attached to each leaf frame (≤ [`FRAME_PORTS`]).
        nodes_per_frame: usize,
        /// Up/down lanes per leaf frame at the first spine tier.
        cables_per_pair: usize,
    },
}

/// What one [`LinkId`] physically is, decoded from the dense numbering.
/// Property tests use this to check that an expanded route is a connected
/// chain; tooling uses it for human-readable link names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// `node`'s injection link (adapter into the fabric).
    Inj(usize),
    /// `node`'s ejection link (fabric into the adapter).
    Ej(usize),
    /// Flat inter-frame cable `lane` from frame `from` to frame `to`.
    Cable {
        /// Source frame.
        from: usize,
        /// Destination frame.
        to: usize,
        /// Parallel-cable lane.
        lane: usize,
    },
    /// Fat-tree up-link from tier-`(tier-1)` unit `unit` into its tier-`tier`
    /// spine group, riding plane `lane`.
    Up {
        /// Spine tier entered (1-based above the leaves).
        tier: usize,
        /// Child unit index at tier `tier - 1`.
        unit: usize,
        /// Spine plane.
        lane: usize,
    },
    /// Fat-tree down-link from a tier-`tier` spine group back to its
    /// tier-`(tier-1)` unit `unit`, riding plane `lane`.
    Down {
        /// Spine tier left (1-based above the leaves).
        tier: usize,
        /// Child unit index at tier `tier - 1`.
        unit: usize,
        /// Spine plane.
        lane: usize,
    },
}

/// The ordered directed links one packet crosses, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopPath {
    links: [LinkId; MAX_PATH_LINKS],
    len: u8,
}

impl HopPath {
    fn new(links: &[LinkId]) -> HopPath {
        assert!(!links.is_empty() && links.len() <= MAX_PATH_LINKS);
        let mut buf = [0; MAX_PATH_LINKS];
        buf[..links.len()].copy_from_slice(links);
        HopPath {
            links: buf,
            len: links.len() as u8,
        }
    }

    /// The links in traversal order.
    pub fn links(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }

    /// Switch stages crossed: one per link after the first (the first link
    /// only serializes the packet out of the adapter).
    pub fn hops(&self) -> usize {
        self.len as usize - 1
    }
}

impl Topology {
    /// A single frame of `nodes` nodes.
    pub fn single_frame(nodes: usize) -> Topology {
        assert!(
            (1..=FRAME_PORTS).contains(&nodes),
            "a switch frame has {FRAME_PORTS} ports, asked for {nodes}"
        );
        Topology::SingleFrame { nodes }
    }

    /// `frames` frames of `nodes_per_frame` nodes, with
    /// [`DEFAULT_CABLES_PER_PAIR`] parallel cables per ordered frame pair
    /// (matching the SP's four routes per destination).
    pub fn multi_frame(frames: usize, nodes_per_frame: usize) -> Topology {
        Topology::multi_frame_with_cables(frames, nodes_per_frame, DEFAULT_CABLES_PER_PAIR)
    }

    /// Like [`Topology::multi_frame`] but with an explicit number of
    /// parallel cables per ordered frame pair.
    pub fn multi_frame_with_cables(
        frames: usize,
        nodes_per_frame: usize,
        cables_per_pair: usize,
    ) -> Topology {
        assert!(frames >= 1, "need at least one frame");
        assert!(
            (1..=FRAME_PORTS).contains(&nodes_per_frame),
            "a switch frame has {FRAME_PORTS} ports, asked for {nodes_per_frame}"
        );
        assert!(cables_per_pair >= 1, "need at least one cable per pair");
        Topology::MultiFrame {
            frames,
            nodes_per_frame,
            cables_per_pair,
        }
    }

    /// A folded-Clos fat tree of full frames-of-16: `radix^(levels-1)` leaf
    /// frames under `levels - 1` spine tiers, with
    /// [`DEFAULT_CABLES_PER_PAIR`] up/down lanes per leaf and per-tier
    /// capacity divided by `oversubscription`.
    pub fn fat_tree(levels: usize, radix: usize, oversubscription: usize) -> Topology {
        Topology::fat_tree_custom(
            levels,
            radix,
            oversubscription,
            FRAME_PORTS,
            DEFAULT_CABLES_PER_PAIR,
        )
    }

    /// [`Topology::fat_tree`] with explicit nodes per leaf frame and
    /// first-tier lane count — smaller shapes for tests, wider planes for
    /// experiments.
    pub fn fat_tree_custom(
        levels: usize,
        radix: usize,
        oversubscription: usize,
        nodes_per_frame: usize,
        cables_per_pair: usize,
    ) -> Topology {
        assert!(
            (2..=MAX_PATH_LINKS / 2).contains(&levels),
            "fat tree needs 2..={} levels, asked for {levels}",
            MAX_PATH_LINKS / 2
        );
        assert!(radix >= 2, "fat tree radix must be at least 2");
        assert!(
            oversubscription >= 1,
            "oversubscription factor must be >= 1"
        );
        assert!(
            (1..=FRAME_PORTS).contains(&nodes_per_frame),
            "a switch frame has {FRAME_PORTS} ports, asked for {nodes_per_frame}"
        );
        assert!(cables_per_pair >= 1, "need at least one lane per tier");
        Topology::FatTree {
            levels,
            radix,
            oversubscription,
            nodes_per_frame,
            cables_per_pair,
        }
    }

    /// Total attached nodes.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::SingleFrame { nodes } => nodes,
            Topology::MultiFrame {
                frames,
                nodes_per_frame,
                ..
            } => frames * nodes_per_frame,
            Topology::FatTree {
                nodes_per_frame, ..
            } => self.frames() * nodes_per_frame,
        }
    }

    /// Number of (leaf) frames.
    pub fn frames(&self) -> usize {
        match *self {
            Topology::SingleFrame { .. } => 1,
            Topology::MultiFrame { frames, .. } => frames,
            Topology::FatTree { levels, radix, .. } => radix.pow(levels as u32 - 1),
        }
    }

    /// Which frame `node` is attached to.
    pub fn frame_of(&self, node: usize) -> usize {
        match *self {
            Topology::SingleFrame { .. } => 0,
            Topology::MultiFrame {
                nodes_per_frame, ..
            }
            | Topology::FatTree {
                nodes_per_frame, ..
            } => node / nodes_per_frame,
        }
    }

    /// Spine tiers above the leaf frames (0 for flat topologies).
    pub fn spine_tiers(&self) -> usize {
        match *self {
            Topology::FatTree { levels, .. } => levels - 1,
            _ => 0,
        }
    }

    /// Parallel cables per ordered frame pair (flat) or lanes per leaf at
    /// the first spine tier (fat tree). Single frames have none.
    pub fn cables_per_pair(&self) -> usize {
        match *self {
            Topology::SingleFrame { .. } => 0,
            Topology::MultiFrame {
                cables_per_pair, ..
            }
            | Topology::FatTree {
                cables_per_pair, ..
            } => cables_per_pair,
        }
    }

    /// Up/down lanes per child unit at spine tier `tier` (1-based):
    /// `cables_per_pair` thinned by the oversubscription factor per tier,
    /// never below one. Fat tree only.
    pub fn tier_lanes(&self, tier: usize) -> usize {
        match *self {
            Topology::FatTree {
                levels,
                oversubscription,
                cables_per_pair,
                ..
            } => {
                assert!((1..levels).contains(&tier), "spine tier out of range");
                (cables_per_pair / oversubscription.pow(tier as u32 - 1)).max(1)
            }
            _ => panic!("tier_lanes on a flat topology"),
        }
    }

    /// Child units feeding spine tier `tier`: leaf frames at tier 1,
    /// tier-1 groups at tier 2, and so on. Fat tree only.
    pub fn tier_units(&self, tier: usize) -> usize {
        match *self {
            Topology::FatTree { levels, radix, .. } => {
                assert!((1..levels).contains(&tier), "spine tier out of range");
                radix.pow((levels - tier) as u32)
            }
            _ => panic!("tier_units on a flat topology"),
        }
    }

    /// First [`LinkId`] of spine tier `tier`'s up-link block.
    fn tier_base(&self, tier: usize) -> usize {
        let mut base = 2 * self.nodes();
        for t in 1..tier {
            base += 2 * self.tier_units(t) * self.tier_lanes(t);
        }
        base
    }

    /// Total directed links: one injection and one ejection link per node,
    /// plus all inter-frame cables or spine-tier up/down links.
    pub fn num_links(&self) -> usize {
        let n = self.nodes();
        match *self {
            Topology::SingleFrame { .. } => 2 * n,
            Topology::MultiFrame {
                frames,
                cables_per_pair,
                ..
            } => 2 * n + frames * frames * cables_per_pair,
            Topology::FatTree { levels, .. } => self.tier_base(levels),
        }
    }

    /// `node`'s injection link (adapter into the fabric).
    pub fn inj_link(&self, node: usize) -> LinkId {
        assert!(node < self.nodes(), "node out of range");
        node as LinkId
    }

    /// `node`'s ejection link (fabric into the adapter).
    pub fn ej_link(&self, node: usize) -> LinkId {
        assert!(node < self.nodes(), "node out of range");
        (self.nodes() + node) as LinkId
    }

    /// Cable `lane` from frame `from` to frame `to` (multi-frame only).
    pub fn cable(&self, from: usize, to: usize, lane: usize) -> LinkId {
        match *self {
            Topology::SingleFrame { .. } => panic!("single frame has no cables"),
            Topology::MultiFrame {
                frames,
                cables_per_pair,
                ..
            } => {
                assert!(from < frames && to < frames && from != to, "bad frame pair");
                assert!(lane < cables_per_pair, "cable lane out of range");
                (2 * self.nodes() + (from * frames + to) * cables_per_pair + lane) as LinkId
            }
            Topology::FatTree { .. } => {
                panic!("fat trees have spine up/down links, not frame-pair cables")
            }
        }
    }

    /// Up-link `lane` from tier-`(tier-1)` unit `unit` into its tier-`tier`
    /// spine group (fat tree only).
    pub fn up_link(&self, tier: usize, unit: usize, lane: usize) -> LinkId {
        assert!(
            matches!(*self, Topology::FatTree { .. }),
            "up_link on a flat topology"
        );
        assert!(unit < self.tier_units(tier), "spine unit out of range");
        assert!(lane < self.tier_lanes(tier), "spine lane out of range");
        (self.tier_base(tier) + unit * self.tier_lanes(tier) + lane) as LinkId
    }

    /// Down-link `lane` from a tier-`tier` spine group back to its
    /// tier-`(tier-1)` unit `unit` (fat tree only).
    pub fn down_link(&self, tier: usize, unit: usize, lane: usize) -> LinkId {
        assert!(
            matches!(*self, Topology::FatTree { .. }),
            "down_link on a flat topology"
        );
        assert!(unit < self.tier_units(tier), "spine unit out of range");
        assert!(lane < self.tier_lanes(tier), "spine lane out of range");
        let up_block = self.tier_units(tier) * self.tier_lanes(tier);
        (self.tier_base(tier) + up_block + unit * self.tier_lanes(tier) + lane) as LinkId
    }

    /// Decode a [`LinkId`] back into what it physically is.
    pub fn classify_link(&self, link: LinkId) -> LinkClass {
        let link = link as usize;
        let n = self.nodes();
        assert!(link < self.num_links(), "link out of range");
        if link < n {
            return LinkClass::Inj(link);
        }
        if link < 2 * n {
            return LinkClass::Ej(link - n);
        }
        match *self {
            Topology::SingleFrame { .. } => unreachable!(),
            Topology::MultiFrame {
                frames,
                cables_per_pair,
                ..
            } => {
                let idx = link - 2 * n;
                let pair = idx / cables_per_pair;
                LinkClass::Cable {
                    from: pair / frames,
                    to: pair % frames,
                    lane: idx % cables_per_pair,
                }
            }
            Topology::FatTree { levels, .. } => {
                for tier in 1..levels {
                    let base = self.tier_base(tier);
                    let block = self.tier_units(tier) * self.tier_lanes(tier);
                    if link < base + 2 * block {
                        let idx = link - base;
                        let (down, idx) = (idx >= block, idx % block);
                        let unit = idx / self.tier_lanes(tier);
                        let lane = idx % self.tier_lanes(tier);
                        return if down {
                            LinkClass::Down { tier, unit, lane }
                        } else {
                            LinkClass::Up { tier, unit, lane }
                        };
                    }
                }
                unreachable!("link below num_links must fall in some tier")
            }
        }
    }

    /// The cable index (for [`sp_trace::Track::switch_xlink`]-style numbering) of a
    /// cable [`LinkId`], or `None` for endpoint links.
    pub fn cable_index(&self, link: LinkId) -> Option<usize> {
        let endpoints = 2 * self.nodes();
        (link as usize >= endpoints).then(|| link as usize - endpoints)
    }

    /// The lowest spine tier whose group covers both leaf frames: the
    /// number of tiers a cross-frame packet climbs (fat tree only).
    pub fn common_tier(&self, fs: usize, fd: usize) -> usize {
        match *self {
            Topology::FatTree { levels, radix, .. } => {
                assert_ne!(fs, fd, "same frame needs no spine tier");
                let mut tier = 1;
                while fs / radix.pow(tier as u32) != fd / radix.pow(tier as u32) {
                    tier += 1;
                }
                assert!(tier < levels, "frames share the root by construction");
                tier
            }
            _ => panic!("common_tier on a flat topology"),
        }
    }

    /// Switch stages between `src` and `dst`: 1 within a frame, 2 across
    /// flat-cabled frames, and `1 + 2 * common_tier` through a fat tree's
    /// spine (one stage per up-link and per down-link crossed).
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let (fs, fd) = (self.frame_of(src), self.frame_of(dst));
        if fs == fd {
            1
        } else {
            match *self {
                Topology::FatTree { .. } => 1 + 2 * self.common_tier(fs, fd),
                _ => 2,
            }
        }
    }

    /// Expand `(src, dst, route)` into the ordered links crossed. `route`
    /// is the firmware's route index (`0..routes_per_pair`); across frames
    /// it selects the cable lane (flat) or the spine plane ridden at every
    /// tier (fat tree), so the four routes ride four distinct paths.
    /// Loopback never enters the fabric, so `src != dst` here.
    pub fn path(&self, src: usize, dst: usize, route: usize) -> HopPath {
        let n = self.nodes();
        assert!(src < n && dst < n, "node out of range");
        assert!(src != dst, "loopback does not enter the fabric");
        let (fs, fd) = (self.frame_of(src), self.frame_of(dst));
        if fs == fd {
            return HopPath::new(&[self.inj_link(src), self.ej_link(dst)]);
        }
        match *self {
            Topology::SingleFrame { .. } => unreachable!(),
            Topology::MultiFrame {
                cables_per_pair, ..
            } => HopPath::new(&[
                self.inj_link(src),
                self.cable(fs, fd, route % cables_per_pair),
                self.ej_link(dst),
            ]),
            Topology::FatTree { radix, .. } => {
                let top = self.common_tier(fs, fd);
                let mut links = [0 as LinkId; MAX_PATH_LINKS];
                let mut len = 0;
                let mut push = |l: LinkId| {
                    links[len] = l;
                    len += 1;
                };
                push(self.inj_link(src));
                // Climb: at tier t the packet leaves the tier-(t-1) unit
                // containing src's frame, on the plane the route selects.
                for t in 1..=top {
                    let unit = fs / radix.pow(t as u32 - 1);
                    push(self.up_link(t, unit, route % self.tier_lanes(t)));
                }
                // Descend the same planes toward dst's frame.
                for t in (1..=top).rev() {
                    let unit = fd / radix.pow(t as u32 - 1);
                    push(self.down_link(t, unit, route % self.tier_lanes(t)));
                }
                push(self.ej_link(dst));
                HopPath::new(&links[..len])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_paths_are_one_hop() {
        let t = Topology::single_frame(4);
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.num_links(), 8);
        let p = t.path(1, 3, 0);
        assert_eq!(p.links(), &[t.inj_link(1), t.ej_link(3)]);
        assert_eq!(p.hops(), 1);
        assert_eq!(t.hops(1, 3), 1);
    }

    #[test]
    fn cross_frame_paths_ride_a_cable() {
        let t = Topology::multi_frame(2, 2); // nodes 0,1 | 2,3
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.frame_of(1), 0);
        assert_eq!(t.frame_of(2), 1);
        let p = t.path(0, 3, 0);
        assert_eq!(p.hops(), 2);
        assert_eq!(p.links(), &[t.inj_link(0), t.cable(0, 1, 0), t.ej_link(3)]);
        // Same frame stays one hop.
        assert_eq!(t.path(2, 3, 0).hops(), 1);
    }

    #[test]
    fn route_index_selects_the_cable_lane() {
        let t = Topology::multi_frame(2, 1);
        let lanes: Vec<LinkId> = (0..5).map(|r| t.path(0, 1, r).links()[1]).collect();
        assert_eq!(lanes[0], lanes[4], "four lanes cycle");
        assert_eq!(
            lanes
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            4,
            "four routes ride four distinct cables"
        );
    }

    #[test]
    fn link_ids_are_dense_and_disjoint() {
        let t = Topology::multi_frame(3, 4);
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..t.nodes() {
            assert!(seen.insert(t.inj_link(n)));
            assert!(seen.insert(t.ej_link(n)));
        }
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    continue;
                }
                for lane in 0..4 {
                    assert!(seen.insert(t.cable(a, b, lane)));
                }
            }
        }
        assert!(seen.iter().all(|&l| (l as usize) < t.num_links()));
        assert_eq!(t.cable_index(t.inj_link(3)), None);
        assert!(t.cable_index(t.cable(0, 1, 0)).is_some());
    }

    #[test]
    fn default_cables_per_pair_is_pinned_at_four() {
        // The historic hard-coded constant is now topology config; the
        // default constructor must keep producing byte-identical shapes.
        assert_eq!(DEFAULT_CABLES_PER_PAIR, 4);
        assert_eq!(
            Topology::multi_frame(3, 8),
            Topology::multi_frame_with_cables(3, 8, 4)
        );
        let wide = Topology::multi_frame_with_cables(2, 4, 7);
        assert_eq!(wide.cables_per_pair(), 7);
        assert_eq!(wide.num_links(), 2 * 8 + 2 * 2 * 7);
        assert_eq!(wide.path(0, 7, 9).links()[1], wide.cable(0, 1, 2));
    }

    #[test]
    fn fat_tree_counts_and_frames() {
        let t = Topology::fat_tree(2, 32, 1); // 32 leaves x 16 nodes
        assert_eq!(t.nodes(), 512);
        assert_eq!(t.frames(), 32);
        assert_eq!(t.spine_tiers(), 1);
        assert_eq!(t.tier_units(1), 32);
        assert_eq!(t.tier_lanes(1), 4);
        assert_eq!(t.num_links(), 2 * 512 + 2 * 32 * 4);
        assert_eq!(t.frame_of(511), 31);
    }

    #[test]
    fn fat_tree_oversubscription_thins_upper_tiers() {
        let t = Topology::fat_tree(3, 4, 2); // 16 leaves x 16 nodes
        assert_eq!(t.nodes(), 256);
        assert_eq!(t.tier_lanes(1), 4);
        assert_eq!(t.tier_lanes(2), 2);
        assert_eq!(t.tier_units(1), 16);
        assert_eq!(t.tier_units(2), 4);
        assert_eq!(t.num_links(), 2 * 256 + 2 * 16 * 4 + 2 * 4 * 2);
        // Lanes never thin below one.
        let deep = Topology::fat_tree_custom(4, 2, 4, 1, 4);
        assert_eq!(deep.tier_lanes(2), 1);
        assert_eq!(deep.tier_lanes(3), 1);
    }

    #[test]
    fn fat_tree_paths_climb_to_the_common_tier() {
        let t = Topology::fat_tree_custom(3, 2, 1, 2, 2); // 4 leaves x 2 nodes
                                                          // Same frame: one switch stage.
        assert_eq!(t.path(0, 1, 0).hops(), 1);
        // Sibling frames under one tier-1 group: inj, up1, down1, ej.
        let p = t.path(0, 2, 0);
        assert_eq!(p.hops(), 3);
        assert_eq!(t.hops(0, 2), 3);
        assert_eq!(
            p.links(),
            &[
                t.inj_link(0),
                t.up_link(1, 0, 0),
                t.down_link(1, 1, 0),
                t.ej_link(2)
            ]
        );
        // Frames under different tier-1 groups climb to tier 2.
        let p = t.path(0, 6, 1);
        assert_eq!(p.hops(), 5);
        assert_eq!(t.hops(0, 6), 5);
        assert_eq!(
            p.links(),
            &[
                t.inj_link(0),
                t.up_link(1, 0, 1),
                t.up_link(2, 0, 1),
                t.down_link(2, 1, 1),
                t.down_link(1, 3, 1),
                t.ej_link(6)
            ]
        );
    }

    #[test]
    fn fat_tree_link_ids_are_dense_and_classify_back() {
        let t = Topology::fat_tree_custom(3, 2, 2, 3, 4);
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..t.nodes() {
            assert!(seen.insert(t.inj_link(n)));
            assert!(seen.insert(t.ej_link(n)));
        }
        for tier in 1..=t.spine_tiers() {
            for unit in 0..t.tier_units(tier) {
                for lane in 0..t.tier_lanes(tier) {
                    let up = t.up_link(tier, unit, lane);
                    let down = t.down_link(tier, unit, lane);
                    assert!(seen.insert(up));
                    assert!(seen.insert(down));
                    assert_eq!(t.classify_link(up), LinkClass::Up { tier, unit, lane });
                    assert_eq!(t.classify_link(down), LinkClass::Down { tier, unit, lane });
                    assert!(t.cable_index(up).is_some());
                }
            }
        }
        assert_eq!(seen.len(), t.num_links());
        assert!(seen.iter().all(|&l| (l as usize) < t.num_links()));
        assert_eq!(t.classify_link(t.inj_link(2)), LinkClass::Inj(2));
        assert_eq!(t.classify_link(t.ej_link(2)), LinkClass::Ej(2));
    }

    #[test]
    fn multi_frame_links_classify_back() {
        let t = Topology::multi_frame(3, 4);
        assert_eq!(
            t.classify_link(t.cable(2, 1, 3)),
            LinkClass::Cable {
                from: 2,
                to: 1,
                lane: 3
            }
        );
    }

    #[test]
    #[should_panic(expected = "16 ports")]
    fn oversized_frame_rejected() {
        Topology::single_frame(17);
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn too_deep_fat_tree_rejected() {
        Topology::fat_tree(5, 2, 1);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_has_no_path() {
        Topology::single_frame(2).path(1, 1, 0);
    }
}
