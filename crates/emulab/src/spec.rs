//! Experiment specifications: the static part of an Emulab experiment.
//!
//! "To use the Emulab testbed, a user creates an experiment that defines
//! the static and dynamic configuration of a network. The static part
//! describes the devices in the network, the links between them, and the
//! configuration of these elements" (§2). The dynamic part — the programs
//! a run starts — is started on a swapped-in experiment with
//! [`Testbed::spawn`](crate::Testbed::spawn).

use std::collections::HashSet;

use sim::SimDuration;

use crate::errors::SpecError;

/// One experiment node (a PC running the user's chosen image).
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Node name within the experiment (e.g. "node0").
    pub name: String,
    /// Base image to load (looked up in the testbed image library).
    pub image: String,
}

/// A shaped point-to-point link. Emulab realizes non-trivial shaping by
/// interposing a delay node (§2), which the builder does automatically.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    pub a: String,
    pub b: String,
    /// Shaped bandwidth, bits/s.
    pub bandwidth_bps: u64,
    /// One-way latency.
    pub delay: SimDuration,
    /// Random loss rate.
    pub loss: f64,
}

/// A shared experiment LAN (switched; per-port rate).
#[derive(Clone, Debug)]
pub struct LanSpec {
    pub members: Vec<String>,
    /// Port bandwidth, bits/s.
    pub bandwidth_bps: u64,
    /// Switch latency.
    pub delay: SimDuration,
}

/// A complete experiment description.
#[derive(Clone, Debug, Default)]
pub struct ExperimentSpec {
    pub name: String,
    pub nodes: Vec<NodeSpec>,
    pub links: Vec<LinkSpec>,
    pub lans: Vec<LanSpec>,
}

impl ExperimentSpec {
    /// Starts a new spec.
    pub fn new(name: &str) -> Self {
        ExperimentSpec {
            name: name.to_string(),
            ..ExperimentSpec::default()
        }
    }

    /// Adds a node with the default FC4 image.
    pub fn node(mut self, name: &str) -> Self {
        self.nodes.push(NodeSpec {
            name: name.to_string(),
            image: "FC4-STD".to_string(),
        });
        self
    }

    /// Adds a node running a specific image from the testbed library.
    pub fn node_with_image(mut self, name: &str, image: &str) -> Self {
        self.nodes.push(NodeSpec {
            name: name.to_string(),
            image: image.to_string(),
        });
        self
    }

    /// Adds a shaped link between two nodes.
    pub fn link(mut self, a: &str, b: &str, bandwidth_bps: u64, delay: SimDuration, loss: f64) -> Self {
        self.links.push(LinkSpec {
            a: a.to_string(),
            b: b.to_string(),
            bandwidth_bps,
            delay,
            loss,
        });
        self
    }

    /// Builds a star: `hub` at the center, `leaves` leaf nodes each on a
    /// shaped link to the hub. The workhorse shape for scale-out
    /// experiments — a 1,000-leaf star is `star("big", 1000, ...)`.
    pub fn star(
        name: &str,
        leaves: u32,
        bandwidth_bps: u64,
        delay: SimDuration,
    ) -> Self {
        let mut s = ExperimentSpec::new(name).node("hub");
        s.nodes.reserve(leaves as usize);
        s.links.reserve(leaves as usize);
        for i in 0..leaves {
            let leaf = format!("leaf{i}");
            s.nodes.push(NodeSpec {
                name: leaf.clone(),
                image: "FC4-STD".to_string(),
            });
            s.links.push(LinkSpec {
                a: "hub".to_string(),
                b: leaf,
                bandwidth_bps,
                delay,
                loss: 0.0,
            });
        }
        s
    }

    /// Builds a complete `fanout`-ary tree of the given `depth` (depth 0
    /// is just the root `n0`). Interior links get `trunk_delay`; links to
    /// the deepest level get `leaf_delay` — the usual fat-trunk,
    /// thin-edge testbed shape.
    pub fn tree(
        name: &str,
        fanout: u32,
        depth: u32,
        bandwidth_bps: u64,
        trunk_delay: SimDuration,
        leaf_delay: SimDuration,
    ) -> Self {
        assert!(fanout >= 1, "tree fanout must be at least 1");
        let mut s = ExperimentSpec::new(name).node("n0");
        let mut level: Vec<u64> = vec![0];
        let mut next_id: u64 = 1;
        for d in 0..depth {
            let delay = if d + 1 == depth { leaf_delay } else { trunk_delay };
            let mut next_level = Vec::with_capacity(level.len() * fanout as usize);
            for &parent in &level {
                for _ in 0..fanout {
                    let child = next_id;
                    next_id += 1;
                    s.nodes.push(NodeSpec {
                        name: format!("n{child}"),
                        image: "FC4-STD".to_string(),
                    });
                    s.links.push(LinkSpec {
                        a: format!("n{parent}"),
                        b: format!("n{child}"),
                        bandwidth_bps,
                        delay,
                        loss: 0.0,
                    });
                    next_level.push(child);
                }
            }
            level = next_level;
        }
        s
    }

    /// Adds a LAN over the named members.
    pub fn lan(mut self, members: &[&str], bandwidth_bps: u64, delay: SimDuration) -> Self {
        self.lans.push(LanSpec {
            members: members.iter().map(|s| s.to_string()).collect(),
            bandwidth_bps,
            delay,
        });
        self
    }

    /// Validates the topology (every link/LAN endpoint exists, node
    /// names unique) and the shaping parameters (nonzero bandwidth, link
    /// loss in `[0, 1]`). Hashed lookups keep this O(nodes + endpoints) so a
    /// 10,000-node star validates in microseconds, not the O(n²) a
    /// linear name scan would cost.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut names: HashSet<&str> = HashSet::with_capacity(self.nodes.len());
        for n in &self.nodes {
            if !names.insert(n.name.as_str()) {
                return Err(SpecError::DuplicateNodeName {
                    name: n.name.clone(),
                });
            }
        }
        for l in &self.links {
            if !names.contains(l.a.as_str()) || !names.contains(l.b.as_str()) {
                return Err(SpecError::UnknownLinkEndpoint {
                    a: l.a.clone(),
                    b: l.b.clone(),
                });
            }
            if l.bandwidth_bps == 0 {
                return Err(SpecError::ZeroLinkBandwidth {
                    a: l.a.clone(),
                    b: l.b.clone(),
                });
            }
            if !(0.0..=1.0).contains(&l.loss) {
                return Err(SpecError::LinkLossOutOfRange {
                    a: l.a.clone(),
                    b: l.b.clone(),
                    loss: l.loss,
                });
            }
        }
        for (i, lan) in self.lans.iter().enumerate() {
            for m in &lan.members {
                if !names.contains(m.as_str()) {
                    return Err(SpecError::UnknownLanMember { member: m.clone() });
                }
            }
            if lan.bandwidth_bps == 0 {
                return Err(SpecError::ZeroLanBandwidth { lan: i });
            }
        }
        Ok(())
    }

    /// Physical machines this experiment maps onto: one per node plus one
    /// delay node per shaped link (§2).
    pub fn machines_needed(&self) -> usize {
        self.nodes.len() + self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_topology() {
        let s = ExperimentSpec::new("iperf")
            .node("a")
            .node("b")
            .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
        assert!(s.validate().is_ok());
        assert_eq!(s.machines_needed(), 3, "2 nodes + 1 delay node");
    }

    #[test]
    fn validation_catches_unknown_nodes() {
        let s = ExperimentSpec::new("bad").node("a").link(
            "a",
            "ghost",
            1,
            SimDuration::ZERO,
            0.0,
        );
        assert!(matches!(
            s.validate(),
            Err(SpecError::UnknownLinkEndpoint { .. })
        ));
    }

    #[test]
    fn star_builder_scales_to_thousands() {
        let s = ExperimentSpec::star("big", 1000, 100_000_000, SimDuration::from_millis(5));
        assert_eq!(s.nodes.len(), 1001);
        assert_eq!(s.links.len(), 1000);
        assert!(s.validate().is_ok());
        assert!(s.links.iter().all(|l| l.a == "hub"));
    }

    #[test]
    fn tree_builder_shapes_delays_by_level() {
        // fanout 3, depth 2: 1 + 3 + 9 = 13 nodes, 12 links.
        let trunk = SimDuration::from_millis(5);
        let leaf = SimDuration::from_micros(500);
        let s = ExperimentSpec::tree("t", 3, 2, 1_000_000_000, trunk, leaf);
        assert_eq!(s.nodes.len(), 13);
        assert_eq!(s.links.len(), 12);
        assert!(s.validate().is_ok());
        assert_eq!(s.links.iter().filter(|l| l.delay == trunk).count(), 3);
        assert_eq!(s.links.iter().filter(|l| l.delay == leaf).count(), 9);
    }

    #[test]
    fn validation_catches_duplicates() {
        let s = ExperimentSpec::new("bad").node("a").node("a");
        assert_eq!(
            s.validate(),
            Err(SpecError::DuplicateNodeName { name: "a".to_string() })
        );
    }
}
