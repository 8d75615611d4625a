//! The four destination-set policies evaluated in the paper.

use patchsim_mem::{AccessKind, BlockAddr};
use patchsim_noc::{DestSet, NodeId};

use crate::{Predictor, PredictorTable};

/// Which destination-set policy to use; the names match the paper's
/// configurations (Figure 4's x-axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictorChoice {
    /// PATCH-None: never send direct requests.
    None,
    /// PATCH-Owner: direct request to the predicted owner only.
    Owner,
    /// PATCH-BcastIfShared: broadcast for recently shared macroblocks.
    BroadcastIfShared,
    /// PATCH-All: broadcast every miss.
    All,
}

impl PredictorChoice {
    /// Instantiates the chosen policy for one node of an `num_nodes`-node
    /// system, over a table of its own if the policy trains one.
    pub fn build(self, num_nodes: u16) -> Box<dyn Predictor + Send> {
        match self {
            PredictorChoice::None => Box::new(NonePredictor::new(num_nodes)),
            PredictorChoice::Owner => Box::new(OwnerPredictor::new(num_nodes)),
            PredictorChoice::BroadcastIfShared => {
                Box::new(BroadcastIfSharedPredictor::new(num_nodes))
            }
            PredictorChoice::All => Box::new(AllPredictor::new(num_nodes)),
        }
    }

    /// Instantiates the chosen policy for every node of an `num_nodes`-node
    /// system, node `v`'s at index `v`. The trained policies' tables are the
    /// columns of one store (see [`PredictorTable::columns`]); the others
    /// build no table.
    ///
    /// # Examples
    ///
    /// ```
    /// use patchsim_mem::{AccessKind, BlockAddr};
    /// use patchsim_noc::NodeId;
    /// use patchsim_predictor::PredictorChoice;
    ///
    /// let mut nodes = PredictorChoice::Owner.build_nodes(4);
    /// nodes[2].observe_response(BlockAddr::new(0), NodeId::new(3));
    /// let at_2 = nodes[2].predict(BlockAddr::new(0), AccessKind::Read, NodeId::new(2));
    /// assert_eq!(at_2.as_single(), Some(NodeId::new(3)));
    /// let at_1 = nodes[1].predict(BlockAddr::new(0), AccessKind::Read, NodeId::new(1));
    /// assert!(at_1.is_empty(), "node 1 saw nothing");
    /// ```
    pub fn build_nodes(self, num_nodes: u16) -> Vec<Box<dyn Predictor + Send>> {
        let columns = || PredictorTable::columns(num_nodes).into_iter();
        match self {
            PredictorChoice::Owner => columns()
                .map(|table| Box::new(OwnerPredictor { table }) as Box<dyn Predictor + Send>)
                .collect(),
            PredictorChoice::BroadcastIfShared => columns()
                .map(|table| Box::new(BroadcastIfSharedPredictor { table }) as _)
                .collect(),
            PredictorChoice::None | PredictorChoice::All => {
                (0..num_nodes).map(|_| self.build(num_nodes)).collect()
            }
        }
    }

    /// The label used in figures ("PATCH-None", "PATCH-All", ...).
    pub fn label(self) -> &'static str {
        match self {
            PredictorChoice::None => "None",
            PredictorChoice::Owner => "Owner",
            PredictorChoice::BroadcastIfShared => "BcastIfShared",
            PredictorChoice::All => "All",
        }
    }
}

impl std::fmt::Display for PredictorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Sends no direct requests: every miss goes only to the home
/// (PATCH-None). The resulting protocol behaves like DIRECTORY with token
/// counting.
#[derive(Debug)]
pub struct NonePredictor {
    num_nodes: u16,
}

impl NonePredictor {
    /// Creates the policy for an `num_nodes`-node system.
    pub fn new(num_nodes: u16) -> Self {
        NonePredictor { num_nodes }
    }
}

impl Predictor for NonePredictor {
    fn predict(&mut self, _addr: BlockAddr, _kind: AccessKind, _requester: NodeId) -> DestSet {
        DestSet::empty(self.num_nodes)
    }
    fn observe_request(&mut self, _addr: BlockAddr, _from: NodeId) {}
    fn observe_response(&mut self, _addr: BlockAddr, _from: NodeId) {}
}

/// Broadcasts a direct request to every other processor on every miss
/// (PATCH-All). With best-effort delivery this is the paper's headline
/// configuration.
#[derive(Debug)]
pub struct AllPredictor {
    num_nodes: u16,
}

impl AllPredictor {
    /// Creates the policy for an `num_nodes`-node system.
    pub fn new(num_nodes: u16) -> Self {
        AllPredictor { num_nodes }
    }
}

impl Predictor for AllPredictor {
    fn predict(&mut self, _addr: BlockAddr, _kind: AccessKind, requester: NodeId) -> DestSet {
        DestSet::all_except(self.num_nodes, requester)
    }
    fn observe_request(&mut self, _addr: BlockAddr, _from: NodeId) {}
    fn observe_response(&mut self, _addr: BlockAddr, _from: NodeId) {}
}

/// Predicts the block's owner and sends a single direct request to it
/// (PATCH-Owner). Trained by data responses: the last responder for a
/// macroblock is the owner candidate.
#[derive(Debug)]
pub struct OwnerPredictor {
    table: PredictorTable,
}

impl OwnerPredictor {
    /// Creates the policy with the paper's 8192-entry, 1024-byte-macroblock
    /// table.
    pub fn new(num_nodes: u16) -> Self {
        OwnerPredictor {
            table: PredictorTable::new(num_nodes),
        }
    }
}

impl Predictor for OwnerPredictor {
    fn predict(&mut self, addr: BlockAddr, _kind: AccessKind, requester: NodeId) -> DestSet {
        match self.table.last_owner(addr) {
            Some(owner) if owner != requester => DestSet::single(self.table.num_nodes(), owner),
            _ => DestSet::empty(self.table.num_nodes()),
        }
    }

    fn observe_request(&mut self, addr: BlockAddr, from: NodeId) {
        self.table.record_requester(addr, from);
    }

    fn observe_response(&mut self, addr: BlockAddr, from: NodeId) {
        self.table.record_responder(addr, from);
    }
}

/// Broadcasts direct requests for macroblocks recently involved with other
/// processors, and sends none otherwise (PATCH-BcastIfShared). Captures
/// most of PATCH-All's latency benefit at a fraction of its traffic.
#[derive(Debug)]
pub struct BroadcastIfSharedPredictor {
    table: PredictorTable,
}

impl BroadcastIfSharedPredictor {
    /// Creates the policy with the paper's default table geometry.
    pub fn new(num_nodes: u16) -> Self {
        BroadcastIfSharedPredictor {
            table: PredictorTable::new(num_nodes),
        }
    }
}

impl Predictor for BroadcastIfSharedPredictor {
    fn predict(&mut self, addr: BlockAddr, _kind: AccessKind, requester: NodeId) -> DestSet {
        if self.table.recently_shared(addr, requester) {
            DestSet::all_except(self.table.num_nodes(), requester)
        } else {
            DestSet::empty(self.table.num_nodes())
        }
    }

    fn observe_request(&mut self, addr: BlockAddr, from: NodeId) {
        self.table.record_requester(addr, from);
    }

    fn observe_response(&mut self, addr: BlockAddr, from: NodeId) {
        self.table.record_responder(addr, from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn none_predicts_nothing_ever() {
        let mut p = NonePredictor::new(16);
        p.observe_response(a(0), NodeId::new(3));
        assert!(p
            .predict(a(0), AccessKind::Write, NodeId::new(0))
            .is_empty());
    }

    #[test]
    fn all_predicts_everyone_but_self() {
        let mut p = AllPredictor::new(16);
        let set = p.predict(a(0), AccessKind::Read, NodeId::new(5));
        assert_eq!(set.len(), 15);
        assert!(!set.contains(NodeId::new(5)));
    }

    #[test]
    fn owner_predicts_last_responder() {
        let mut p = OwnerPredictor::new(16);
        assert!(p.predict(a(0), AccessKind::Read, NodeId::new(0)).is_empty());
        p.observe_response(a(0), NodeId::new(7));
        let set = p.predict(a(1), AccessKind::Write, NodeId::new(0));
        assert_eq!(set.as_single(), Some(NodeId::new(7)));
    }

    #[test]
    fn owner_never_predicts_self() {
        let mut p = OwnerPredictor::new(16);
        p.observe_response(a(0), NodeId::new(2));
        assert!(p.predict(a(0), AccessKind::Read, NodeId::new(2)).is_empty());
    }

    #[test]
    fn broadcast_if_shared_gates_on_sharing() {
        let mut p = BroadcastIfSharedPredictor::new(16);
        let me = NodeId::new(0);
        assert!(p.predict(a(0), AccessKind::Read, me).is_empty());
        p.observe_request(a(0), NodeId::new(9));
        let set = p.predict(a(0), AccessKind::Read, me);
        assert_eq!(set.len(), 15);
        assert!(!set.contains(me));
        // A macroblock only this node has touched stays quiet.
        p.observe_request(a(1000), me);
        assert!(p.predict(a(1000), AccessKind::Read, me).is_empty());
    }

    /// Each node's predictor trains on what that node observes only, and
    /// predicts as a predictor built on its own would.
    #[test]
    fn nodes_of_one_system_train_apart() {
        for choice in [PredictorChoice::Owner, PredictorChoice::BroadcastIfShared] {
            let mut nodes = choice.build_nodes(4);
            let mut alone = choice.build(4);
            nodes[2].observe_response(a(0), NodeId::new(3));
            alone.observe_response(a(0), NodeId::new(3));
            for me in (0..4).map(NodeId::new) {
                let want = alone.predict(a(0), AccessKind::Read, me);
                assert!(!want.is_empty() || me == NodeId::new(3));
                assert_eq!(nodes[2].predict(a(0), AccessKind::Read, me), want);
                assert!(nodes[1].predict(a(0), AccessKind::Read, me).is_empty());
            }
        }
        for choice in [PredictorChoice::None, PredictorChoice::All] {
            assert_eq!(choice.build_nodes(4).len(), 4);
        }
    }

    #[test]
    fn choice_builds_and_labels() {
        for (choice, label) in [
            (PredictorChoice::None, "None"),
            (PredictorChoice::Owner, "Owner"),
            (PredictorChoice::BroadcastIfShared, "BcastIfShared"),
            (PredictorChoice::All, "All"),
        ] {
            assert_eq!(choice.label(), label);
            let mut built = choice.build(8);
            // Smoke: prediction for a fresh address never includes self.
            let set = built.predict(a(0), AccessKind::Read, NodeId::new(1));
            assert!(!set.contains(NodeId::new(1)));
        }
    }
}
