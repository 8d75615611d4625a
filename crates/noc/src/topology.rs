//! Grid geometry for the fabric builders: where a node sits in the
//! `width × height` grid and who its four neighbours are. Routes are the
//! generic BFS tables of [`FabricSpec`](crate::FabricSpec); the reference
//! dimension-order router they are checked against lives with its tests
//! in `tests/fabric_routing.rs`.

use crate::NodeId;

/// One of the four inter-router link directions of a 2D torus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing x, wrapping.
    XPlus,
    /// Decreasing x, wrapping.
    XMinus,
    /// Increasing y, wrapping.
    YPlus,
    /// Decreasing y, wrapping.
    YMinus,
}

impl Direction {
    /// All directions; the index of each direction in this array is its
    /// per-node link index.
    pub const ALL: [Direction; 4] = [
        Direction::XPlus,
        Direction::XMinus,
        Direction::YPlus,
        Direction::YMinus,
    ];
}

/// The shape of a 2D torus: a `width × height` grid with wraparound links.
///
/// Node `i` sits at coordinates `(i % width, i / width)`. Construction
/// chooses the most nearly square factorization of the node count, matching
/// the paper's torus configurations (e.g. 64 nodes → 8×8, 512 → 32×16).
///
/// # Examples
///
/// ```
/// use patchsim_noc::{NodeId, Topology};
///
/// let t = Topology::new(64);
/// assert_eq!((t.width(), t.height()), (8, 8));
/// assert_eq!(t.coords(NodeId::new(63)), (7, 7));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    width: u16,
    height: u16,
}

impl Topology {
    /// Creates the most nearly square torus with `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: u16) -> Self {
        assert!(num_nodes > 0, "a torus needs at least one node");
        let mut best = (1u16, num_nodes);
        let mut w = 1u16;
        while w as u32 * w as u32 <= num_nodes as u32 {
            if num_nodes.is_multiple_of(w) {
                best = (w, num_nodes / w);
            }
            w += 1;
        }
        // Prefer width >= height for row-major layouts (purely cosmetic).
        Topology {
            width: best.1,
            height: best.0,
        }
    }

    /// Grid width.
    pub fn width(self) -> u16 {
        self.width
    }

    /// Grid height.
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total node count.
    pub fn num_nodes(self) -> u16 {
        self.width * self.height
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(self, node: NodeId) -> (u16, u16) {
        assert!(node.raw() < self.num_nodes(), "{node} out of range");
        (node.raw() % self.width, node.raw() / self.width)
    }

    /// The node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside grid");
        NodeId::new(y * self.width + x)
    }

    /// The neighbor of `node` in direction `dir`.
    pub fn neighbor(self, node: NodeId, dir: Direction) -> NodeId {
        let (x, y) = self.coords(node);
        let (nx, ny) = match dir {
            Direction::XPlus => ((x + 1) % self.width, y),
            Direction::XMinus => ((x + self.width - 1) % self.width, y),
            Direction::YPlus => (x, (y + 1) % self.height),
            Direction::YMinus => (x, (y + self.height - 1) % self.height),
        };
        self.node_at(nx, ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarest_factorization() {
        assert_eq!(Topology::new(4).width(), 2);
        assert_eq!(Topology::new(16).width(), 4);
        assert_eq!(Topology::new(64).width(), 8);
        let t = Topology::new(128);
        assert_eq!((t.width(), t.height()), (16, 8));
        let t = Topology::new(512);
        assert_eq!((t.width(), t.height()), (32, 16));
        let t = Topology::new(6);
        assert_eq!((t.width(), t.height()), (3, 2));
    }

    #[test]
    fn coords_round_trip() {
        let t = Topology::new(12);
        for i in 0..12 {
            let n = NodeId::new(i);
            let (x, y) = t.coords(n);
            assert_eq!(t.node_at(x, y), n);
        }
    }

    #[test]
    fn neighbors_wrap() {
        let t = Topology::new(16); // 4x4
        assert_eq!(t.neighbor(NodeId::new(3), Direction::XPlus), NodeId::new(0));
        assert_eq!(
            t.neighbor(NodeId::new(0), Direction::XMinus),
            NodeId::new(3)
        );
        assert_eq!(
            t.neighbor(NodeId::new(0), Direction::YMinus),
            NodeId::new(12)
        );
        assert_eq!(
            t.neighbor(NodeId::new(12), Direction::YPlus),
            NodeId::new(0)
        );
    }

    /// The factorization always multiplies back to the node count
    /// (checked exhaustively for every size the paper's sweeps use).
    #[test]
    fn factorization_exact() {
        for n in 1u16..1024 {
            let t = Topology::new(n);
            assert_eq!(t.width() as u32 * t.height() as u32, n as u32);
            assert!(t.width() >= t.height());
        }
    }
}
