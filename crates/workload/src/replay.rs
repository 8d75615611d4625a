//! In-memory recorded traces: the replay side of the trace subsystem.
//!
//! A [`TraceData`] is the decoded form of a recorded run: one
//! [`WorkItem`] stream per core, plus the metadata needed to rebuild the
//! exact simulation that produced it (workload label, root seed, node
//! count, and the table-sizing hint the recording run used). The on-disk
//! encoding lives in the `patchsim-trace` crate; replay happens by
//! wrapping a `TraceData` in
//! [`WorkloadSpec::Trace`](crate::WorkloadSpec::Trace), which turns every
//! core's generator into a cursor over its recorded stream.

use crate::generator::WorkItem;

/// A fully decoded trace: per-core access streams plus recording
/// metadata.
///
/// Replay is bit-identical by construction: the streams carry every
/// address, access kind, and think time the recorded run's generators
/// produced, in issue order, and nothing else in the simulator draws from
/// the workload RNG stream — so a replayed run processes the identical
/// event sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceData {
    /// The recorded workload's display name (e.g. `"oltp"`).
    pub label: String,
    /// The root seed of the recorded run. Replays must reuse it so
    /// seed-derived streams *other* than the workload's (e.g. the fault
    /// schedule) reproduce too.
    pub seed: u64,
    /// The recorded system's core count. A trace only replays on a
    /// system of exactly this size.
    pub num_nodes: u16,
    /// The recording run's working-set estimate, in blocks: its explicit
    /// hint, else its workload's footprint. Metadata only; no table is
    /// sized from it, and a replay reports it verbatim.
    pub working_set_blocks: u64,
    /// One recorded [`WorkItem`] stream per core, in issue order.
    pub streams: Vec<Vec<WorkItem>>,
}

impl TraceData {
    /// An empty trace shell for `num_nodes` cores, ready for a recorder
    /// to append items to.
    pub fn empty(label: &str, seed: u64, num_nodes: u16, working_set_blocks: u64) -> Self {
        TraceData {
            label: label.to_string(),
            seed,
            num_nodes,
            working_set_blocks,
            streams: vec![Vec::new(); num_nodes as usize],
        }
    }

    /// Total recorded items across all cores.
    pub fn total_items(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Number of distinct blocks the trace touches: an exact count, used
    /// in summaries, where
    /// [`working_set_blocks`](TraceData::working_set_blocks) is the
    /// recording run's estimate.
    pub fn distinct_blocks(&self) -> u64 {
        let mut blocks: Vec<u64> = self
            .streams
            .iter()
            .flat_map(|s| s.iter().map(|item| item.addr.raw()))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchsim_mem::{AccessKind, BlockAddr};

    fn item(addr: u64, write: bool) -> WorkItem {
        WorkItem {
            addr: BlockAddr::new(addr),
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            think_cycles: 3,
        }
    }

    #[test]
    fn empty_shell_has_one_stream_per_core() {
        let t = TraceData::empty("x", 7, 4, 64);
        assert_eq!(t.streams.len(), 4);
        assert_eq!(t.total_items(), 0);
        assert_eq!(t.distinct_blocks(), 0);
    }

    #[test]
    fn distinct_blocks_dedups_across_cores() {
        let mut t = TraceData::empty("x", 7, 2, 64);
        t.streams[0] = vec![item(5, false), item(9, true), item(5, true)];
        t.streams[1] = vec![item(9, false), item(11, false)];
        assert_eq!(t.total_items(), 5);
        assert_eq!(t.distinct_blocks(), 3);
    }
}
