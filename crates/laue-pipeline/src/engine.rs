//! Engine selection.

/// Which implementation reconstructs the scan. A GPU engine names only the
/// topology it runs on; the schedule each device runs (layout,
/// triangulation, ring depth, slab rows) is the run's
/// [`laue_core::PlanMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's baseline: the prior sequential CPU program.
    CpuSeq,
    /// Row-parallel CPU variant on `threads` OS threads.
    CpuThreaded { threads: usize },
    /// One simulated device (a `1 × 1` topology) running the planned or
    /// pinned schedule — by default the 3-slot transfer/compute ring.
    GpuPipelined,
    /// `nodes` chassis of `devices_per_node` GPUs each, linked by a metered
    /// interconnect: row bands shard across nodes, each node splits its
    /// band over its devices inside its own PCIe domain, every device runs
    /// the planned or pinned schedule, and the depth image gathers back to
    /// the head node over tree or ring routes. A device that dies mid-run
    /// has its rows requeued onto its node's survivors; a node whose
    /// devices all die has its rows re-banded onto the surviving nodes.
    GpuCluster {
        nodes: usize,
        devices_per_node: usize,
    },
}

impl Engine {
    /// Short label for reports and bench output.
    pub fn label(&self) -> String {
        match self {
            Engine::CpuSeq => "cpu-seq".to_string(),
            Engine::CpuThreaded { threads } => format!("cpu-threaded({threads})"),
            Engine::GpuPipelined => "gpu-pipe".to_string(),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => format!("gpu-cluster({nodes}x{devices_per_node})"),
        }
    }

    /// The `(nodes, devices_per_node)` topology a GPU engine runs on:
    /// `1 × 1` for `gpu-pipe`. `None` for the CPU engines.
    pub fn topology(&self) -> Option<(usize, usize)> {
        match *self {
            Engine::CpuSeq | Engine::CpuThreaded { .. } => None,
            Engine::GpuPipelined => Some((1, 1)),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => Some((nodes, devices_per_node)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let engines = [
            Engine::CpuSeq,
            Engine::CpuThreaded { threads: 4 },
            Engine::GpuPipelined,
            Engine::GpuCluster {
                nodes: 1,
                devices_per_node: 4,
            },
            Engine::GpuCluster {
                nodes: 4,
                devices_per_node: 1,
            },
        ];
        let labels: Vec<String> = engines.iter().map(|e| e.label()).collect();
        for i in 0..labels.len() {
            for j in i + 1..labels.len() {
                assert_ne!(labels[i], labels[j]);
            }
        }
        assert_eq!(Engine::CpuSeq.topology(), None);
        assert_eq!(Engine::GpuPipelined.topology(), Some((1, 1)));
        assert_eq!(
            Engine::GpuCluster {
                nodes: 4,
                devices_per_node: 2
            }
            .topology(),
            Some((4, 2))
        );
    }
}
