//! Engine selection.

use laue_core::gpu::{GpuOptions, Layout, PipelineDepth, Triangulation};

/// Which implementation reconstructs the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's baseline: the prior sequential CPU program.
    CpuSeq,
    /// Row-parallel CPU variant on `threads` OS threads.
    CpuThreaded { threads: usize },
    /// The paper's CUDA design on the simulated device.
    Gpu { layout: Layout },
    /// GPU with host-precomputed depth tables (the paper's
    /// `edge`/`gpuPointArray` design point).
    GpuTables,
    /// k-deep ring-buffered three-stream GPU pipeline (the transfer/compute
    /// overlap ablation; ring depth defaults to 3 and is overridden by
    /// `ReconstructionConfig::pipeline_depth`).
    GpuPipelined,
    /// `nodes` chassis of `devices_per_node` GPUs each, linked by a metered
    /// interconnect: row bands shard across nodes, each node splits its
    /// band over its devices inside its own PCIe domain, every device runs
    /// the k-deep ring, and the depth image gathers back to the head node
    /// over tree or ring routes. A device that dies mid-run has its rows
    /// requeued onto its node's survivors; a node whose devices all die has
    /// its rows re-banded onto the surviving nodes. `nodes: 1` is a
    /// single-chassis fleet (the CLI's `gpu-multi:N`).
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
            Engine::Gpu {
                layout: Layout::Flat1d,
            } => "gpu-1d".to_string(),
            Engine::Gpu {
                layout: Layout::Pointer3d,
            } => "gpu-3d".to_string(),
            Engine::GpuTables => "gpu-tables".to_string(),
            Engine::GpuPipelined => "gpu-pipe".to_string(),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => format!("gpu-cluster({nodes}x{devices_per_node})"),
        }
    }

    /// The `(nodes, devices_per_node)` topology a GPU engine runs on:
    /// `1 × 1` for the single-device engines. `None` for the CPU engines.
    pub fn topology(&self) -> Option<(usize, usize)> {
        match *self {
            Engine::CpuSeq | Engine::CpuThreaded { .. } => None,
            Engine::Gpu { .. } | Engine::GpuTables | Engine::GpuPipelined => Some((1, 1)),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => Some((nodes, devices_per_node)),
        }
    }

    /// The device schedule this engine stands for: kernel options plus ring
    /// depth. `None` for the CPU engines. The serial engines keep the
    /// paper's one-slot pipeline (so `elapsed == comm + compute` holds
    /// exactly); `gpu-pipe` rings [`PipelineDepth::DEFAULT`] slots deep.
    /// `ReconstructionConfig::pipeline_depth` overrides the depth either way.
    pub fn gpu_plan(&self) -> Option<(GpuOptions, PipelineDepth)> {
        let (opts, depth) = match self {
            Engine::CpuSeq | Engine::CpuThreaded { .. } => return None,
            Engine::Gpu { layout } => (
                GpuOptions {
                    layout: *layout,
                    triangulation: Triangulation::InKernel,
                    ..GpuOptions::default()
                },
                PipelineDepth::SERIAL,
            ),
            Engine::GpuTables => (
                GpuOptions {
                    layout: Layout::Flat1d,
                    triangulation: Triangulation::HostTables,
                    ..GpuOptions::default()
                },
                PipelineDepth::SERIAL,
            ),
            Engine::GpuPipelined | Engine::GpuCluster { .. } => (
                GpuOptions {
                    layout: Layout::Flat1d,
                    triangulation: Triangulation::InKernel,
                    ..GpuOptions::default()
                },
                PipelineDepth::DEFAULT,
            ),
        };
        Some((opts, depth))
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
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
            Engine::Gpu {
                layout: Layout::Pointer3d,
            },
            Engine::GpuTables,
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
        assert!(Engine::CpuSeq.gpu_plan().is_none());
        assert!(Engine::GpuPipelined.gpu_plan().is_some());
        assert!(Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 2
        }
        .gpu_plan()
        .is_some());
        assert!(Engine::GpuCluster {
            nodes: 2,
            devices_per_node: 2
        }
        .gpu_plan()
        .is_some());
        assert_eq!(Engine::CpuSeq.topology(), None);
        assert_eq!(Engine::GpuTables.topology(), Some((1, 1)));
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
