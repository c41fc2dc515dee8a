//! Analytic device performance models.
//!
//! The paper measures real runtimes on the three platforms of Table 4 (an
//! Intel Core i7-3820 CPU, an AMD Tahiti 7970 GPU and an NVIDIA GTX 970 GPU).
//! Without that hardware, this module supplies roofline-style analytic models
//! parameterised to the same platforms. The absolute times produced are not
//! meaningful; what matters for the predictive-modeling experiments is the
//! *relative* CPU-vs-GPU behaviour: GPUs win when there is enough parallel
//! compute and memory traffic to amortise the host-device transfer and launch
//! overhead, CPUs win on small or transfer-dominated workloads, and branch
//! divergence / non-coalesced access erodes GPU throughput.

/// Whether a device is a CPU or a discrete GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Host CPU (no PCIe transfer required).
    Cpu,
    /// Discrete GPU behind a PCIe link.
    Gpu,
}

/// An analytic device model.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Human-readable device name (matches Table 4).
    pub name: String,
    /// CPU or GPU.
    pub kind: DeviceKind,
    /// Number of hardware cores / shader units (Table 4).
    pub cores: u32,
    /// Core clock in GHz (Table 4).
    pub clock_ghz: f64,
    /// Peak single-precision throughput in GFLOPS (Table 4).
    pub peak_gflops: f64,
    /// Fraction of peak realistically sustained by compiled kernels.
    pub compute_efficiency: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host-device transfer bandwidth in GB/s (effectively infinite for CPUs).
    pub transfer_bandwidth_gbps: f64,
    /// Fixed per-transfer latency in microseconds.
    pub transfer_latency_us: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Multiplier applied to compute time per unit of branch fraction
    /// (models SIMT divergence; ~0 for CPUs).
    pub divergence_penalty: f64,
    /// Effective bandwidth divisor for non-coalesced global accesses.
    pub coalescing_penalty: f64,
}

/// A summary of the dynamic work a kernel launch performs, in device-neutral
/// units. Produced by the host driver from interpreter counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkloadProfile {
    /// Total work items in the NDRange.
    pub work_items: f64,
    /// Total arithmetic operations across all work items.
    pub compute_ops: f64,
    /// Total bytes read/written in global memory.
    pub global_bytes: f64,
    /// Total bytes read/written in local memory.
    pub local_bytes: f64,
    /// Fraction of global accesses that are coalesced (0..1).
    pub coalesced_fraction: f64,
    /// Branch operations as a fraction of all operations (0..1).
    pub branch_fraction: f64,
    /// Bytes transferred between host and device for this launch.
    pub transfer_bytes: f64,
}

/// A single estimated runtime, split into its components (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeEstimate {
    /// Host-device transfer time.
    pub transfer: f64,
    /// Kernel compute time (roofline compute leg).
    pub compute: f64,
    /// Kernel memory time (roofline bandwidth leg).
    pub memory: f64,
    /// Fixed overheads (launch, transfer latency).
    pub overhead: f64,
}

impl RuntimeEstimate {
    /// Total wall-clock seconds: overheads + transfer + max(compute, memory).
    ///
    /// The paper's measured execution time "includes both device compute time
    /// and the data transfer overheads", so the total here is what experiments
    /// compare.
    pub fn total(&self) -> f64 {
        self.overhead + self.transfer + self.compute.max(self.memory)
    }
}

impl Device {
    /// The Intel Core i7-3820 host CPU of Table 4.
    pub fn intel_i7_3820() -> Device {
        Device {
            name: "Intel Core i7-3820".into(),
            kind: DeviceKind::Cpu,
            cores: 4,
            clock_ghz: 3.6,
            peak_gflops: 105.0,
            compute_efficiency: 0.35,
            mem_bandwidth_gbps: 51.2,
            transfer_bandwidth_gbps: f64::INFINITY,
            transfer_latency_us: 0.0,
            launch_overhead_us: 8.0,
            divergence_penalty: 0.05,
            coalescing_penalty: 1.2,
        }
    }

    /// The AMD Tahiti 7970 GPU of Table 4.
    pub fn amd_tahiti_7970() -> Device {
        Device {
            name: "AMD Tahiti 7970".into(),
            kind: DeviceKind::Gpu,
            cores: 2048,
            clock_ghz: 1.0,
            peak_gflops: 3790.0,
            compute_efficiency: 0.22,
            mem_bandwidth_gbps: 264.0,
            transfer_bandwidth_gbps: 6.0,
            transfer_latency_us: 25.0,
            launch_overhead_us: 45.0,
            divergence_penalty: 2.5,
            coalescing_penalty: 6.0,
        }
    }

    /// The NVIDIA GTX 970 GPU of Table 4.
    pub fn nvidia_gtx_970() -> Device {
        Device {
            name: "NVIDIA GTX 970".into(),
            kind: DeviceKind::Gpu,
            cores: 1664,
            clock_ghz: 1.05,
            peak_gflops: 3900.0,
            compute_efficiency: 0.25,
            mem_bandwidth_gbps: 224.0,
            transfer_bandwidth_gbps: 6.2,
            transfer_latency_us: 20.0,
            launch_overhead_us: 35.0,
            divergence_penalty: 2.2,
            coalescing_penalty: 5.0,
        }
    }

    /// Estimate the runtime of a workload on this device.
    pub fn estimate(&self, w: &WorkloadProfile) -> RuntimeEstimate {
        let giga = 1e9;
        // --- transfers --------------------------------------------------
        let (transfer, transfer_latency) = match self.kind {
            DeviceKind::Cpu => (0.0, 0.0),
            DeviceKind::Gpu => (
                w.transfer_bytes / (self.transfer_bandwidth_gbps * giga),
                self.transfer_latency_us * 1e-6,
            ),
        };
        // --- compute ----------------------------------------------------
        let sustained_flops = (self.peak_gflops * giga * self.compute_efficiency).max(1.0);
        let divergence = 1.0 + self.divergence_penalty * w.branch_fraction.clamp(0.0, 1.0);
        // A GPU cannot use all its lanes if the launch has too few work items.
        let occupancy = match self.kind {
            DeviceKind::Cpu => 1.0,
            DeviceKind::Gpu => (w.work_items / (f64::from(self.cores) * 4.0)).clamp(0.05, 1.0),
        };
        let compute = w.compute_ops * divergence / (sustained_flops * occupancy);
        // --- memory -----------------------------------------------------
        let coalesced = w.coalesced_fraction.clamp(0.0, 1.0);
        let effective_bw = self.mem_bandwidth_gbps
            * giga
            * (coalesced + (1.0 - coalesced) / self.coalescing_penalty)
            * occupancy.max(0.25);
        let local_bw = self.mem_bandwidth_gbps * giga * 4.0; // on-chip scratch is ~free
        let memory = w.global_bytes / effective_bw.max(1.0) + w.local_bytes / local_bw.max(1.0);
        // --- overheads ---------------------------------------------------
        let overhead = self.launch_overhead_us * 1e-6 + transfer_latency;
        RuntimeEstimate {
            transfer,
            compute,
            memory,
            overhead,
        }
    }

    /// All three platforms of Table 4.
    pub fn table4() -> Vec<Device> {
        vec![
            Device::intel_i7_3820(),
            Device::amd_tahiti_7970(),
            Device::nvidia_gtx_970(),
        ]
    }
}

/// An experimental CPU-GPU platform pairing, as used throughout the paper's
/// evaluation ("the AMD system" / "the NVIDIA system").
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// The host CPU.
    pub cpu: Device,
    /// The GPU of the pairing.
    pub gpu: Device,
    /// Short name used in result tables ("AMD", "NVIDIA").
    pub name: String,
}

impl Platform {
    /// The AMD system of Table 4 (i7-3820 + Tahiti 7970).
    pub fn amd() -> Platform {
        Platform {
            cpu: Device::intel_i7_3820(),
            gpu: Device::amd_tahiti_7970(),
            name: "AMD".into(),
        }
    }

    /// The NVIDIA system of Table 4 (i7-3820 + GTX 970).
    pub fn nvidia() -> Platform {
        Platform {
            cpu: Device::intel_i7_3820(),
            gpu: Device::nvidia_gtx_970(),
            name: "NVIDIA".into(),
        }
    }

    /// Both experimental platforms.
    pub fn both() -> Vec<Platform> {
        vec![Platform::amd(), Platform::nvidia()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(
        work_items: f64,
        ops_per_item: f64,
        bytes_per_item: f64,
        transfer: f64,
    ) -> WorkloadProfile {
        WorkloadProfile {
            work_items,
            compute_ops: work_items * ops_per_item,
            global_bytes: work_items * bytes_per_item,
            local_bytes: 0.0,
            coalesced_fraction: 1.0,
            branch_fraction: 0.05,
            transfer_bytes: transfer,
        }
    }

    #[test]
    fn small_workloads_prefer_cpu() {
        let platform = Platform::amd();
        let w = workload(256.0, 20.0, 16.0, 2.0 * 256.0 * 4.0);
        let cpu = platform.cpu.estimate(&w).total();
        let gpu = platform.gpu.estimate(&w).total();
        assert!(
            cpu < gpu,
            "small workload should favour the CPU: cpu={cpu}, gpu={gpu}"
        );
    }

    #[test]
    fn large_compute_workloads_prefer_gpu() {
        let platform = Platform::amd();
        // 4M work items, 2000 ops each, small transfers relative to compute.
        let w = workload(4e6, 2000.0, 32.0, 3.0 * 4e6 * 4.0);
        let cpu = platform.cpu.estimate(&w).total();
        let gpu = platform.gpu.estimate(&w).total();
        assert!(
            gpu < cpu,
            "large workload should favour the GPU: cpu={cpu}, gpu={gpu}"
        );
    }

    #[test]
    fn transfer_dominated_workloads_prefer_cpu() {
        let platform = Platform::nvidia();
        // Lots of data movement, almost no compute per element.
        let w = workload(1e6, 2.0, 8.0, 3.0 * 1e6 * 8.0);
        let cpu = platform.cpu.estimate(&w).total();
        let gpu = platform.gpu.estimate(&w).total();
        assert!(
            cpu < gpu,
            "transfer-bound workload should favour the CPU: cpu={cpu}, gpu={gpu}"
        );
    }

    #[test]
    fn divergence_and_coalescing_hurt_gpu() {
        let gpu = Device::amd_tahiti_7970();
        let base = workload(1e6, 200.0, 64.0, 1e6);
        let mut branchy = base;
        branchy.branch_fraction = 0.8;
        assert!(gpu.estimate(&branchy).total() > gpu.estimate(&base).total());
        let mut scattered = base;
        scattered.coalesced_fraction = 0.0;
        assert!(gpu.estimate(&scattered).total() > gpu.estimate(&base).total());
    }

    #[test]
    fn cpu_ignores_transfers() {
        let cpu = Device::intel_i7_3820();
        let mut w = workload(1e5, 50.0, 16.0, 0.0);
        let base = cpu.estimate(&w).total();
        w.transfer_bytes = 1e9;
        assert!((cpu.estimate(&w).total() - base).abs() < 1e-12);
    }

    #[test]
    fn table4_has_three_devices_with_paper_specs() {
        let devices = Device::table4();
        assert_eq!(devices.len(), 3);
        assert_eq!(devices[0].cores, 4);
        assert_eq!(devices[1].cores, 2048);
        assert_eq!(devices[2].cores, 1664);
        assert!((devices[1].peak_gflops - 3790.0).abs() < 1.0);
    }

    #[test]
    fn estimate_components_are_nonnegative_and_total_consistent() {
        let w = workload(1e4, 100.0, 32.0, 1e5);
        for d in Device::table4() {
            let e = d.estimate(&w);
            assert!(e.compute >= 0.0 && e.memory >= 0.0 && e.transfer >= 0.0 && e.overhead >= 0.0);
            assert!(e.total() >= e.compute.max(e.memory));
        }
    }

    #[test]
    fn platforms_named_after_gpus() {
        assert_eq!(Platform::amd().name, "AMD");
        assert_eq!(Platform::nvidia().name, "NVIDIA");
        assert_eq!(Platform::both().len(), 2);
    }
}
