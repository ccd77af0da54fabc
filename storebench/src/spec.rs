//! The four workloads. Why each exists and which clock it runs on is recorded in
//! `storebench/README.md`.

use legostore_cloud::{CloudModel, GcpLocation};
use legostore_types::{Configuration, DcId};

/// Which runtime carries the messages, and so which clock latencies are read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// In-process channels under the virtual clock: latencies are modeled geo ms.
    InProcVirtual,
    /// Nine TCP listeners in this process, real clock, [`TCP_LATENCY_SCALE`]: latencies
    /// are wall ms from the send.
    TcpLoopback,
}

/// `latency_scale` of the TCP deployment: every reply is held for a tenth of its
/// modeled geo delay, so a São Paulo client's CAS PUT takes about 100 ms of wall time.
/// Scheduling on a shared machine (the neighbours' load, the hypervisor's steal) adds a
/// few milliseconds to an op whatever the scale; at a tenth that is a small share of
/// the tail latencies, where at 0.05 it moved a PUT p99 by 15% between runs.
pub const TCP_LATENCY_SCALE: f64 = 0.1;

/// How keys are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every key CAS(5,3) over the five DCs nearest Tokyo.
    Cas,
    /// Every key ABD over the three DCs nearest Tokyo.
    Abd,
    /// Even keys ABD(3), odd keys CAS(5,3).
    Mixed,
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub runtime: Runtime,
    pub keys: usize,
    /// Nominal value size; actual sizes are seeded within ±10%.
    pub value_bytes: usize,
    pub layout: Layout,
    /// GET : PUT weights of the mix.
    pub get_weight: u32,
    pub put_weight: u32,
    /// Data center of each client (one thread each).
    pub clients: &'static [GcpLocation],
    /// `Some(n)`: a second thread flips the next key ABD↔CAS with
    /// `Cluster::reconfigure` each time the clients have issued `n` more ops, for the
    /// whole window.
    pub flip_every: Option<u64>,
    /// Operations per round, over all clients (each client runs its own stream at its
    /// own pace until the round's total is issued). Every round runs on a fresh
    /// deployment, which bounds memory (CAS keeps every version) and gives several
    /// set-up samples per run.
    pub ops_per_round: u64,
}

/// Keys moved ABD↔CAS and back after each round by workloads without an in-window flip
/// thread, so every workload reports a reconfiguration latency in both directions.
pub const PROBE_KEYS: usize = 8;

pub static WORKLOADS: &[Spec] = &[
    Spec {
        name: "cas-large",
        runtime: Runtime::InProcVirtual,
        keys: 64,
        value_bytes: 100 * 1024,
        layout: Layout::Cas,
        get_weight: 1,
        put_weight: 1,
        clients: &[GcpLocation::Tokyo, GcpLocation::Singapore],
        flip_every: None,
        ops_per_round: 512,
    },
    Spec {
        name: "abd-small",
        runtime: Runtime::InProcVirtual,
        keys: 4096,
        value_bytes: 1024,
        layout: Layout::Abd,
        get_weight: 30,
        put_weight: 1,
        clients: &[GcpLocation::Tokyo, GcpLocation::Frankfurt],
        flip_every: None,
        ops_per_round: 4096,
    },
    Spec {
        name: "reconfig-flip",
        runtime: Runtime::InProcVirtual,
        keys: 256,
        value_bytes: 10 * 1024,
        layout: Layout::Mixed,
        get_weight: 1,
        put_weight: 1,
        clients: &[GcpLocation::Tokyo],
        // One transfer per 4 client ops: below the ≈0.47 per op a flip thread running
        // flat out reaches, so the ratio is set by the pacing, not by scheduling.
        flip_every: Some(4),
        ops_per_round: 2048,
    },
    Spec {
        name: "tcp-mixed",
        runtime: Runtime::TcpLoopback,
        keys: 1024,
        value_bytes: 4 * 1024,
        layout: Layout::Mixed,
        get_weight: 1,
        put_weight: 1,
        clients: &[GcpLocation::Tokyo, GcpLocation::SaoPaulo],
        flip_every: None,
        ops_per_round: 512,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The two placements every workload draws from.
pub struct Placements {
    pub abd: Configuration,
    pub cas: Configuration,
}

impl Placements {
    pub fn new(model: &CloudModel) -> Placements {
        let near: Vec<DcId> = model.nearest_dcs(GcpLocation::Tokyo.dc());
        Placements {
            abd: Configuration::abd_majority(near[..3].to_vec(), 1),
            cas: Configuration::cas_default(near[..5].to_vec(), 3, 1),
        }
    }

    /// The initial configuration of key `key` under `layout`.
    pub fn initial(&self, layout: Layout, key: usize) -> &Configuration {
        match layout {
            Layout::Cas => &self.cas,
            Layout::Abd => &self.abd,
            Layout::Mixed if key & 1 == 0 => &self.abd,
            Layout::Mixed => &self.cas,
        }
    }

    /// The configuration a reconfiguration moves `current` to (ABD↔CAS).
    pub fn flipped(&self, current: &Configuration) -> Configuration {
        match current.protocol {
            legostore_types::ProtocolKind::Abd => self.cas.clone(),
            legostore_types::ProtocolKind::Cas => self.abd.clone(),
        }
    }
}

/// Name of key `index`.
pub fn key_name(index: usize) -> String {
    format!("k{index:05}")
}
