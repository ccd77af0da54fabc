//! The deployment part of a run: the real store, driven by client threads.
//!
//! A pass runs rounds until its op phases add up to the measured window. Each round
//! stands up a fresh deployment (timed as set-up), runs a fixed total of ops over the
//! clients' streams (or until the window closes), scrapes `Cluster::stats()`, probes
//! reconfiguration on a few keys, passes the correctness gate, and tears down.
//! Only the op phases are timed; CPU is read around them.

use crate::gate;
use crate::gen::{self, Kind, Op};
use crate::spec::{Placements, Runtime, Spec, PROBE_KEYS, TCP_LATENCY_SCALE};
use crate::sys::{self, ByDirection};
use crate::trace::{Span, Tracer};
use legostore_cloud::{CloudModel, GcpLocation};
use legostore_core::{Clock, Cluster, ClusterOptions, ClusterStats};
use legostore_obs::ObsConfig;
use legostore_types::{DcId, Key, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups timed before the rounds, in addition to each round's own.
const EXTRA_SETUPS: usize = 16;

/// Per-attempt timeout of in-process deployments, in modeled time. Generous, so that
/// no fault-free op on the full geo latencies ever times out.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// The run's fixed inputs.
pub struct Inputs<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub keys: Vec<Key>,
    pub initial: Vec<Value>,
    pub placements: Placements,
    /// The paper's nine GCP data centers, which every deployment runs on.
    pub model: CloudModel,
}

impl<'a> Inputs<'a> {
    pub fn new(spec: &'a Spec, seed: u64) -> Inputs<'a> {
        let keys = (0..spec.keys)
            .map(|k| Key::from(crate::spec::key_name(k)))
            .collect();
        let initial = (0..spec.keys)
            .map(|k| {
                let size = gen::initial_size(spec, seed, k);
                Value::from(gen::payload(seed, gen::INITIAL_WRITER, k as u64, size))
            })
            .collect();
        let model = CloudModel::gcp9();
        Inputs {
            spec,
            seed,
            keys,
            initial,
            placements: Placements::new(&model),
            model,
        }
    }
}

/// Counters summed over the `Cluster::stats()` scrapes of the rounds that issued their
/// full quota (taken after the op phase, before the reconfiguration probe), with the
/// ops those rounds completed and the reconfigurations they ran in the window.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    pub ops: u64,
    pub reconfigs: u64,
    pub requests: u64,
    pub bytes: u64,
    pub get_ops: u64,
    pub put_ops: u64,
    pub one_phase_gets: u64,
    pub retries: u64,
    pub queue_depth_max: u64,
}

impl Scrape {
    fn add(&mut self, stats: &ClusterStats, ops: u64, reconfigs: u64) {
        self.ops += ops;
        self.reconfigs += reconfigs;
        for s in stats.servers.values() {
            self.requests += s.counter("server.requests");
            self.bytes += s.counter("server.bytes_in") + s.counter("server.bytes_out");
            self.queue_depth_max = self.queue_depth_max.max(s.gauge("server.queue_depth_max"));
        }
        let c = &stats.client;
        self.get_ops += c.counter("client.get.ops");
        self.put_ops += c.counter("client.put.ops");
        self.one_phase_gets += c.counter("client.get.one_phase");
        self.retries +=
            c.counter("client.retries.timeout_widen") + c.counter("client.retries.reconfig");
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latencies of completed in-window ops, ns on the workload's clock.
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// Reconfiguration durations (in-window flips, or the post-round probe), ns on the
    /// workload's clock, by the protocol the key moved from; and the wall time of each
    /// `Cluster::reconfigure` call.
    pub reconfig_ns: ByDirection,
    pub reconfig_wall_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Process CPU and wall seconds over the op phases.
    pub cpu_s: f64,
    pub wall_s: f64,
    /// CPU µs per completed op of each round that issued its full quota.
    pub round_cpu_us_per_op: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Stored bytes per live user byte after each round that ran its full quota.
    pub storage_ratio: Vec<f64>,
    pub check_s: Vec<f64>,
    pub scrape: Scrape,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn client_ops(&self) -> u64 {
        (self.get_ns.len() + self.put_ns.len()) as u64
    }

    fn note_error(&mut self, e: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }
}

/// A stood-up deployment plus the server threads it owns.
struct Deployment {
    cluster: Cluster,
    servers: Vec<JoinHandle<std::io::Result<()>>>,
}

fn stand_up(inputs: &Inputs, obs: ObsConfig) -> Deployment {
    let model = inputs.model.clone();
    match inputs.spec.runtime {
        Runtime::InProcVirtual => Deployment {
            cluster: Cluster::new(
                model,
                ClusterOptions {
                    clock: Clock::virtual_time(),
                    latency_scale: 1.0,
                    op_timeout: OP_TIMEOUT,
                    obs,
                    ..ClusterOptions::default()
                },
            ),
            servers: Vec::new(),
        },
        Runtime::TcpLoopback => {
            let mut addrs: HashMap<DcId, SocketAddr> = HashMap::new();
            let mut servers = Vec::new();
            for dc in model.dc_ids() {
                let (addr, handle) =
                    legostore_server::spawn_server_thread(dc).expect("bind a loopback listener");
                addrs.insert(dc, addr);
                servers.push(handle);
            }
            let options = ClusterOptions {
                latency_scale: TCP_LATENCY_SCALE,
                obs,
                ..ClusterOptions::default()
            };
            let cluster =
                Cluster::connect_tcp(model, options, &addrs).expect("connect to loopback servers");
            Deployment { cluster, servers }
        }
    }
}

/// Stands up a deployment and installs every key; returns it with the time that took.
fn set_up(inputs: &Inputs, obs: ObsConfig) -> (Deployment, Duration) {
    let started = Instant::now();
    let deployment = stand_up(inputs, obs);
    for (k, key) in inputs.keys.iter().enumerate() {
        let config = inputs.placements.initial(inputs.spec.layout, k).clone();
        deployment
            .cluster
            .install_key(key.clone(), config, &inputs.initial[k]);
    }
    (deployment, started.elapsed())
}

fn tear_down(d: Deployment) {
    d.cluster.shutdown();
    for h in d.servers {
        h.join()
            .expect("server thread panicked")
            .expect("server exits cleanly");
    }
}

/// What one client thread did in one round.
#[derive(Default)]
struct ClientOut {
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    /// `(key, value)` of every successful GET, checked after the round.
    reads: Vec<(usize, Value)>,
    attempted: u64,
    errors: Vec<String>,
    /// Indices `start..end` of the stream this client issued.
    issued: Range<u64>,
    finished: bool,
    spans: Vec<Span>,
}

/// What the flip thread did in one round.
#[derive(Default)]
struct FlipOut {
    ns: ByDirection,
    wall_ns: Vec<u64>,
    attempted: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

/// Runs one pass. `window` is the total op-phase time to measure; a warm-up round that
/// is checked but not measured runs first. `traced` records a span around every
/// `get`/`put`/`reconfigure` call.
pub fn run_pass(
    inputs: &Inputs,
    obs: ObsConfig,
    window: Duration,
    traced: bool,
) -> Result<Pass, String> {
    let spec = inputs.spec;
    let mut pass = Pass::default();
    let base = Instant::now();
    let mut next: Vec<u64> = vec![0; spec.clients.len()];
    // Set-up alone is short and noisy: sample it a few extra times besides each round.
    for _ in 0..EXTRA_SETUPS {
        let (deployment, took) = set_up(inputs, obs);
        pass.setup_s.push(took.as_secs_f64());
        tear_down(deployment);
    }
    // Warm-up: a quarter quota, unmeasured, still gated.
    let mut scratch = Pass::default();
    run_round(
        inputs,
        obs,
        0,
        &mut next,
        spec.ops_per_round / 4,
        None,
        false,
        base,
        &mut scratch,
    )?;
    if let Some(e) = scratch.first_error {
        return Err(format!("warm-up round: {e}"));
    }
    let mut remaining = window;
    let mut round = 1;
    while !remaining.is_zero() {
        let quota = spec.ops_per_round;
        let spent = run_round(
            inputs,
            obs,
            round,
            &mut next,
            quota,
            Some(remaining),
            traced,
            base,
            &mut pass,
        )?;
        remaining = remaining.saturating_sub(spent);
        round += 1;
    }
    Ok(pass)
}

/// Runs one round into `pass` and returns its op-phase wall time.
#[allow(clippy::too_many_arguments)]
fn run_round(
    inputs: &Inputs,
    obs: ObsConfig,
    round: u64,
    next: &mut [u64],
    quota: u64,
    budget: Option<Duration>,
    traced: bool,
    base: Instant,
    pass: &mut Pass,
) -> Result<Duration, String> {
    let spec = inputs.spec;
    let seed = inputs.seed;
    // Inputs first (outside set-up and outside the window).
    let streams: Vec<Vec<(Op, Option<Value>)>> = (0..spec.clients.len())
        .map(|c| {
            (next[c]..next[c] + quota)
                .map(|i| {
                    let o = gen::op(spec, seed, c, i);
                    let v = (o.kind == Kind::Put)
                        .then(|| Value::from(gen::payload(seed, c as u16, i, o.size)));
                    (o, v)
                })
                .collect()
        })
        .collect();

    let (deployment, setup) = set_up(inputs, obs);
    let cluster = &deployment.cluster;

    let mut clients: Vec<_> = spec
        .clients
        .iter()
        .map(|loc| cluster.client(loc.dc()))
        .collect();
    let progress = Progress::default();
    let cpu0 = sys::process_cpu_s();
    let w0 = Instant::now();
    let ctx = RoundCtx {
        inputs,
        cluster,
        round,
        quota,
        progress: &progress,
        deadline: budget.map(|b| w0 + b),
        base,
        traced,
    };
    let (outs, flip) = std::thread::scope(|s| {
        let ctx = &ctx;
        let flip = spec
            .flip_every
            .map(|every| s.spawn(move || flip_loop(ctx, every)));
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                let start = next[c];
                s.spawn(move || drive_client(ctx, client, c, start, stream))
            })
            .collect();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        progress.finish();
        let flip = flip.map(|h| h.join().expect("flip thread panicked"));
        (outs, flip)
    });
    let wall = w0.elapsed();
    let cpu = sys::process_cpu_s() - cpu0;

    let stats = cluster
        .stats()
        .map_err(|e| format!("stats scrape failed: {e}"))?;
    let stored: u64 = stats
        .servers
        .values()
        .map(|s| s.gauge("server.storage_bytes"))
        .sum();
    let full = outs.iter().all(|o| o.finished);

    // Account the op phase.
    pass.cpu_s += cpu;
    pass.wall_s += wall.as_secs_f64();
    pass.setup_s.push(setup.as_secs_f64());
    let completed: usize = outs.iter().map(|o| o.get_ns.len() + o.put_ns.len()).sum();
    if full && completed > 0 {
        pass.storage_ratio
            .push(stored as f64 / (spec.keys * spec.value_bytes) as f64);
        pass.round_cpu_us_per_op.push(cpu * 1e6 / completed as f64);
        let reconfigs = flip.as_ref().map_or(0, |f| f.ns.len() as u64);
        pass.scrape.add(&stats, completed as u64, reconfigs);
    }
    let issued: Vec<Range<u64>> = outs.iter().map(|o| o.issued.clone()).collect();
    let mut reads = Vec::new();
    for (c, o) in outs.into_iter().enumerate() {
        next[c] = o.issued.end;
        pass.get_ns.extend(o.get_ns);
        pass.put_ns.extend(o.put_ns);
        pass.attempted += o.attempted;
        pass.spans.extend(o.spans);
        for e in o.errors {
            pass.note_error(e);
        }
        reads.extend(o.reads);
    }
    if let Some(f) = flip {
        pass.reconfig_ns.extend(f.ns);
        pass.reconfig_wall_ns.extend(f.wall_ns);
        pass.attempted += f.attempted;
        pass.spans.extend(f.spans);
        for e in f.errors {
            pass.note_error(e);
        }
    } else {
        probe_reconfig(inputs, cluster, round, pass, &mut reads);
    }

    // Correctness gate.
    for (key, value) in &reads {
        gate::check_value(spec, seed, &issued, *key, value)
            .map_err(|e| format!("round {round}: {e}"))?;
    }
    let t_check = Instant::now();
    gate::check_linearizable(&cluster.recorder()).map_err(|e| format!("round {round}: {e}"))?;
    pass.check_s.push(t_check.elapsed().as_secs_f64());
    drop(clients);
    tear_down(deployment);
    Ok(wall)
}

/// What every thread of a round shares.
struct RoundCtx<'a> {
    inputs: &'a Inputs<'a>,
    cluster: &'a Cluster,
    round: u64,
    /// Ops the round issues over all clients, counted in `progress`.
    quota: u64,
    progress: &'a Progress,
    /// Where the measured window closes (`None` for the warm-up round).
    deadline: Option<Instant>,
    /// Time base of spans.
    base: Instant,
    traced: bool,
}

/// One client thread: its own op stream in a closed loop, until the round's total quota
/// is issued (`finished`) or the window closes.
fn drive_client(
    ctx: &RoundCtx,
    client: &mut legostore_core::StoreClient,
    c: usize,
    start: u64,
    stream: &[(Op, Option<Value>)],
) -> ClientOut {
    let inputs = ctx.inputs;
    let spec = inputs.spec;
    let clock = ctx.cluster.options().clock.clone();
    let mut tracer = Tracer::new(ctx.base, span_id_base(ctx.round, c));
    let mut out = ClientOut {
        issued: start..start,
        ..ClientOut::default()
    };
    for (j, (o, value)) in stream.iter().enumerate() {
        let index = start + j as u64;
        if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            return finish(out, tracer, false);
        }
        if ctx.progress.claim(spec.flip_every) >= ctx.quota {
            return finish(out, tracer, true);
        }
        let key = &inputs.keys[o.key];
        let t0 = clock.now_ns();
        let span = ctx.traced.then(|| {
            tracer.open(
                if o.kind == Kind::Get {
                    "core.get"
                } else {
                    "core.put"
                },
                0,
                index,
            )
        });
        let result = match (o.kind, value) {
            (Kind::Get, _) => client.get(key).map(Some),
            (Kind::Put, Some(v)) => client.put(key, v.clone()).map(|()| None),
            (Kind::Put, None) => unreachable!("PUTs carry a generated payload"),
        };
        if let Some(id) = span {
            tracer.close(id);
        }
        let latency = clock.now_ns() - t0;
        out.attempted += 1;
        out.issued.end = index + 1;
        match result {
            Ok(Some(v)) => {
                out.get_ns.push(latency);
                out.reads.push((o.key, v));
            }
            Ok(None) => out.put_ns.push(latency),
            Err(e) => out
                .errors
                .push(format!("{:?} of {key} failed: {e}", o.kind)),
        }
    }
    // Stream exhausted: this client alone issued the whole quota.
    finish(out, tracer, true)
}

fn finish(mut out: ClientOut, tracer: Tracer, finished: bool) -> ClientOut {
    out.finished = finished;
    out.spans = tracer.spans;
    out
}

/// Span ids of different threads and rounds never collide.
fn span_id_base(round: u64, thread: usize) -> u64 {
    (round << 40) | ((thread as u64 + 1) << 32)
}

/// The clients' shared progress through a round, which paces the flip thread.
#[derive(Default)]
struct Progress {
    /// Ops claimed over all clients (including each client's claim past the quota).
    issued: AtomicU64,
    /// Set once every client has returned.
    done: AtomicBool,
    lock: Mutex<()>,
    moved: Condvar,
}

impl Progress {
    /// Claims the next op of the round and returns how many were claimed before it;
    /// wakes the flip thread each time the count passes a multiple of `every`.
    fn claim(&self, every: Option<u64>) -> u64 {
        let before = self.issued.fetch_add(1, Ordering::SeqCst);
        if every.is_some_and(|e| (before + 1).is_multiple_of(e)) {
            let _held = self.lock.lock().expect("progress lock");
            self.moved.notify_all();
        }
        before
    }

    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        let _held = self.lock.lock().expect("progress lock");
        self.moved.notify_all();
    }

    /// Blocks until `target` ops are claimed (`true`) or the clients are done (`false`).
    fn wait_for(&self, target: u64) -> bool {
        let mut held = self.lock.lock().expect("progress lock");
        loop {
            if self.done.load(Ordering::SeqCst) {
                return false;
            }
            if self.issued.load(Ordering::SeqCst) >= target {
                return true;
            }
            held = self.moved.wait(held).expect("progress lock");
        }
    }
}

/// The flip thread: reconfigures the next key ABD↔CAS (round robin) each time the
/// clients have claimed `every` more ops, until they are done. Pacing by the clients'
/// progress fixes the number of reconfigurations per client op, whichever way the
/// threads are scheduled; while a transfer runs behind its share it catches up.
fn flip_loop(ctx: &RoundCtx, every: u64) -> FlipOut {
    let (inputs, cluster) = (ctx.inputs, ctx.cluster);
    let spec = inputs.spec;
    let mut tracer = Tracer::new(ctx.base, span_id_base(ctx.round, 0xff));
    let mut out = FlipOut::default();
    let mut k = gen::reconfig_start(spec, inputs.seed, ctx.round);
    while ctx.progress.wait_for((out.attempted + 1) * every) {
        let key = &inputs.keys[k];
        let current = cluster
            .metadata_config(key)
            .expect("installed key has metadata");
        let target = inputs.placements.flipped(&current);
        let span = ctx
            .traced
            .then(|| tracer.open("core.reconfigure", 0, k as u64));
        let w = Instant::now();
        let result = cluster.reconfigure(key.clone(), target);
        let wall = w.elapsed();
        if let Some(id) = span {
            tracer.close(id);
        }
        out.attempted += 1;
        match result {
            Ok(d) => {
                out.ns.push(current.protocol, d.as_nanos() as u64);
                out.wall_ns.push(wall.as_nanos() as u64);
            }
            Err(e) => out.errors.push(format!("reconfigure {key} stalled: {e}")),
        }
        k = (k + 1) % spec.keys;
    }
    out.spans = tracer.spans;
    out
}

/// After a round without a flip thread: move a few keys ABD↔CAS and back, one transfer
/// at a time, reading each back after every move, so every workload reports a
/// reconfiguration latency in both directions.
fn probe_reconfig(
    inputs: &Inputs,
    cluster: &Cluster,
    round: u64,
    pass: &mut Pass,
    reads: &mut Vec<(usize, Value)>,
) {
    let mut reader = cluster.client(GcpLocation::Tokyo.dc());
    for k in gen::probe_keys(inputs.spec, inputs.seed, round, PROBE_KEYS) {
        let key = &inputs.keys[k];
        for _there_and_back in 0..2 {
            let current = cluster
                .metadata_config(key)
                .expect("installed key has metadata");
            let target = inputs.placements.flipped(&current);
            let w = Instant::now();
            pass.attempted += 2;
            match cluster.reconfigure(key.clone(), target) {
                Ok(d) => {
                    pass.reconfig_wall_ns.push(w.elapsed().as_nanos() as u64);
                    pass.reconfig_ns.push(current.protocol, d.as_nanos() as u64);
                }
                Err(e) => pass.note_error(format!("probe reconfigure {key} stalled: {e}")),
            }
            match reader.get(key) {
                Ok(v) => reads.push((k, v)),
                Err(e) => pass.note_error(format!("probe GET of {key} failed: {e}")),
            }
        }
    }
}
