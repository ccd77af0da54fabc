//! The layer replay: the same op stream run sequentially through each layer's public
//! functions, with no threads, transport or clock, one span per call.
//!
//! Per op: the `lincheck` fingerprint and record calls, the `proto` client state
//! machine (`new`/`start`/`on_reply`, inclusive of the codec work `CasPut` and
//! `CasGet` do inside), `Frame` encode + decode of every request and reply, and
//! `DcServer::handle_at` at each addressed server. `erasure::encode_value` /
//! `decode_value` are also timed directly on the op's value and on the shards the GET
//! collected; those spans re-measure codec work already inside the client spans and
//! are kept out of the layer total.

use crate::deploy::{Inputs, OP_TIMEOUT};
use crate::gen::{self, Kind};
use crate::spec::{Runtime, PROBE_KEYS};
use crate::trace::{self, Span, Tracer};
use bytes::Bytes;
use legostore_cloud::METADATA_BYTES;
use legostore_erasure::{decode_value, encode_value, Shard};
use legostore_lincheck::recorder::fingerprint;
use legostore_lincheck::HistoryRecorder;
use legostore_proto::msg::{OpOutcome, OpProgress, Outbound, ProtoReply};
use legostore_proto::reconfig::ControllerProgress;
use legostore_proto::server::{DcServer, Inbound, ProtoState};
use legostore_proto::{AbdGet, AbdPut, CasGet, CasPut, Frame, ReconfigController};
use legostore_types::{ClientId, Configuration, DcId, Key, ProtocolKind, Tag, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Span names of the layers whose self time adds up to the replay's per-op total.
pub const LAYER_SPANS: [&str; 4] = [
    "proto.client",
    "proto.reconfig",
    "proto.server",
    "lincheck.record",
];

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub ops: u64,
    pub cas_puts: u64,
    pub cas_decodes: u64,
    pub requests: u64,
    pub replies: u64,
    /// Request + reply bytes as the in-process runtime meters them (`wire_size`).
    pub modeled_bytes: u64,
    /// Request + reply bytes as encoded frames (what the TCP runtime meters).
    pub frame_bytes: u64,
    pub reconfigs: u64,
    /// Distinct controller rounds awaited, summed over transfers.
    pub reconfig_rounds: u64,
    pub cas_versions_per_key: f64,
    /// Self time (ns) and span count per span name.
    pub self_ns: BTreeMap<&'static str, (u64, u64)>,
    pub spans: Vec<Span>,
}

impl Replay {
    pub fn self_us(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |e| e.0 as f64 / 1e3)
    }
}

/// One protocol state machine.
enum Machine {
    AbdPut(AbdPut),
    AbdGet(AbdGet),
    CasPut(CasPut),
    CasGet(CasGet),
}

impl Machine {
    fn start(&self) -> Vec<Outbound> {
        match self {
            Machine::AbdPut(m) => m.start(),
            Machine::AbdGet(m) => m.start(),
            Machine::CasPut(m) => m.start(),
            Machine::CasGet(m) => m.start(),
        }
    }

    fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> OpProgress {
        match self {
            Machine::AbdPut(m) => m.on_reply(from, phase, reply),
            Machine::AbdGet(m) => m.on_reply(from, phase, reply),
            Machine::CasPut(m) => m.on_reply(from, phase, reply),
            Machine::CasGet(m) => m.on_reply(from, phase, reply),
        }
    }
}

struct Replayer<'a> {
    inputs: &'a Inputs<'a>,
    servers: BTreeMap<DcId, DcServer>,
    metadata: Vec<Configuration>,
    recorder: HistoryRecorder,
    /// Per client: key index → last `(tag, value)`, the CAS optimized-GET cache.
    caches: Vec<HashMap<usize, (Tag, Value)>>,
    tracer: Tracer,
    next_endpoint: u64,
    logical_ns: u64,
    out: Replay,
}

/// Replays the first `per_client` ops of every client's stream (clients interleaved op
/// by op), with `reconfigs_per_op` flips interleaved at the rate the deployment ran
/// them.
pub fn run(inputs: &Inputs, per_client: u64, reconfigs_per_op: f64) -> Result<Replay, String> {
    let spec = inputs.spec;
    let mut servers = BTreeMap::new();
    for dc in inputs.model.dc_ids() {
        let mut s = DcServer::new(dc);
        // In process the deployment arms the default epoch lease (16 × op timeout); the
        // TCP server arms none unless told to.
        if spec.runtime == Runtime::InProcVirtual {
            s.set_epoch_lease_ns(OP_TIMEOUT.as_nanos() as u64 * 16);
        }
        servers.insert(dc, s);
    }
    let recorder = HistoryRecorder::new();
    let mut metadata = Vec::with_capacity(spec.keys);
    for (k, key) in inputs.keys.iter().enumerate() {
        let config = inputs.placements.initial(spec.layout, k).clone();
        for (dc, payload) in DcServer::initial_payloads(&config, &inputs.initial[k]) {
            let server = servers.get_mut(&dc).expect("placement DC exists");
            server.install_key(key.clone(), config.clone(), Tag::INITIAL, payload);
        }
        recorder.register_key(key.as_str(), fingerprint(inputs.initial[k].as_bytes()));
        metadata.push(config);
    }
    let mut r = Replayer {
        inputs,
        servers,
        metadata,
        recorder,
        caches: vec![HashMap::new(); spec.clients.len()],
        tracer: Tracer::new(Instant::now(), 1),
        next_endpoint: 1,
        logical_ns: 0,
        out: Replay::default(),
    };
    let mut debt = 0.0;
    let mut flip_key = gen::reconfig_start(spec, inputs.seed, 1);
    for index in 0..per_client {
        for c in 0..spec.clients.len() {
            r.client_op(c, index)?;
            debt += reconfigs_per_op;
            while debt >= 1.0 {
                r.reconfigure(flip_key)?;
                flip_key = (flip_key + 1) % spec.keys;
                debt -= 1.0;
            }
        }
    }
    // Layer times and traffic cover the op stream only, like the deployment's window;
    // the reconfiguration probe it runs after each round follows and adds only to the
    // reconfiguration counts.
    let self_ns = trace::self_times(&r.tracer.spans);
    let cas_versions = cas_versions_per_key(&r.servers, &inputs.keys);
    let traffic = (
        r.out.requests,
        r.out.replies,
        r.out.modeled_bytes,
        r.out.frame_bytes,
    );
    if spec.flip_every.is_none() {
        for k in gen::probe_keys(spec, inputs.seed, 1, PROBE_KEYS) {
            r.reconfigure(k)?;
            r.reconfigure(k)?;
        }
    }
    crate::gate::check_linearizable(&r.recorder).map_err(|e| format!("replay: {e}"))?;
    let mut out = r.out;
    (
        out.requests,
        out.replies,
        out.modeled_bytes,
        out.frame_bytes,
    ) = traffic;
    out.cas_versions_per_key = cas_versions;
    out.self_ns = self_ns;
    out.spans = r.tracer.spans;
    Ok(out)
}

/// Mean CAS version count over every (server, key) that holds a CAS state at its latest
/// epoch; 0 when no key is CAS.
fn cas_versions_per_key(servers: &BTreeMap<DcId, DcServer>, keys: &[Key]) -> f64 {
    let (mut sum, mut n) = (0usize, 0usize);
    for s in servers.values() {
        for key in keys {
            let state = s.latest_epoch(key).and_then(|e| s.key_state(key, e));
            if let Some(ProtoState::Cas(cas)) = state.map(|st| &st.proto) {
                sum += cas.version_count();
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

impl Replayer<'_> {
    fn tick(&mut self) -> u64 {
        self.logical_ns += 1;
        self.logical_ns
    }

    fn client_op(&mut self, c: usize, index: u64) -> Result<(), String> {
        let spec = self.inputs.spec;
        let seed = self.inputs.seed;
        let o = gen::op(spec, seed, c, index);
        let key = self.inputs.keys[o.key].clone();
        let config = self.metadata[o.key].clone();
        let client_dc = spec.clients[c].dc();
        let client_id = ClientId(c as u32 + 1);
        // Input generation stays outside every span.
        let value =
            (o.kind == Kind::Put).then(|| Value::from(gen::payload(seed, c as u16, index, o.size)));
        let op_id = ((c as u64) << 40) | index;
        let root = self.tracer.open("op", 0, op_id);
        self.out.ops += 1;
        let invoke = self.tick();
        let cas = config.protocol == ProtocolKind::Cas;
        let cache = self.caches[c].get(&o.key).cloned();
        let (outcome, shards) = match &value {
            Some(v) => {
                let fp = self
                    .tracer
                    .time("lincheck.record", root, op_id, || fingerprint(v.as_bytes()));
                let v2 = v.clone();
                let (k2, cfg) = (key.clone(), config.clone());
                let machine = self.tracer.time("proto.client", root, op_id, move || {
                    if cas {
                        Machine::CasPut(CasPut::new(k2, cfg, client_dc, client_id, v2))
                    } else {
                        Machine::AbdPut(AbdPut::new(k2, cfg, client_dc, client_id, v2))
                    }
                });
                if cas {
                    self.out.cas_puts += 1;
                    let (n, k) = (config.n, config.k);
                    self.tracer.time("erasure.encode", root, op_id, || {
                        std::hint::black_box(encode_value(v.as_bytes(), n, k).expect("valid code"))
                    });
                }
                let result = self.drive(machine, root, op_id, &config)?;
                let ret = self.tick();
                let rec = &self.recorder;
                self.tracer.time("lincheck.record", root, op_id, || {
                    rec.record_put(key.as_str(), client_id.0, fp, invoke, ret)
                });
                result
            }
            None => {
                let (k2, cfg) = (key.clone(), config.clone());
                let machine = self.tracer.time("proto.client", root, op_id, move || {
                    if cas {
                        Machine::CasGet(CasGet::new(k2, cfg, client_dc, cache))
                    } else {
                        Machine::AbdGet(AbdGet::new(k2, cfg, client_dc, true))
                    }
                });
                self.drive(machine, root, op_id, &config)?
            }
        };
        match outcome {
            OpOutcome::PutOk { tag } => {
                let v = value.expect("PUT carries a value");
                self.caches[c].insert(o.key, (tag, v));
            }
            OpOutcome::GetOk {
                tag,
                value: got,
                one_phase,
            } => {
                if cas && !one_phase {
                    self.out.cas_decodes += 1;
                    let (n, k) = (config.n, config.k);
                    let usable: Vec<Shard> = shards
                        .into_iter()
                        .filter(|(t, _)| *t == tag)
                        .map(|(_, s)| s)
                        .collect();
                    self.tracer.time("erasure.decode", root, op_id, || {
                        std::hint::black_box(
                            decode_value(&usable, n, k).expect("collected shards decode"),
                        )
                    });
                }
                let ret = self.tick();
                let rec = &self.recorder;
                self.tracer.time("lincheck.record", root, op_id, || {
                    rec.record_get(
                        key.as_str(),
                        client_id.0,
                        fingerprint(got.as_bytes()),
                        invoke,
                        ret,
                    )
                });
                self.caches[c].insert(o.key, (tag, got));
            }
            other => {
                return Err(format!(
                    "replay: op {index} of client {c} on {key} ended {other:?}"
                ))
            }
        }
        self.tracer.close(root);
        Ok(())
    }

    /// Runs a client machine to completion. Returns its outcome and the `(tag, shard)`
    /// pairs CAS finalize-read replies carried.
    fn drive(
        &mut self,
        mut machine: Machine,
        root: u64,
        op_id: u64,
        config: &Configuration,
    ) -> Result<(OpOutcome, Vec<(Tag, Shard)>), String> {
        let mut outbound = self
            .tracer
            .time("proto.client", root, op_id, || machine.start());
        let mut shards = Vec::new();
        loop {
            if outbound.is_empty() {
                return Err(format!(
                    "replay: op {op_id:#x} stalled with nothing to send"
                ));
            }
            let replies = self.deliver(std::mem::take(&mut outbound), root, op_id);
            for (from, phase, reply) in replies {
                if let ProtoReply::CasShard {
                    tag,
                    shard: Some(data),
                } = &reply
                {
                    if let Some(idx) = config.symbol_index(from) {
                        shards.push((*tag, Shard::new(idx, data.clone())));
                    }
                }
                match self.tracer.time("proto.client", root, op_id, || {
                    machine.on_reply(from, phase, reply)
                }) {
                    OpProgress::Pending => {}
                    OpProgress::Send(msgs) => outbound = msgs,
                    OpProgress::Done(outcome) => return Ok((outcome, shards)),
                }
            }
        }
    }

    /// Sends every message through the wire codec to its server and returns the
    /// decoded replies in order.
    fn deliver(
        &mut self,
        outbound: Vec<Outbound>,
        root: u64,
        op_id: u64,
    ) -> VecDeque<(DcId, u8, ProtoReply)> {
        let endpoint = self.next_endpoint;
        self.next_endpoint += 1;
        let mut replies = VecDeque::new();
        for out in outbound {
            let inbound = Inbound {
                from: endpoint,
                msg_id: 0,
                phase: out.phase,
                key: out.key,
                epoch: out.epoch,
                msg: out.msg,
            };
            self.out.requests += 1;
            self.out.modeled_bytes += inbound.msg.wire_size(METADATA_BYTES);
            let (inbound, len) = self.tracer.time("proto.wire", root, op_id, || {
                let buf = Frame::Request(inbound).encode();
                let len = buf.len() as u64;
                match Frame::decode(Bytes::from(buf).slice(4..)) {
                    Ok(Frame::Request(i)) => (i, len),
                    other => panic!("request frame did not round-trip: {other:?}"),
                }
            });
            self.out.frame_bytes += len;
            let server = self.servers.get_mut(&out.to).expect("addressed DC exists");
            let produced = self
                .tracer
                .time("proto.server", root, op_id, || server.handle_at(inbound, 0));
            for r in produced {
                self.out.replies += 1;
                self.out.modeled_bytes += r.reply.wire_size(METADATA_BYTES);
                let frame = Frame::Reply {
                    endpoint: r.to,
                    from: out.to,
                    sent_at_ns: 0,
                    service_ns: 0,
                    phase: r.phase,
                    epoch: r.epoch,
                    reply: r.reply,
                };
                let (decoded, len) = self.tracer.time("proto.wire", root, op_id, || {
                    let buf = frame.encode();
                    let len = buf.len() as u64;
                    match Frame::decode(Bytes::from(buf).slice(4..)) {
                        Ok(Frame::Reply {
                            from, phase, reply, ..
                        }) => ((from, phase, reply), len),
                        other => panic!("reply frame did not round-trip: {other:?}"),
                    }
                });
                self.out.frame_bytes += len;
                replies.push_back(decoded);
            }
        }
        replies
    }

    /// One ABD↔CAS transfer of key `k` through the controller, then its finish round.
    fn reconfigure(&mut self, k: usize) -> Result<(), String> {
        let key = self.inputs.keys[k].clone();
        let old = self.metadata[k].clone();
        let target = self.inputs.placements.flipped(&old);
        let op_id = (1u64 << 62) | self.out.reconfigs;
        let root = self.tracer.open("reconfig", 0, op_id);
        self.out.reconfigs += 1;
        let mut ctrl = self.tracer.time("proto.reconfig", root, op_id, || {
            ReconfigController::new(key.clone(), old, target)
        });
        let mut rounds = BTreeSet::from([ctrl.round_number()]);
        let mut outbound = self
            .tracer
            .time("proto.reconfig", root, op_id, || ctrl.start());
        let outcome = 'transfer: loop {
            if outbound.is_empty() {
                return Err(format!("replay: reconfiguration of {key} stalled"));
            }
            for (from, phase, reply) in self.deliver(std::mem::take(&mut outbound), root, op_id) {
                match self.tracer.time("proto.reconfig", root, op_id, || {
                    ctrl.on_reply(from, phase, reply)
                }) {
                    ControllerProgress::Pending => {}
                    ControllerProgress::Send(msgs) => outbound = msgs,
                    ControllerProgress::Done(outcome) => break 'transfer outcome,
                }
                rounds.insert(ctrl.round_number());
            }
        };
        rounds.insert(ctrl.round_number());
        self.out.reconfig_rounds += rounds.len() as u64;
        self.metadata[k] = outcome.new_config.clone();
        self.deliver(outcome.finish_messages, root, op_id);
        self.tracer.close(root);
        Ok(())
    }
}
