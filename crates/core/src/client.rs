//! The LEGOStore client: the user-facing CREATE / GET / PUT / DELETE API (§3.1).
//!
//! A [`StoreClient`] is bound to one data center (users are served by the client in or
//! nearest to their DC). Each operation resolves the key's configuration (from the client's
//! local view, falling back to the metadata service), runs the appropriate protocol state
//! machine against the server threads, and transparently handles the two kinds of
//! disruption the paper studies: reconfigurations (restart against the new configuration
//! after refreshing metadata) and data-center failures (timeout, widen the quorum to the
//! full placement, retry).

use crate::cluster::ClusterInner;
use crate::inbox::DelayedInbox;
use crate::transport::{Endpoint, ReplyEnvelope};
use legostore_lincheck::recorder::fingerprint;
use legostore_obs::{OpRecord, OpSpan, SpanEventKind};
use legostore_proto::msg::{OpOutcome, OpProgress, Outbound, ProtoReply};
use legostore_proto::server::{ControlMsg, DcServer, Inbound};
use legostore_proto::{AbdGet, AbdPut, CasGet, CasPut};
use legostore_types::{
    ClientId, Configuration, DcId, Key, OpKind, ProtocolKind, StoreError, StoreResult, Tag, Value,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One protocol operation in flight.
enum ClientOp {
    AbdPut(AbdPut),
    AbdGet(AbdGet),
    CasPut(CasPut),
    CasGet(CasGet),
}

impl ClientOp {
    fn start(&self) -> Vec<Outbound> {
        match self {
            ClientOp::AbdPut(o) => o.start(),
            ClientOp::AbdGet(o) => o.start(),
            ClientOp::CasPut(o) => o.start(),
            ClientOp::CasGet(o) => o.start(),
        }
    }

    /// Re-sends the current phase to every placement DC (§4.5 timeout handling). The
    /// operation *resumes* — same state machine, same chosen tag — because a restarted
    /// PUT would take effect a second time under a fresh tag (see
    /// [`AbdPut::resend_widened`]).
    fn resend_widened(&mut self) -> Vec<Outbound> {
        match self {
            ClientOp::AbdPut(o) => o.resend_widened(),
            ClientOp::AbdGet(o) => o.resend_widened(),
            ClientOp::CasPut(o) => o.resend_widened(),
            ClientOp::CasGet(o) => o.resend_widened(),
        }
    }

    /// The tag a PUT has committed to (`None` for GETs and for PUTs still in their
    /// query phase). A rebuild across a configuration epoch must carry this tag into
    /// the new state machine — see [`StoreClient::rebuild_for_epoch`].
    fn chosen_tag(&self) -> Option<Tag> {
        match self {
            ClientOp::AbdPut(o) => o.chosen_tag(),
            ClientOp::CasPut(o) => o.chosen_tag(),
            ClientOp::AbdGet(_) | ClientOp::CasGet(_) => None,
        }
    }

    /// The protocol phase the state machine is currently in (for telemetry spans).
    fn current_phase(&self) -> u8 {
        match self {
            ClientOp::AbdPut(o) => o.current_phase(),
            ClientOp::AbdGet(o) => o.current_phase(),
            ClientOp::CasPut(o) => o.current_phase(),
            ClientOp::CasGet(o) => o.current_phase(),
        }
    }

    /// `(needed, received)` of the stalled phase's quorum (timeout diagnostics).
    fn pending_quorum(&self) -> (usize, usize) {
        match self {
            ClientOp::AbdPut(o) => o.pending_quorum(),
            ClientOp::AbdGet(o) => o.pending_quorum(),
            ClientOp::CasPut(o) => o.pending_quorum(),
            ClientOp::CasGet(o) => o.pending_quorum(),
        }
    }

    fn on_reply(&mut self, from: DcId, phase: u8, reply: ProtoReply) -> OpProgress {
        match self {
            ClientOp::AbdPut(o) => o.on_reply(from, phase, reply),
            ClientOp::AbdGet(o) => o.on_reply(from, phase, reply),
            ClientOp::CasPut(o) => o.on_reply(from, phase, reply),
            ClientOp::CasGet(o) => o.on_reply(from, phase, reply),
        }
    }
}

/// Statistics kept by a client about its own operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientStats {
    /// Completed GETs.
    pub gets: u64,
    /// GETs that finished in one phase (optimized GETs).
    pub one_phase_gets: u64,
    /// Completed PUTs.
    pub puts: u64,
    /// Operation attempts that were restarted because of a reconfiguration.
    pub reconfig_restarts: u64,
    /// Operation attempts that were restarted after a timeout.
    pub timeout_restarts: u64,
}

/// A LEGOStore client bound to one data center.
pub struct StoreClient {
    cluster: Arc<ClusterInner>,
    dc: DcId,
    client_id: ClientId,
    /// Local view of key configurations (refreshed on redirects).
    view: HashMap<Key, Configuration>,
    /// Client-side cache used by the CAS optimized GET.
    cas_cache: HashMap<Key, (Tag, Value)>,
    /// Per-client operation statistics.
    stats: ClientStats,
}

impl StoreClient {
    pub(crate) fn new(cluster: Arc<ClusterInner>, dc: DcId) -> StoreClient {
        let client_id = ClientId(cluster.next_client_id.fetch_add(1, Ordering::Relaxed));
        StoreClient {
            cluster,
            dc,
            client_id,
            view: HashMap::new(),
            cas_cache: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// The data center this client runs in.
    pub fn dc(&self) -> DcId {
        self.dc
    }

    /// This client's unique identifier (the tie-breaker in tags).
    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// Operation statistics collected so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// CREATE: registers `key` with the default configuration (ABD over the nearest DCs) and
    /// stores `value` as its initial version. Errors if the key already exists.
    pub fn create(&mut self, key: &Key, value: Value) -> StoreResult<()> {
        let f = self.cluster.options.default_fault_tolerance;
        let dcs: Vec<DcId> = self
            .cluster
            .model
            .nearest_dcs(self.dc)
            .into_iter()
            .take(2 * f + 1)
            .collect();
        let config = Configuration::abd_majority(dcs, f);
        self.create_with_config(key, value, config)
    }

    /// CREATE with an explicit configuration (e.g. one produced by the optimizer).
    pub fn create_with_config(
        &mut self,
        key: &Key,
        value: Value,
        config: Configuration,
    ) -> StoreResult<()> {
        config
            .validate()
            .map_err(|e| StoreError::InvalidConfiguration(e.to_string()))?;
        {
            let mut meta = self.cluster.metadata.lock();
            if meta.contains_key(key) {
                return Err(StoreError::KeyAlreadyExists(key.clone()));
            }
            meta.insert(key.clone(), config.clone());
        }
        for (dc, payload) in DcServer::initial_payloads(&config, &value) {
            self.cluster.control(
                dc,
                ControlMsg::InstallKey {
                    key: key.clone(),
                    config: config.clone(),
                    tag: Tag::INITIAL,
                    payload,
                },
            );
        }
        self.cluster
            .recorder
            .register_key(key.as_str(), fingerprint(value.as_bytes()));
        self.view.insert(key.clone(), config);
        Ok(())
    }

    /// DELETE: removes the key everywhere. Errors if the key does not exist.
    pub fn delete(&mut self, key: &Key) -> StoreResult<()> {
        let existed = self.cluster.metadata.lock().remove(key).is_some();
        if !existed {
            return Err(StoreError::KeyNotFound(key.clone()));
        }
        for dc in self.cluster.model.dc_ids() {
            self.cluster.control(dc, ControlMsg::RemoveKey(key.clone()));
        }
        self.view.remove(key);
        self.cas_cache.remove(key);
        Ok(())
    }

    /// GET: returns the value of `key`.
    pub fn get(&mut self, key: &Key) -> StoreResult<Value> {
        let clock = self.cluster.clock().clone();
        // Registered with the clock for the whole call, `invoke` and `ret` included: a
        // virtual clock must not jump while this thread sits between sends and waits, or
        // while it hashes and records a (possibly large) value. A jump there would charge
        // other participants' progress to this operation's interval.
        let _participant = clock.enter();
        let invoke = clock.now_ns();
        let (value, one_phase) = self.run_operation(key, OpKind::Get, None)?;
        let ret = clock.now_ns();
        self.stats.gets += 1;
        if one_phase {
            self.stats.one_phase_gets += 1;
        }
        self.cluster.recorder.record_get(
            key.as_str(),
            self.client_id.0,
            fingerprint(value.as_bytes()),
            invoke,
            ret,
        );
        Ok(value)
    }

    /// PUT: overwrites the value of `key`.
    pub fn put(&mut self, key: &Key, value: Value) -> StoreResult<()> {
        let clock = self.cluster.clock().clone();
        // Registered for the whole call, as in `get`.
        let _participant = clock.enter();
        let invoke = clock.now_ns();
        let fp = fingerprint(value.as_bytes());
        self.run_operation(key, OpKind::Put, Some(value))?;
        let ret = clock.now_ns();
        self.stats.puts += 1;
        self.cluster
            .recorder
            .record_put(key.as_str(), self.client_id.0, fp, invoke, ret);
        Ok(())
    }

    /// Refreshes this client's view of `key`'s configuration from the metadata service.
    pub fn refresh_view(&mut self, key: &Key) -> StoreResult<Configuration> {
        let config = self
            .cluster
            .metadata
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::KeyNotFound(key.clone()))?;
        self.view.insert(key.clone(), config.clone());
        Ok(config)
    }

    fn config_for(&mut self, key: &Key) -> StoreResult<Configuration> {
        if let Some(c) = self.view.get(key) {
            return Ok(c.clone());
        }
        self.refresh_view(key)
    }

    fn build_op(&self, key: &Key, kind: OpKind, config: &Configuration, value: Option<&Value>) -> ClientOp {
        match (config.protocol, kind) {
            (ProtocolKind::Abd, OpKind::Put) => ClientOp::AbdPut(AbdPut::new(
                key.clone(),
                config.clone(),
                self.dc,
                self.client_id,
                value.cloned().unwrap_or_else(Value::empty),
            )),
            (ProtocolKind::Abd, OpKind::Get) => ClientOp::AbdGet(AbdGet::new(
                key.clone(),
                config.clone(),
                self.dc,
                self.cluster.options.optimized_get,
            )),
            (ProtocolKind::Cas, OpKind::Put) => ClientOp::CasPut(CasPut::new(
                key.clone(),
                config.clone(),
                self.dc,
                self.client_id,
                value.cloned().unwrap_or_else(Value::empty),
            )),
            (ProtocolKind::Cas, OpKind::Get) => {
                let cache = if self.cluster.options.optimized_get {
                    self.cas_cache.get(key).cloned()
                } else {
                    None
                };
                ClientOp::CasGet(CasGet::new(key.clone(), config.clone(), self.dc, cache))
            }
        }
    }

    /// Builds (or rebuilds) the operation state machine, recording the erasure-encode
    /// duration on CAS PUTs when a span is active (`CasPut::new` splits the value into
    /// coded elements).
    fn build_op_traced(
        &self,
        key: &Key,
        kind: OpKind,
        config: &Configuration,
        value: Option<&Value>,
        span: &mut Option<OpSpan>,
    ) -> ClientOp {
        let Some(s) = span.as_mut() else {
            return self.build_op(key, kind, config, value);
        };
        let clock = self.cluster.clock();
        let build_started_ns = clock.now_ns();
        let op = self.build_op(key, kind, config, value);
        if kind.is_put() && matches!(config.protocol, ProtocolKind::Cas) {
            let now = clock.now_ns();
            s.push(now, SpanEventKind::Encode { dur_ns: now.saturating_sub(build_started_ns) });
        }
        op
    }

    /// Rebuilds the state machine after a reconfiguration moved the key to a new epoch.
    ///
    /// A PUT that already chose its tag in the old epoch re-enters the new epoch
    /// *resumed* at the write phase with that tag pinned
    /// ([`AbdPut::resume_write`] / [`CasPut::resume_write`]): its old-epoch phase-2
    /// writes may have landed at old servers and been transferred into the new
    /// placement, so a fresh machine would re-query and install the same value again
    /// under a higher tag — one logical PUT linearizing twice, observable as a
    /// new → old → new read sequence. GETs and PUTs still in their query phase have no
    /// cross-epoch effect to deduplicate and restart fresh.
    fn rebuild_for_epoch(
        &self,
        key: &Key,
        kind: OpKind,
        config: &Configuration,
        value: Option<&Value>,
        pinned: Option<Tag>,
        span: &mut Option<OpSpan>,
    ) -> ClientOp {
        let Some(tag) = pinned.filter(|_| kind.is_put()) else {
            return self.build_op_traced(key, kind, config, value, span);
        };
        let clock = self.cluster.clock();
        let build_started_ns = clock.now_ns();
        let value = value.cloned().unwrap_or_else(Value::empty);
        let op = match config.protocol {
            ProtocolKind::Abd => ClientOp::AbdPut(AbdPut::resume_write(
                key.clone(),
                config.clone(),
                self.dc,
                self.client_id,
                tag,
                value,
            )),
            ProtocolKind::Cas => ClientOp::CasPut(CasPut::resume_write(
                key.clone(),
                config.clone(),
                self.dc,
                self.client_id,
                tag,
                value,
            )),
        };
        if let Some(s) = span.as_mut() {
            if matches!(config.protocol, ProtocolKind::Cas) {
                let now = clock.now_ns();
                s.push(now, SpanEventKind::Encode { dur_ns: now.saturating_sub(build_started_ns) });
            }
        }
        op
    }

    /// Runs one GET/PUT to completion, handling reconfiguration redirects and timeouts.
    /// Returns the value read (GETs) or the value written (PUTs) plus the one-phase flag.
    /// The caller holds a [`Clock::enter`](crate::clock::Clock::enter) guard throughout.
    ///
    /// Telemetry wrapper: when observability is on, the whole operation is covered by an
    /// [`OpSpan`] (phase starts, replies with their service/network split, retries), the
    /// finished span feeds the client metric bundle and the bounded op-record queue, and
    /// a terminal [`StoreError::QuorumUnreachable`] dumps the flight recorder to stderr
    /// so the events leading up to the give-up are preserved.
    fn run_operation(
        &mut self,
        key: &Key,
        kind: OpKind,
        value: Option<Value>,
    ) -> StoreResult<(Value, bool)> {
        let obs = self.cluster.obs.clone();
        if !obs.enabled() {
            return self.run_operation_inner(key, kind, value, &mut None);
        }
        let clock = self.cluster.clock().clone();
        let started_ns = clock.now_ns();
        let mut span = Some(OpSpan::new(obs.next_op_id(), kind, key.as_str(), self.dc, started_ns));
        let result = self.run_operation_inner(key, kind, value, &mut span);
        let mut span = span.expect("span is only taken here");
        let completed_ns = clock.now_ns();
        let ok = result.is_ok();
        span.push(completed_ns, SpanEventKind::Finished { ok });
        self.cluster.client_metrics.observe_span(&span, completed_ns, ok);
        obs.push_op(OpRecord {
            op_id: span.op_id,
            kind,
            key: key.as_str().to_string(),
            origin: self.dc,
            started_ns,
            completed_ns,
            object_bytes: result
                .as_ref()
                .map(|(v, _)| v.as_bytes().len() as u64)
                .unwrap_or(0),
            ok,
        });
        if obs.trace_enabled() {
            eprintln!("{}", span.render());
        }
        if let Err(StoreError::QuorumUnreachable { attempts, last }) = &result {
            obs.flight().record(
                completed_ns,
                span.op_id,
                format!("{kind} {key} gave up after {attempts} attempts (last: {last})"),
            );
            obs.flight()
                .dump_to_stderr(&format!("{kind} {key} from {} hit QuorumUnreachable", self.dc));
        }
        result
    }

    /// The uninstrumented operation loop behind [`StoreClient::run_operation`]; `span`
    /// is `Some` only when observability is enabled.
    fn run_operation_inner(
        &mut self,
        key: &Key,
        kind: OpKind,
        value: Option<Value>,
        span: &mut Option<OpSpan>,
    ) -> StoreResult<(Value, bool)> {
        let mut config = self.config_for(key)?;
        let max_attempts = self.cluster.options.max_attempts.max(1);
        let mut last_error = StoreError::QuorumTimeout { needed: 0, received: 0 };
        let clock = self.cluster.clock().clone();
        // One state machine for the whole operation. A timed-out attempt *resumes* it
        // (§4.5: re-send the current phase to every placement DC) rather than restarting:
        // a restarted PUT whose writes already landed somewhere would install the same
        // value again under a fresh tag — one logical write, two linearization points.
        // The machine is rebuilt only when the configuration itself changed (reconfig
        // redirect or epoch bump) or after a retryable in-protocol failure, which only
        // effect-free reads report.
        let mut op = self.build_op_traced(key, kind, &config, value.as_ref(), span);
        let mut resume = false;
        // True once a reconfiguration redirected this operation into a newer epoch.
        // During that window a KeyNotFound from a new-placement server is transient
        // (the controller's write-new round may not have reached it yet), so it is
        // retried instead of surfaced, as long as the metadata still lists the key.
        let mut crossed_epochs = false;
        // Span bookkeeping: which phase is running and when it started (a reply's
        // network share is measured from the start of the phase that solicited it).
        let mut last_phase: u8 = 0;
        let mut phase_started_ns: u64 = 0;
        for _attempt in 0..max_attempts {
            let endpoint = self.cluster.transport.open_endpoint();
            let deadline_ns =
                clock.now_ns() + self.cluster.options.op_timeout.as_nanos() as u64;
            // A fresh endpoint per attempt: dropping it at the end of the attempt closes
            // its reply channel (and deregisters its route, on transports that keep one),
            // so replies that straggle in after a timeout or a reconfiguration redirect
            // are discarded at the source (and cannot hold a virtual clock back).
            let mut inbox: DelayedInbox<ReplyEnvelope> = DelayedInbox::new();
            let mut outbound = if resume { op.resend_widened() } else { op.start() };
            if let Some(s) = span.as_mut() {
                last_phase = op.current_phase();
                phase_started_ns = clock.now_ns();
                s.push(phase_started_ns, SpanEventKind::PhaseStart { phase: last_phase });
            }
            // Metadata round trip owed after a reconfiguration redirect; slept only once
            // the attempt's reply channel is closed (a bare sleep with an open channel
            // could strand straggler replies and stall a virtual clock).
            let mut metadata_pause = None;
            let mut timed_out = false;
            loop {
                for out in outbound.drain(..) {
                    let inbound = Inbound {
                        from: endpoint.id(),
                        msg_id: 0,
                        phase: out.phase,
                        key: out.key.clone(),
                        epoch: out.epoch,
                        msg: out.msg.clone(),
                    };
                    self.cluster.send_request(self.dc, out.to, &endpoint, inbound)?;
                }
                // Wait for the next reply (or the attempt deadline).
                let env = match self.wait_for_reply(&endpoint, &mut inbox, config.epoch, deadline_ns)
                {
                    Some(env) => env,
                    None => {
                        timed_out = true;
                        // Record how far the stalled phase got, so a final
                        // QuorumUnreachable carries real needed/received counts.
                        let (needed, received) = op.pending_quorum();
                        last_error = StoreError::QuorumTimeout { needed, received };
                        break; // timeout: resume with a widened re-send
                    }
                };
                let reply_seen_ns = span.as_mut().map(|s| {
                    let now = clock.now_ns();
                    let network_ns =
                        now.saturating_sub(phase_started_ns).saturating_sub(env.service_ns);
                    s.push(
                        now,
                        SpanEventKind::Reply {
                            from: env.from,
                            phase: env.phase,
                            service_ns: env.service_ns,
                            network_ns,
                        },
                    );
                    now
                });
                match op.on_reply(env.from, env.phase, env.reply) {
                    OpProgress::Pending => {}
                    OpProgress::Send(msgs) => {
                        outbound = msgs;
                        if let Some(s) = span.as_mut() {
                            let phase = op.current_phase();
                            if phase != last_phase {
                                last_phase = phase;
                                phase_started_ns = clock.now_ns();
                                s.push(phase_started_ns, SpanEventKind::PhaseStart { phase });
                            }
                        }
                    }
                    OpProgress::Done(outcome) => match outcome {
                        OpOutcome::PutOk { tag } => {
                            if let Some(v) = &value {
                                self.cas_cache.insert(key.clone(), (tag, v.clone()));
                            }
                            return Ok((value.unwrap_or_else(Value::empty), false));
                        }
                        OpOutcome::GetOk { tag, value, one_phase } => {
                            if let Some(s) = span.as_mut() {
                                // The completing on_reply of a CAS GET reassembles the
                                // value from coded elements — charge it as decode time.
                                if matches!(config.protocol, ProtocolKind::Cas) {
                                    let now = clock.now_ns();
                                    let dur_ns =
                                        now.saturating_sub(reply_seen_ns.unwrap_or(now));
                                    s.push(now, SpanEventKind::Decode { dur_ns });
                                }
                                if one_phase {
                                    self.cluster.client_metrics.one_phase_gets.inc();
                                }
                            }
                            self.cas_cache.insert(key.clone(), (tag, value.clone()));
                            return Ok((value, one_phase));
                        }
                        OpOutcome::Reconfigured { new_config } => {
                            // Fetch the new configuration (modeled as a metadata round trip
                            // to the controller DC) and restart against it.
                            self.stats.reconfig_restarts += 1;
                            if let Some(s) = span.as_mut() {
                                let now = clock.now_ns();
                                s.push(now, SpanEventKind::ReconfigRestart);
                                self.cluster.obs.flight().record(
                                    now,
                                    s.op_id,
                                    format!(
                                        "{kind} {key}: restarting against epoch {}",
                                        new_config.epoch
                                    ),
                                );
                            }
                            metadata_pause = Some(self.cluster.reply_delay(
                                self.dc,
                                self.cluster.options.controller_dc,
                                self.cluster.options.metadata_bytes,
                            ));
                            config = (*new_config).clone();
                            self.view.insert(key.clone(), config.clone());
                            last_error = StoreError::OperationFailedByReconfig {
                                new_epoch: config.epoch,
                            };
                            // Rebuild for the new epoch, pinning the tag a PUT already
                            // chose (its old-epoch writes may have been transferred).
                            op = self.rebuild_for_epoch(
                                key,
                                kind,
                                &config,
                                value.as_ref(),
                                op.chosen_tag(),
                                span,
                            );
                            resume = false;
                            crossed_epochs = true;
                            break;
                        }
                        OpOutcome::Failed(err) => {
                            if err.is_retryable() {
                                // Only effect-free reads reach here (e.g. a CAS GET that
                                // gathered too few coded elements), so a fresh state
                                // machine is safe — and re-querying picks up the newest
                                // finalized tag, which a resumed read would keep missing.
                                last_error = err;
                                op = self.build_op_traced(key, kind, &config, value.as_ref(), span);
                                resume = false;
                                break;
                            }
                            if crossed_epochs
                                && matches!(err, StoreError::KeyNotFound(_))
                                && self.cluster.metadata.lock().contains_key(key)
                            {
                                // The redirect raced the controller's write-new round: a
                                // new-placement server answered before the key reached
                                // it. The metadata still lists the key, so retry (with
                                // the PUT's tag still pinned) instead of failing.
                                last_error = err;
                                op = self.rebuild_for_epoch(
                                    key,
                                    kind,
                                    &config,
                                    value.as_ref(),
                                    op.chosen_tag(),
                                    span,
                                );
                                resume = false;
                                break;
                            }
                            return Err(err);
                        }
                    },
                }
            }
            // The attempt is over: close its endpoint (discarding any stragglers)
            // before pausing for the modeled metadata fetch.
            drop(endpoint);
            if let Some(delay) = metadata_pause {
                clock.sleep(delay);
            }
            if !timed_out {
                continue; // the outcome arm already rebuilt the operation
            }
            // The attempt timed out: refresh the view (it may have changed). If the
            // configuration moved, restart against it; otherwise resume the same
            // operation, re-sending its current phase to the full placement.
            if let Ok(fresh) = self.refresh_view(key) {
                if fresh.epoch > config.epoch {
                    config = fresh;
                    // Same cross-epoch hazard as the redirect arm: a timed-out PUT whose
                    // old-epoch writes were transferred must keep its tag in the new epoch.
                    op = self.rebuild_for_epoch(
                        key,
                        kind,
                        &config,
                        value.as_ref(),
                        op.chosen_tag(),
                        span,
                    );
                    resume = false;
                    crossed_epochs = true;
                    continue;
                }
            }
            resume = true;
            self.stats.timeout_restarts += 1;
            if let Some(s) = span.as_mut() {
                let now = clock.now_ns();
                let phase = op.current_phase();
                s.push(now, SpanEventKind::TimeoutWiden { phase });
                self.cluster.obs.flight().record(
                    now,
                    s.op_id,
                    format!(
                        "{kind} {key}: attempt timed out in phase {phase} ({last_error}); \
                         widening to the full placement"
                    ),
                );
            }
        }
        // Every attempt ended in a retryable failure (timeouts, reconfiguration races,
        // transport loss): report the terminal verdict instead of the last symptom, so
        // callers facing a beyond-`f` fault get a typed, non-retryable answer rather
        // than a generic timeout (or, worse, an unbounded hang).
        Err(StoreError::QuorumUnreachable {
            attempts: max_attempts,
            last: Box::new(last_error),
        })
    }

    /// Buffers `env` in `inbox` at its modeled arrival instant.
    fn buffer_reply(&self, inbox: &mut DelayedInbox<ReplyEnvelope>, env: ReplyEnvelope) {
        self.cluster.buffer_reply(self.dc, inbox, env);
    }

    /// Waits for the next reply addressed to `endpoint`, honoring modeled network
    /// delays. `deadline_ns` is a [`Clock::now_ns`](crate::clock::Clock::now_ns)
    /// timestamp. All parking happens in channel waits (never in a bare clock sleep), so
    /// replies keep being drained into the inbox while we wait for the earliest one.
    ///
    /// Replies are filtered by endpoint id *and* by `epoch`: every request of the
    /// attempt carries the attempt's configuration epoch and servers echo it back, so
    /// an envelope stamped with any other epoch is a straggler solicited before a
    /// reconfiguration redirect (or a routing mix-up) and is discarded unseen.
    fn wait_for_reply(
        &mut self,
        endpoint: &Endpoint,
        inbox: &mut DelayedInbox<ReplyEnvelope>,
        epoch: legostore_types::ConfigEpoch,
        deadline_ns: u64,
    ) -> Option<ReplyEnvelope> {
        let clock = self.cluster.clock().clone();
        loop {
            // Drain anything already delivered into the delayed inbox.
            while let Some(env) = endpoint.try_recv() {
                if env.endpoint == endpoint.id() && env.epoch == epoch {
                    self.buffer_reply(inbox, env);
                }
            }
            if let Some(env) = inbox.pop_ready(clock.now_ns()) {
                return Some(env);
            }
            if clock.now_ns() >= deadline_ns {
                return None;
            }
            let wake_ns = inbox
                .next_available_at()
                .unwrap_or(deadline_ns)
                .min(deadline_ns);
            match endpoint.recv_deadline_ns(wake_ns) {
                Some(env) => {
                    if env.endpoint == endpoint.id() && env.epoch == epoch {
                        self.buffer_reply(inbox, env);
                    }
                }
                None => {
                    if clock.now_ns() >= deadline_ns
                        && inbox.next_available_at().map(|t| t > deadline_ns).unwrap_or(true)
                    {
                        return None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::cluster::{Cluster, ClusterOptions};
    use legostore_cloud::GcpLocation;
    use std::time::Duration;

    fn fast_cluster() -> Cluster {
        Cluster::gcp9(ClusterOptions {
            latency_scale: 0.002,
            op_timeout: Duration::from_millis(250),
            clock: Clock::virtual_time(),
            ..Default::default()
        })
    }

    #[test]
    fn create_get_put_delete_round_trip() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        let key = Key::from("user:1");
        client.create(&key, Value::from("hello")).unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::from("hello"));
        client.put(&key, Value::from("world")).unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::from("world"));
        client.delete(&key).unwrap();
        assert!(matches!(client.get(&key), Err(StoreError::KeyNotFound(_))));
        cluster.shutdown();
    }

    #[test]
    fn create_twice_fails_and_delete_missing_fails() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Oregon.dc());
        let key = Key::from("dup");
        client.create(&key, Value::from("a")).unwrap();
        assert!(matches!(
            client.create(&key, Value::from("b")),
            Err(StoreError::KeyAlreadyExists(_))
        ));
        assert!(matches!(
            client.delete(&Key::from("missing")),
            Err(StoreError::KeyNotFound(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn cas_configuration_round_trip_and_cache() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Virginia.dc());
        let key = Key::from("coded");
        let config = Configuration::cas_default(
            vec![
                GcpLocation::Virginia.dc(),
                GcpLocation::Oregon.dc(),
                GcpLocation::LosAngeles.dc(),
                GcpLocation::Frankfurt.dc(),
                GcpLocation::London.dc(),
            ],
            3,
            1,
        );
        client
            .create_with_config(&key, Value::filler(5000), config)
            .unwrap();
        assert_eq!(client.get(&key).unwrap(), Value::filler(5000));
        client.put(&key, Value::filler(2500)).unwrap();
        // The second GET can use the client-side cache and complete in one phase.
        assert_eq!(client.get(&key).unwrap(), Value::filler(2500));
        let stats = client.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.puts, 1);
        assert!(stats.one_phase_gets >= 1, "{stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        // CAS with n < k + 2f is invalid.
        let bad = Configuration::cas_default(
            vec![GcpLocation::Tokyo.dc(), GcpLocation::Oregon.dc(), GcpLocation::Virginia.dc()],
            3,
            1,
        );
        assert!(matches!(
            client.create_with_config(&Key::from("bad"), Value::empty(), bad),
            Err(StoreError::InvalidConfiguration(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn two_clients_in_different_dcs_see_each_others_writes() {
        let cluster = fast_cluster();
        let key = Key::from("shared");
        let mut tokyo = cluster.client(GcpLocation::Tokyo.dc());
        let mut london = cluster.client(GcpLocation::London.dc());
        tokyo.create(&key, Value::from("t0")).unwrap();
        tokyo.put(&key, Value::from("from-tokyo")).unwrap();
        assert_eq!(london.get(&key).unwrap(), Value::from("from-tokyo"));
        london.put(&key, Value::from("from-london")).unwrap();
        assert_eq!(tokyo.get(&key).unwrap(), Value::from("from-london"));
        // The recorded history is linearizable.
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }

    /// A fault plan crashing `victims` from t=0 with no recovery (a beyond-`f` outage
    /// when more than `f` of the placement is listed).
    fn permanent_crash_plan(victims: &[DcId]) -> legostore_types::FaultPlan {
        legostore_types::FaultPlan {
            seed: 1,
            events: victims
                .iter()
                .map(|dc| legostore_types::FaultEvent {
                    at_ms: 0.0,
                    kind: legostore_types::FaultKind::CrashDc { dc: *dc },
                })
                .collect(),
        }
    }

    fn faulted_cluster(victims: &[DcId]) -> Cluster {
        Cluster::gcp9(ClusterOptions {
            latency_scale: 0.002,
            op_timeout: Duration::from_millis(250),
            max_attempts: 3,
            clock: Clock::virtual_time(),
            fault_plan: permanent_crash_plan(victims),
            ..Default::default()
        })
    }

    #[test]
    fn abd_beyond_f_returns_quorum_unreachable() {
        // ABD(3, f=1) with 2 of 3 hosts crashed forever: no attempt can ever assemble a
        // majority. The client must give up with the typed terminal error — bounded in
        // (virtual) time, no hang, no panic.
        let victims = [GcpLocation::LosAngeles.dc(), GcpLocation::Oregon.dc()];
        let cluster = faulted_cluster(&victims);
        let config = Configuration::abd_majority(
            vec![GcpLocation::Tokyo.dc(), victims[0], victims[1]],
            1,
        );
        cluster.install_key("k", config, &Value::from("v"));
        let mut client = cluster.client(GcpLocation::Tokyo.dc());
        let put = client.put(&Key::from("k"), Value::from("w"));
        let Err(StoreError::QuorumUnreachable { attempts, last }) = put else {
            panic!("expected QuorumUnreachable, got {put:?}");
        };
        assert_eq!(attempts, 3);
        // The wrapped error carries the stalled phase's real progress: the write-query
        // quorum is 2 and only Tokyo could answer.
        assert_eq!(*last, StoreError::QuorumTimeout { needed: 2, received: 1 });
        let get = client.get(&Key::from("k"));
        assert!(matches!(get, Err(StoreError::QuorumUnreachable { .. })), "{get:?}");
        // Failed operations are never recorded, so the history cannot be corrupted.
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn cas_beyond_f_returns_quorum_unreachable() {
        // CAS(5, k=3, f=1) needs quorums of 4; with 2 hosts crashed only 3 remain.
        let victims = [GcpLocation::Oregon.dc(), GcpLocation::Frankfurt.dc()];
        let cluster = faulted_cluster(&victims);
        let config = Configuration::cas_default(
            vec![
                GcpLocation::Virginia.dc(),
                victims[0],
                GcpLocation::LosAngeles.dc(),
                victims[1],
                GcpLocation::London.dc(),
            ],
            3,
            1,
        );
        cluster.install_key("coded", config, &Value::filler(600));
        let mut client = cluster.client(GcpLocation::Virginia.dc());
        let put = client.put(&Key::from("coded"), Value::filler(300));
        assert!(matches!(put, Err(StoreError::QuorumUnreachable { attempts: 3, .. })), "{put:?}");
        let get = client.get(&Key::from("coded"));
        assert!(matches!(get, Err(StoreError::QuorumUnreachable { .. })), "{get:?}");
        assert!(client.stats().timeout_restarts >= 2, "{:?}", client.stats());
        cluster.shutdown();
    }

    #[test]
    fn a_ticking_participant_does_not_stretch_operations() {
        // Hashing a multi-MiB value takes real time. A participant that ticks the virtual
        // clock meanwhile must not move the recorded `invoke`/`ret` of the operations.
        let value = Value::from(vec![7u8; 8 << 20]);
        let intervals = |with_ticker: bool| -> Vec<u64> {
            let cluster = fast_cluster();
            let key = Key::from("big");
            let mut client = cluster.client(GcpLocation::Tokyo.dc());
            client.create(&key, Value::from("0")).unwrap();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let ticker = with_ticker.then(|| {
                let (clock, stop) = (cluster.options().clock.clone(), stop.clone());
                std::thread::spawn(move || {
                    let _guard = clock.enter();
                    while !stop.load(Ordering::Relaxed) {
                        clock.sleep(Duration::from_millis(1));
                    }
                })
            });
            client.put(&key, value.clone()).unwrap();
            assert_eq!(client.get(&key).unwrap(), value);
            stop.store(true, Ordering::Relaxed);
            if let Some(ticker) = ticker {
                ticker.join().unwrap();
            }
            let history = cluster.recorder().history("big").unwrap();
            cluster.shutdown();
            history.operations.iter().map(|op| op.ret - op.invoke).collect()
        };
        let solo = intervals(false);
        assert_eq!(solo.len(), 2);
        assert_eq!(intervals(true), solo);
    }

    #[test]
    fn history_recorder_sees_all_operations() {
        let cluster = fast_cluster();
        let mut client = cluster.client(GcpLocation::Sydney.dc());
        let key = Key::from("audited");
        client.create(&key, Value::from("0")).unwrap();
        for i in 1..=5 {
            client.put(&key, Value::from(format!("{i}").as_str())).unwrap();
            client.get(&key).unwrap();
        }
        assert_eq!(cluster.recorder().len("audited"), 10);
        assert!(cluster.recorder().check_all().is_empty());
        cluster.shutdown();
    }
}
