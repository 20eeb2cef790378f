//! The simulation runner: `n` servers running `shim(P)` over the simulated
//! network, with a workload and optional byzantine roles.
//!
//! The runner realizes the deployment of Figure 1: every correct server is
//! a [`Shim<P>`] whose [`NetCommand`]s are routed through the
//! [`NetworkModel`]; byzantine servers are [`ByzServer`]s. Dissemination is
//! requested on a per-server timer (Algorithm 3, lines 10–11), `FWD`
//! retries on another. A correct server ingests the way the TCP node does:
//! each run of same-instant deliveries to it, up to
//! [`INGEST_BURST_CAP`], is one [`Shim::on_message_burst`] bracket;
//! byzantine servers take their messages one at a time. Everything — keys,
//! latencies, drops, event order — derives from the seed, so runs are
//! exactly reproducible.

use std::collections::{BTreeSet, HashMap};

use dagbft_codec::{WireDecode, WireEncode};
use dagbft_core::{
    accountability, AdmissionMode, BlockStore, DefenseConfig, DeterministicProtocol, Label,
    NetCommand, NetMessage, ProtocolConfig, RecoverError, RecoveryReport, Shim, ShimConfig,
    SnapshotProtocol, TimeMs, INGEST_BURST_CAP,
};
use dagbft_crypto::{KeyRegistry, SchemeKind, ServerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{ByzServer, Role};
use crate::metrics::{Delivery, NetMetrics};
use crate::net::NetworkModel;
use crate::sched::EventQueue;

/// One request injection: at time `at`, server `server` receives
/// `request(label, request)` from its user.
#[derive(Debug, Clone)]
pub struct Injection<P: DeterministicProtocol> {
    /// Injection time.
    pub at: TimeMs,
    /// Index of the receiving server.
    pub server: usize,
    /// The protocol instance label.
    pub label: Label,
    /// The request handed to `shim(P)`.
    pub request: P::Request,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of servers.
    pub n: usize,
    /// Randomness seed (keys, latencies, drops).
    pub seed: u64,
    /// The embedded protocol's fault configuration.
    pub protocol: ProtocolConfig,
    /// Interval between a server's `disseminate()` calls.
    pub disseminate_every: TimeMs,
    /// Interval between `FWD`-retry timer ticks.
    pub tick_every: TimeMs,
    /// Hard stop time.
    pub max_time: TimeMs,
    /// Early stop once this many deliveries were observed (`None`: run to
    /// `max_time`).
    pub stop_after_deliveries: Option<usize>,
    /// The network model.
    pub network: NetworkModel,
    /// Per-server roles; missing entries default to [`Role::Correct`].
    pub roles: HashMap<usize, Role>,
    /// Cap on requests per block (Algorithm 3's `rqsts.get()`).
    pub max_requests_per_block: usize,
    /// Gossip admission engine for every correct server: the batched
    /// index (default), the scan oracle, or the parallel pipeline with a
    /// per-server verification worker pool. Whole-simulation byte
    /// equivalence across all three is asserted by
    /// `tests/cross_seed_determinism.rs`.
    pub admission: AdmissionMode,
    /// Bound on each correct server's gossip pending buffer (see
    /// `dagbft_core::GossipConfig::pending_cap`).
    pub pending_cap: usize,
    /// Signature scheme for the whole server set: the HMAC stand-in
    /// (default — cheap, the determinism oracle) or real ed25519 with
    /// multi-scalar batch verification. Promotion orders and delivery
    /// sequences are identical under both; only signature bytes and
    /// per-operation cost differ.
    pub scheme: SchemeKind,
    /// Peer-defense configuration for every correct server (scored
    /// admission, rate limits, bans — see `dagbft_core::DefenseConfig`).
    /// Disabled by default: every pinned fingerprint predates the defense
    /// layer and must stay byte-identical without it.
    pub defense: DefenseConfig,
}

impl SimConfig {
    /// A default configuration for `n` servers: seed 42, 50 ms
    /// dissemination, default latency, no faults, 60 simulated seconds.
    pub fn new(n: usize) -> Self {
        SimConfig {
            n,
            seed: 42,
            protocol: ProtocolConfig::for_n(n),
            disseminate_every: 50,
            tick_every: 100,
            max_time: 60_000,
            stop_after_deliveries: None,
            network: NetworkModel::default(),
            roles: HashMap::new(),
            max_requests_per_block: 1024,
            admission: AdmissionMode::default(),
            pending_cap: dagbft_core::DEFAULT_PENDING_CAP,
            scheme: SchemeKind::default(),
            defense: DefenseConfig::default(),
        }
    }

    /// Sets the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the dissemination interval.
    pub fn with_disseminate_every(mut self, interval: TimeMs) -> Self {
        self.disseminate_every = interval;
        self
    }

    /// Sets the hard stop time.
    pub fn with_max_time(mut self, max_time: TimeMs) -> Self {
        self.max_time = max_time;
        self
    }

    /// Stops the run early after `count` deliveries.
    pub fn with_stop_after_deliveries(mut self, count: usize) -> Self {
        self.stop_after_deliveries = Some(count);
        self
    }

    /// Assigns a role to one server.
    pub fn with_role(mut self, server: usize, role: Role) -> Self {
        self.roles.insert(server, role);
        self
    }

    /// Selects the gossip admission engine for all correct servers.
    pub fn with_admission(mut self, admission: AdmissionMode) -> Self {
        self.admission = admission;
        self
    }

    /// Bounds each correct server's gossip pending buffer.
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Selects the signature scheme for the whole server set.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Configures the peer-defense layer on every correct server.
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }

    /// Number of byzantine servers configured.
    pub fn byzantine_count(&self) -> usize {
        self.roles.values().filter(|r| r.is_byzantine()).count()
    }

    /// The configuration every correct server's shim is built with — at
    /// start, on rejoin and on recovery from a durable crash alike.
    fn shim_config(&self) -> ShimConfig {
        ShimConfig::new(self.protocol)
            .with_max_requests_per_block(self.max_requests_per_block)
            .with_admission(self.admission)
            .with_pending_cap(self.pending_cap)
            .with_defense(self.defense)
    }
}

/// A server slot in the simulation.
enum Server<P: DeterministicProtocol> {
    Correct(Box<Shim<P>>),
    Byzantine(Box<ByzServer>),
    /// A crashed server; retained for index stability.
    Crashed,
    /// A crashed server awaiting restart, holding its persisted DAG image.
    Down {
        /// `recovery::persist_dag` bytes captured at crash time.
        image: Vec<u8>,
    },
}

/// What happened in a run.
#[derive(Debug)]
pub struct SimOutcome<P: DeterministicProtocol> {
    /// All user-facing deliveries, in time order.
    pub deliveries: Vec<Delivery<P::Indication>>,
    /// Wire traffic counters.
    pub net: NetMetrics,
    /// Signature operations (from the shared key registry).
    pub signatures: u64,
    /// Verification operations (batched items included, so this total is
    /// admission-mode independent).
    pub verifications: u64,
    /// Batched verification passes performed by the admission pipeline
    /// (zero under [`AdmissionMode::Scan`]).
    pub verify_batches: u64,
    /// Verifications that went through batched waves — the share of
    /// `verifications` on the amortized path.
    pub batched_verifications: u64,
    /// Admission bursts accounted by the crypto layer: one per bracket
    /// that batch-verified a signature, one-block brackets included.
    pub verify_bursts: u64,
    /// Verifications that belonged to those bursts.
    pub burst_verifications: u64,
    /// Wave statistics aggregated over all correct servers: widths
    /// (min/mean/max plus a log₂ histogram), wave and burst counts.
    pub wave_stats: dagbft_core::WaveStats,
    /// Simulation time at stop.
    pub finished_at: TimeMs,
    /// Injection times by label (first injection wins), for latency math.
    pub injected_at: HashMap<Label, TimeMs>,
    /// Durable crash–recoveries performed during the run, in time order:
    /// `(at, server, report)`.
    pub recoveries: Vec<(TimeMs, ServerId, RecoveryReport)>,
    /// Transferable equivocation proofs extractable from the correct
    /// servers' final DAGs (§6 accountability;
    /// `accountability::collect_proofs` aggregated and deduplicated by
    /// `(accused, seq)` across servers).
    pub equivocation_proofs: usize,
    /// Builders convicted by at least one of those proofs.
    pub accused: BTreeSet<ServerId>,
    /// The servers, for post-run inspection (DAGs, interpreter stats).
    servers: Vec<ServerView<P>>,
}

/// Post-run view of one server.
#[derive(Debug)]
pub enum ServerView<P: DeterministicProtocol> {
    /// A correct server's final shim.
    Correct(Box<Shim<P>>),
    /// A byzantine server's final state.
    Byzantine(Box<ByzServer>),
    /// The server crashed during the run.
    Crashed,
}

impl<P: DeterministicProtocol> SimOutcome<P> {
    /// The final shim of a correct server.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not a correct server.
    pub fn shim(&self, index: usize) -> &Shim<P> {
        match &self.servers[index] {
            ServerView::Correct(shim) => shim,
            _ => panic!("server {index} is not correct"),
        }
    }

    /// The final DAG of any non-crashed server.
    pub fn dag(&self, index: usize) -> Option<&dagbft_core::BlockDag> {
        match &self.servers[index] {
            ServerView::Correct(shim) => Some(shim.dag()),
            ServerView::Byzantine(server) => Some(server.dag()),
            ServerView::Crashed => None,
        }
    }

    /// Deliveries for one label, in time order.
    pub fn deliveries_for(&self, label: Label) -> Vec<&Delivery<P::Indication>> {
        self.deliveries
            .iter()
            .filter(|d| d.label == label)
            .collect()
    }

    /// Delivery latencies (per delivery) for one label.
    pub fn latencies_for(&self, label: Label) -> Vec<TimeMs> {
        let Some(injected) = self.injected_at.get(&label) else {
            return Vec::new();
        };
        self.deliveries_for(label)
            .iter()
            .map(|d| d.latency_from(*injected))
            .collect()
    }

    /// Indices of servers that were correct for the whole run.
    pub fn correct_servers(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, ServerView::Correct(_)).then_some(i))
            .collect()
    }

    /// Aggregated interpreter memory footprint over all correct servers:
    /// total vs unique protocol instances (the copy-on-write sharing win)
    /// and envelope counts. `unique_instances` sums per-server-unique
    /// allocations; interpreters never share memory with each other.
    pub fn interpreter_footprint(&self) -> dagbft_core::InterpreterFootprint {
        let mut total = dagbft_core::InterpreterFootprint::default();
        for server in &self.servers {
            if let ServerView::Correct(shim) = server {
                total += shim.footprint();
            }
        }
        total
    }
}

/// How a server is rebuilt from its detached [`BlockStore`] after a
/// durable crash. A plain `fn` pointer so [`Simulation`] itself needs no
/// snapshot bounds: the bounded builder methods instantiate it with
/// [`Shim::recover_from_store`] or
/// [`Shim::recover_from_store_with_snapshots`].
type RecoverFn<P> = fn(
    ServerId,
    ShimConfig,
    &KeyRegistry,
    Box<dyn BlockStore>,
) -> Result<(Shim<P>, RecoveryReport), RecoverError>;

enum Event<P: DeterministicProtocol> {
    Rejoin {
        server: usize,
    },
    /// Crash-at-instant with same-instant restart from the durable store
    /// attached via [`Simulation::with_durable_store`].
    DurableCrash {
        server: usize,
    },
    Deliver {
        to: usize,
        from: ServerId,
        message: NetMessage,
    },
    Disseminate {
        server: usize,
    },
    Tick {
        server: usize,
    },
    Inject(Injection<P>),
}

/// A configured simulation, ready to run.
///
/// # Examples
///
/// See the crate-level docs.
pub struct Simulation<P: DeterministicProtocol> {
    config: SimConfig,
    registry: KeyRegistry,
    servers: Vec<Server<P>>,
    queue: EventQueue<Event<P>>,
    rng: StdRng,
    net: NetMetrics,
    deliveries: Vec<Delivery<P::Indication>>,
    injected_at: HashMap<Label, TimeMs>,
    recover_hook: Option<RecoverFn<P>>,
    /// Snapshot cadence to re-enable on recovered shims, with the
    /// fn-pointer that applies it (set by
    /// [`Simulation::with_durable_snapshots`]).
    snapshot_every: Option<u64>,
    snapshot_install: Option<fn(&mut Shim<P>, u64)>,
    recoveries: Vec<(TimeMs, ServerId, RecoveryReport)>,
}

impl<P: DeterministicProtocol> Simulation<P> {
    /// Builds the simulation: generates keys, instantiates servers per
    /// role, and schedules the recurring dissemination and tick timers.
    ///
    /// # Panics
    ///
    /// Panics if a configured role index is out of range.
    pub fn new(config: SimConfig) -> Self {
        let registry = KeyRegistry::generate_kind(config.scheme, config.n, config.seed);
        let shim_config = config.shim_config();
        let mut servers = Vec::with_capacity(config.n);
        for index in 0..config.n {
            let role = config.roles.get(&index).cloned().unwrap_or(Role::Correct);
            let server = match role {
                Role::Correct | Role::Crash { .. } | Role::Restart { .. } => {
                    Server::Correct(Box::new(
                        Shim::new(ServerId::new(index as u32), shim_config, &registry)
                            .expect("key exists for every server"),
                    ))
                }
                byzantine => Server::Byzantine(Box::new(ByzServer::new(
                    ServerId::new(index as u32),
                    config.n,
                    byzantine,
                    &registry,
                ))),
            };
            servers.push(server);
        }

        let mut queue = EventQueue::new();
        for index in 0..config.n {
            // Phase-shift the timers so servers do not act in lockstep.
            let phase = (index as TimeMs * config.disseminate_every) / config.n as TimeMs;
            queue.schedule(phase, Event::Disseminate { server: index });
            queue.schedule(phase + 1, Event::Tick { server: index });
            if let Some(Role::Restart { rejoin_at, .. }) = config.roles.get(&index) {
                // `schedule_first`, like injections: a server rejoining at
                // `t` must be up before an injection at the same `t`
                // reaches it (rejoins are enqueued at construction, so
                // within the class they still precede any injection).
                queue.schedule_first(*rejoin_at, Event::Rejoin { server: index });
            }
        }

        Simulation {
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(1)),
            registry,
            servers,
            queue,
            net: NetMetrics::default(),
            deliveries: Vec::new(),
            injected_at: HashMap::new(),
            recover_hook: None,
            snapshot_every: None,
            snapshot_install: None,
            recoveries: Vec::new(),
            config,
        }
    }

    /// Attaches a durable [`BlockStore`] to `server` and schedules a
    /// crash-at-instant at `crash_at`: at that moment the server's entire
    /// volatile state is dropped and it is rebuilt purely from the store
    /// (same-instant restart). The shim journals every admitted block and
    /// buffered request from now on.
    ///
    /// Recovery replays the journal from genesis unless
    /// [`Simulation::with_durable_snapshots`] is also configured.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not a correct server, or if attaching the
    /// store fails.
    pub fn with_durable_store(
        mut self,
        server: usize,
        store: Box<dyn BlockStore>,
        crash_at: TimeMs,
    ) -> Self {
        let Server::Correct(shim) = &mut self.servers[server] else {
            panic!("server {server} is not correct");
        };
        shim.attach_store(store).expect("durable store attaches");
        self.recover_hook
            .get_or_insert(Shim::recover_from_store as RecoverFn<P>);
        // `schedule_first`, like injections: the crash must precede any
        // same-instant delivery so the restarted server sees it fresh.
        self.queue
            .schedule_first(crash_at, Event::DurableCrash { server });
        self
    }

    /// Schedules a request injection.
    pub fn inject(&mut self, injection: Injection<P>) {
        assert!(injection.server < self.config.n, "server index in range");
        self.injected_at
            .entry(injection.label)
            .or_insert(injection.at);
        // `schedule_first`: an injection at time `t` must reach the shim
        // before a dissemination firing at the same `t` builds its block.
        self.queue
            .schedule_first(injection.at, Event::Inject(injection));
    }

    /// Schedules many injections.
    pub fn inject_all<I: IntoIterator<Item = Injection<P>>>(&mut self, injections: I) {
        for injection in injections {
            self.inject(injection);
        }
    }

    /// Runs to completion (`max_time`, early-stop, or quiescence) and
    /// returns the outcome.
    pub fn run(mut self) -> SimOutcome<P> {
        self.registry.metrics().reset();
        while let Some((now, event)) = self.queue.pop() {
            if now > self.config.max_time {
                break;
            }
            self.handle(now, event);
            if let Some(stop) = self.config.stop_after_deliveries {
                if self.deliveries.len() >= stop {
                    break;
                }
            }
        }
        let finished_at = self.queue.now();
        let mut wave_stats = dagbft_core::WaveStats::default();
        // Aggregate §6 accountability over the correct servers: every
        // proof any of them can extract, deduplicated by (accused, seq)
        // — the same fork seen by two servers is one conviction.
        let mut convictions: BTreeSet<(ServerId, dagbft_core::SeqNum)> = BTreeSet::new();
        let mut accused: BTreeSet<ServerId> = BTreeSet::new();
        for server in &self.servers {
            if let Server::Correct(shim) = server {
                wave_stats.merge(shim.gossip().wave_stats());
                for proof in accountability::collect_proofs(shim.dag()) {
                    convictions.insert((proof.accused(), proof.blocks().0.seq()));
                    accused.insert(proof.accused());
                }
            }
        }
        SimOutcome {
            deliveries: self.deliveries,
            net: self.net,
            signatures: self.registry.metrics().signs(),
            verifications: self.registry.metrics().verifies(),
            verify_batches: self.registry.metrics().batches(),
            batched_verifications: self.registry.metrics().batched_verifies(),
            verify_bursts: self.registry.metrics().bursts(),
            burst_verifications: self.registry.metrics().burst_verifies(),
            wave_stats,
            finished_at,
            injected_at: self.injected_at,
            recoveries: self.recoveries,
            equivocation_proofs: convictions.len(),
            accused,
            servers: self
                .servers
                .into_iter()
                .map(|server| match server {
                    Server::Correct(shim) => ServerView::Correct(shim),
                    Server::Byzantine(byz) => ServerView::Byzantine(byz),
                    Server::Crashed | Server::Down { .. } => ServerView::Crashed,
                })
                .collect(),
        }
    }

    fn handle(&mut self, now: TimeMs, event: Event<P>) {
        match event {
            Event::Rejoin { server } => {
                self.rejoin(server, now);
            }
            Event::DurableCrash { server } => {
                self.durable_crash(server, now);
            }
            Event::Inject(injection) => {
                self.crash_if_due(injection.server, now);
                if let Server::Correct(shim) = &mut self.servers[injection.server] {
                    shim.request(injection.label, injection.request);
                }
            }
            Event::Disseminate { server } => {
                self.crash_if_due(server, now);
                match &mut self.servers[server] {
                    Server::Correct(shim) => {
                        let commands = shim.disseminate(now);
                        self.route_commands(server, commands, now);
                        self.collect_deliveries(server, now);
                    }
                    Server::Byzantine(byz) => {
                        let sends = byz.disseminate(now);
                        for (to, message) in sends {
                            self.send(server, to.index(), message, now);
                        }
                    }
                    Server::Crashed | Server::Down { .. } => return, // no rescheduling
                }
                self.queue.schedule(
                    now + self.config.disseminate_every,
                    Event::Disseminate { server },
                );
            }
            Event::Tick { server } => {
                self.crash_if_due(server, now);
                match &mut self.servers[server] {
                    Server::Correct(shim) => {
                        let commands = shim.on_tick(now);
                        self.route_commands(server, commands, now);
                    }
                    Server::Byzantine(_) => {} // byzantine servers skip retries
                    Server::Crashed | Server::Down { .. } => return,
                }
                self.queue
                    .schedule(now + self.config.tick_every, Event::Tick { server });
            }
            Event::Deliver { to, from, message } => {
                self.crash_if_due(to, now);
                match &mut self.servers[to] {
                    Server::Correct(shim) => {
                        // Merge the run of deliveries queued for this server
                        // at this instant into one deferred-admission
                        // bracket, as the TCP node does with its channel.
                        let mut batch = vec![(from, message)];
                        while batch.len() < INGEST_BURST_CAP {
                            let coalesced = self.queue.pop_if(|at, event| {
                                at == now
                                    && matches!(
                                        event,
                                        Event::Deliver { to: next, .. } if *next == to
                                    )
                            });
                            match coalesced {
                                Some((_, Event::Deliver { from, message, .. })) => {
                                    batch.push((from, message));
                                }
                                Some(_) => unreachable!("pop_if matched a delivery"),
                                None => break,
                            }
                        }
                        let commands = shim.on_message_burst(batch, now);
                        self.route_commands(to, commands, now);
                        self.collect_deliveries(to, now);
                    }
                    Server::Byzantine(byz) => {
                        let commands = byz.on_message(from, message, now);
                        self.route_commands(to, commands, now);
                    }
                    Server::Crashed | Server::Down { .. } => {}
                }
            }
        }
    }

    /// Crash-stop servers whose time has come (checked lazily on their
    /// next event). Restarting servers persist their DAG at crash time —
    /// the paper's "persist enough information" prerequisite.
    fn crash_if_due(&mut self, server: usize, now: TimeMs) {
        match self.config.roles.get(&server) {
            Some(Role::Crash { at })
                if now >= *at && matches!(self.servers[server], Server::Correct(_)) =>
            {
                self.servers[server] = Server::Crashed;
            }
            Some(Role::Restart {
                crash_at,
                rejoin_at,
            }) => {
                let down_window = now >= *crash_at && now < *rejoin_at;
                if down_window {
                    if let Server::Correct(shim) = &self.servers[server] {
                        let image = dagbft_core::persist_dag(shim.dag());
                        self.servers[server] = Server::Down { image };
                    }
                }
            }
            _ => {}
        }
    }

    /// Recovers a restarting server from its persisted image
    /// (`Shim::recover`): the DAG is restored, instance states are
    /// re-derived by re-interpretation, and the block chain resumes at the
    /// correct sequence number. Indications re-raised by the replay are
    /// discarded — the modeled application persisted its own progress.
    fn rejoin(&mut self, server: usize, now: TimeMs) {
        let Server::Down { image } = &self.servers[server] else {
            return;
        };
        let dag = dagbft_core::restore_dag(image).expect("own image restores");
        let shim_config = self.config.shim_config();
        let mut shim = Shim::recover(
            ServerId::new(server as u32),
            shim_config,
            &self.registry,
            dag,
        )
        .expect("key exists for every server");
        let _replayed = shim.poll_indications();
        self.servers[server] = Server::Correct(Box::new(shim));
        // Timers died while down; restart them.
        self.queue.schedule(now, Event::Disseminate { server });
        self.queue.schedule(now + 1, Event::Tick { server });
    }

    /// Crash-at-instant with same-instant restart from the durable store:
    /// the old shim (DAG, interpreter, buffered requests, pending gossip)
    /// is dropped wholesale and the server rebuilt purely from what the
    /// store reads back. Indications re-raised by the replay are discarded
    /// — the modeled application persisted its own progress. The server
    /// slot never leaves `Correct`, so its dissemination and tick timers
    /// keep their schedule across the crash.
    fn durable_crash(&mut self, server: usize, now: TimeMs) {
        let Server::Correct(shim) = &mut self.servers[server] else {
            return;
        };
        let Some(store) = shim.detach_store() else {
            return;
        };
        let hook = self
            .recover_hook
            .expect("durable crash scheduled with a recovery hook");
        let shim_config = self.config.shim_config();
        let (mut recovered, report) = hook(
            ServerId::new(server as u32),
            shim_config,
            &self.registry,
            store,
        )
        .expect("recovery from durable store succeeds");
        let _ = recovered.poll_indications();
        let _ = recovered.drain_observed();
        if let (Some(every), Some(install)) = (self.snapshot_every, self.snapshot_install) {
            install(&mut recovered, every);
        }
        self.servers[server] = Server::Correct(Box::new(recovered));
        self.recoveries
            .push((now, ServerId::new(server as u32), report));
    }

    fn route_commands(&mut self, origin: usize, commands: Vec<NetCommand>, now: TimeMs) {
        for command in commands {
            match command {
                NetCommand::Broadcast { message } => {
                    for target in 0..self.config.n {
                        if target != origin {
                            self.send(origin, target, message.clone(), now);
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    self.send(origin, to.index(), message, now);
                }
            }
        }
    }

    fn send(&mut self, from: usize, to: usize, message: NetMessage, now: TimeMs) {
        let is_block = matches!(message, NetMessage::Block(_));
        let is_fwd = matches!(message, NetMessage::FwdRequest(_));
        // `wire_len` is O(1) off the cached block bytes, and the message
        // clone behind us (broadcast fan-out) was a reference-count bump —
        // the simulated wire path never re-encodes a block.
        self.net.record_send(message.wire_len(), is_block, is_fwd);
        let dropped = self.config.network.drops(&mut self.rng, from, to, now);
        self.net.record_outcome(dropped);
        if dropped {
            return;
        }
        let delay = self.config.network.delay(&mut self.rng);
        self.queue.schedule(
            now + delay,
            Event::Deliver {
                to,
                from: ServerId::new(from as u32),
                message,
            },
        );
    }

    fn collect_deliveries(&mut self, server: usize, now: TimeMs) {
        if let Server::Correct(shim) = &mut self.servers[server] {
            for (label, indication) in shim.poll_indications() {
                self.deliveries.push(Delivery {
                    at: now,
                    server: ServerId::new(server as u32),
                    label,
                    indication,
                });
            }
        }
    }
}

impl<P> Simulation<P>
where
    P: SnapshotProtocol,
    P::Message: WireEncode + WireDecode,
{
    /// Enables periodic interpreter snapshots (one every `every`
    /// interpreted blocks) on every correct server with an attached store,
    /// and switches durable-crash recovery to the snapshot catch-up path:
    /// the restarted server restores interpreter state from the latest
    /// snapshot and replays only the journal suffix past it.
    ///
    /// Call after [`Simulation::with_durable_store`].
    pub fn with_durable_snapshots(mut self, every: u64) -> Self {
        for server in &mut self.servers {
            if let Server::Correct(shim) = server {
                shim.enable_snapshots(every);
            }
        }
        self.snapshot_every = Some(every);
        self.snapshot_install = Some(|shim: &mut Shim<P>, every: u64| shim.enable_snapshots(every));
        self.recover_hook = Some(Shim::recover_from_store_with_snapshots as RecoverFn<P>);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_protocols::{Brb, BrbIndication, BrbRequest};

    fn broadcast_injection(
        at: TimeMs,
        server: usize,
        label: u64,
        value: u64,
    ) -> Injection<Brb<u64>> {
        Injection {
            at,
            server,
            label: Label::new(label),
            request: BrbRequest::Broadcast(value),
        }
    }

    #[test]
    fn injection_at_rejoin_instant_reaches_recovered_server() {
        // A request injected at exactly `rejoin_at` must land on the
        // recovered shim, not on the still-down server: the rejoin event
        // precedes same-instant injections in the queue.
        let config = SimConfig::new(4)
            .with_max_time(60_000)
            .with_role(
                0,
                Role::Restart {
                    crash_at: 100,
                    rejoin_at: 500,
                },
            )
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(500, 0, 1, 9));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4, "request survived the rejoin");
        for delivery in &outcome.deliveries {
            assert_eq!(delivery.indication, BrbIndication::Deliver(9));
        }
    }

    #[test]
    fn brb_all_deliver_over_dag() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4);
        for delivery in &outcome.deliveries {
            assert_eq!(delivery.indication, BrbIndication::Deliver(42));
        }
        // One delivery per server.
        let servers: std::collections::BTreeSet<_> =
            outcome.deliveries.iter().map(|d| d.server).collect();
        assert_eq!(servers.len(), 4);
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let config = SimConfig::new(4)
                .with_max_time(3_000)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 2, 9, 7));
            let outcome = sim.run();
            (
                outcome.finished_at,
                outcome.net.messages_sent,
                outcome.net.bytes_sent,
                outcome
                    .deliveries
                    .iter()
                    .map(|d| (d.at, d.server.index()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seed_different_schedule() {
        let run = |seed| {
            let config = SimConfig::new(4)
                .with_seed(seed)
                .with_network(NetworkModel {
                    latency: crate::net::Latency::Uniform { min: 5, max: 200 },
                    ..NetworkModel::default()
                })
                .with_max_time(5_000)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 7));
            let outcome = sim.run();
            (
                outcome.deliveries.iter().map(|d| d.at).collect::<Vec<_>>(),
                outcome.net.messages_sent,
                outcome.net.bytes_sent,
            )
        };
        // Latencies are sampled differently; the trace shifts.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn silent_byzantine_does_not_stop_brb() {
        let config = SimConfig::new(4)
            .with_max_time(10_000)
            .with_role(3, Role::Silent)
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 5));
        let outcome = sim.run();
        // The three correct servers deliver.
        assert_eq!(outcome.deliveries.len(), 3);
        assert!(outcome
            .deliveries
            .iter()
            .all(|d| d.indication == BrbIndication::Deliver(5)));
    }

    #[test]
    fn crash_after_start_retains_other_deliveries() {
        let config = SimConfig::new(4)
            .with_max_time(10_000)
            .with_role(3, Role::Crash { at: 1 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 5));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 3);
        assert!(outcome.dag(3).is_none(), "crashed server view");
    }

    #[test]
    fn lossy_network_still_delivers_via_fwd() {
        let config = SimConfig::new(4)
            .with_max_time(30_000)
            .with_network(NetworkModel::default().with_drop_rate(0.3))
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 11));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4, "FWD recovery failed");
        assert!(outcome.net.messages_dropped > 0, "loss actually happened");
    }

    #[test]
    fn equivocator_cannot_break_brb_consistency() {
        let config = SimConfig::new(4)
            .with_max_time(10_000)
            .with_role(0, Role::Equivocate { at_seq: 0 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        // A correct server broadcasts; the equivocator splits the DAG view.
        sim.inject(broadcast_injection(0, 1, 1, 99));
        let outcome = sim.run();
        let values: std::collections::BTreeSet<u64> = outcome
            .deliveries
            .iter()
            .map(|d| match &d.indication {
                BrbIndication::Deliver(v) => *v,
            })
            .collect();
        assert!(values.len() <= 1, "consistency violated");
        // Correct servers detected the equivocation in their DAGs.
        let correct = outcome.correct_servers();
        let detected = correct.iter().any(|i| {
            !outcome
                .shim(*i)
                .dag()
                .equivocations(ServerId::new(0))
                .is_empty()
        });
        assert!(detected, "equivocation visible in some correct DAG");
    }

    #[test]
    fn injections_recorded_for_latency() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(100, 0, 1, 1));
        let outcome = sim.run();
        let latencies = outcome.latencies_for(Label::new(1));
        assert_eq!(latencies.len(), 4);
        assert!(latencies.iter().all(|l| *l > 0));
    }

    #[test]
    fn interpreter_footprint_aggregates_correct_servers() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_role(3, Role::Crash { at: 1 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        let total = outcome.interpreter_footprint();
        // Only the three correct servers contribute.
        let per_server: usize = outcome
            .correct_servers()
            .iter()
            .map(|i| outcome.shim(*i).footprint().blocks)
            .sum();
        assert_eq!(total.blocks, per_server);
        assert!(total.blocks > 0);
        assert!(total.unique_instances <= total.instances);
    }

    #[test]
    fn admission_modes_agree_and_batch_counters_surface() {
        let run = |mode: AdmissionMode| {
            let config = SimConfig::new(4)
                .with_max_time(5_000)
                .with_admission(mode)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 6));
            sim.run()
        };
        let index = run(AdmissionMode::Index);
        let scan = run(AdmissionMode::Scan);
        let parallel = run(AdmissionMode::Parallel { workers: 2 });
        for outcome in [&scan, &parallel] {
            assert_eq!(index.deliveries.len(), outcome.deliveries.len());
            assert_eq!(index.net.bytes_sent, outcome.net.bytes_sent);
            assert_eq!(index.signatures, outcome.signatures);
            // The verification *total* is mode-independent; only the share
            // that went through batched waves differs.
            assert_eq!(index.verifications, outcome.verifications);
        }
        assert_eq!(scan.verify_batches, 0);
        assert_eq!(scan.batched_verifications, 0);
        for outcome in [&index, &parallel] {
            assert!(outcome.verify_batches > 0);
            assert!(outcome.batched_verifications > 0);
            assert!(outcome.batched_verifications <= outcome.verifications);
        }
    }

    #[test]
    fn burst_ingest_reaches_same_protocol_outcomes() {
        // Burst brackets change how blocks get referenced with the network
        // timing, but not the protocol-level outcome — who delivers what —
        // on clean and lossy networks alike.
        let run = |drop_rate: f64| {
            let config = SimConfig::new(4)
                .with_max_time(30_000)
                .with_network(NetworkModel::default().with_drop_rate(drop_rate))
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 77));
            sim.run()
        };
        let clean = run(0.0);
        let lossy = run(0.3);
        assert!(lossy.net.messages_dropped > 0, "loss actually happened");
        let delivered = |outcome: &SimOutcome<Brb<u64>>| {
            outcome
                .deliveries
                .iter()
                .map(|d| (d.server, d.indication.clone()))
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(delivered(&clean), delivered(&lossy));
        for outcome in [&clean, &lossy] {
            assert_eq!(outcome.deliveries.len(), 4);
            assert!(outcome
                .deliveries
                .iter()
                .all(|d| d.indication == BrbIndication::Deliver(77)));
            for index in outcome.correct_servers() {
                assert!(outcome.shim(index).dag().check_invariants());
            }
            // Deliveries reached the shims through burst brackets, each
            // within the node's cap.
            assert!(outcome.wave_stats.bursts > 0);
            assert!(
                outcome.wave_stats.burst_blocks
                    <= outcome.wave_stats.bursts * INGEST_BURST_CAP as u64
            );
        }
    }

    #[test]
    fn burst_ingest_is_engine_equivalent_and_reproducible() {
        let run = |mode: AdmissionMode| {
            let config = SimConfig::new(4)
                .with_max_time(10_000)
                .with_admission(mode)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 6));
            sim.run()
        };
        let index = run(AdmissionMode::Index);
        let scan = run(AdmissionMode::Scan);
        let parallel = run(AdmissionMode::Parallel { workers: 2 });
        for outcome in [&scan, &parallel] {
            assert_eq!(index.deliveries.len(), outcome.deliveries.len());
            assert_eq!(index.net.bytes_sent, outcome.net.bytes_sent);
            assert_eq!(index.signatures, outcome.signatures);
            assert_eq!(index.verifications, outcome.verifications);
            // Burst brackets are an ingest property: identical counts
            // whichever engine runs inside them.
            assert_eq!(index.wave_stats.bursts, outcome.wave_stats.bursts);
            assert_eq!(
                index.wave_stats.burst_blocks,
                outcome.wave_stats.burst_blocks
            );
        }
        // Wave structure matches between the batching engines; the scan
        // oracle never batches, so the crypto layer saw bursts only from
        // index/parallel servers.
        assert_eq!(index.wave_stats.waves, parallel.wave_stats.waves);
        assert_eq!(scan.wave_stats.waves, 0);
        assert_eq!(scan.verify_bursts, 0);
        for outcome in [&index, &parallel] {
            assert!(outcome.verify_bursts > 0);
            assert!(outcome.burst_verifications <= outcome.verifications);
        }
        // Reproducibility: same seed, same burst trace.
        let again = run(AdmissionMode::Index);
        assert_eq!(index.net.bytes_sent, again.net.bytes_sent);
        assert_eq!(
            index.deliveries.iter().map(|d| d.at).collect::<Vec<_>>(),
            again.deliveries.iter().map(|d| d.at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hostile_burst_scenarios_stay_safe_under_burst_ingest() {
        // Equivocation + loss + a capped pending buffer, delivered in
        // bursts: BRB consistency and DAG invariants must hold.
        let config = SimConfig::new(4)
            .with_max_time(20_000)
            .with_network(NetworkModel::default().with_drop_rate(0.2))
            .with_role(0, Role::Equivocate { at_seq: 0 })
            .with_pending_cap(8)
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 1, 1, 99));
        let outcome = sim.run();
        let values: std::collections::BTreeSet<u64> = outcome
            .deliveries
            .iter()
            .map(|d| match &d.indication {
                BrbIndication::Deliver(v) => *v,
            })
            .collect();
        assert!(values.len() <= 1, "consistency violated");
        for index in outcome.correct_servers() {
            assert!(outcome.shim(index).dag().check_invariants());
            assert!(outcome.shim(index).gossip().pending_len() <= 8);
        }
    }

    #[test]
    fn durable_crash_replays_journal_and_keeps_delivering() {
        let config = SimConfig::new(4).with_max_time(2_000);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config).with_durable_store(
            1,
            Box::new(dagbft_core::MemoryStore::new()),
            250,
        );
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        assert_eq!(outcome.recoveries.len(), 1);
        let (at, server, report) = outcome.recoveries[0];
        assert_eq!(at, 250);
        assert_eq!(server, ServerId::new(1));
        // Genesis replay: no snapshot, the whole journal re-interprets.
        assert_eq!(report.snapshot_covered, 0);
        assert_eq!(report.replayed_blocks, report.journal_blocks);
        assert!(report.journal_blocks > 0, "blocks were journaled pre-crash");
        // All four servers (including the crashed one) deliver exactly once.
        let deliveries: Vec<_> = outcome
            .deliveries
            .iter()
            .filter(|d| d.indication == BrbIndication::Deliver(42))
            .collect();
        assert_eq!(deliveries.len(), 4);
        let servers: std::collections::BTreeSet<_> = deliveries.iter().map(|d| d.server).collect();
        assert_eq!(servers.len(), 4);
        // The store stayed attached through recovery and kept journaling.
        assert!(outcome.shim(1).store_attached());
        assert!(outcome.shim(1).store_error().is_none());
    }

    #[test]
    fn durable_crash_with_snapshots_replays_only_the_suffix() {
        let config = SimConfig::new(4).with_max_time(2_000);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config)
            .with_durable_store(2, Box::new(dagbft_core::MemoryStore::new()), 600)
            .with_durable_snapshots(4);
        sim.inject(broadcast_injection(0, 0, 1, 7));
        let outcome = sim.run();
        assert_eq!(outcome.recoveries.len(), 1);
        let (_, server, report) = outcome.recoveries[0];
        assert_eq!(server, ServerId::new(2));
        // Snapshot catch-up: only the suffix past the snapshot replays.
        assert!(report.snapshot_covered > 0, "snapshot restored");
        assert!(
            report.replayed_blocks < report.journal_blocks,
            "replayed {} of {}",
            report.replayed_blocks,
            report.journal_blocks
        );
        assert_eq!(
            report.snapshot_covered + report.replayed_blocks,
            report.journal_blocks
        );
        assert_eq!(outcome.deliveries.len(), 4);
    }

    #[test]
    fn wire_traffic_is_blocks_and_fwds_only() {
        let config = SimConfig::new(4)
            .with_max_time(2_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        assert_eq!(
            outcome.net.messages_sent,
            outcome.net.blocks_sent + outcome.net.fwd_sent,
            "no protocol messages ever touch the wire"
        );
    }
}
