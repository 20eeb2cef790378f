//! The shim — Algorithm 3 of the paper.
//!
//! `shim(P)` choreographs the external user of `P`, the [`crate::gossip`]
//! protocol and the [`crate::interpret`] protocol:
//!
//! * `request(ℓ, r)` buffers the request (lines 6–7); the next
//!   `disseminate()` writes buffered requests into the current block
//!   (Algorithm 1, line 15), and interpretation eventually feeds them to
//!   `P` (Lemma A.17);
//! * indications raised by the interpretation *for this server* are
//!   forwarded to the user (lines 8–9, Lemma A.18);
//! * `disseminate()` is requested repeatedly (lines 10–11) — here by the
//!   caller (simulator or event loop), which controls pacing to meet `P`'s
//!   network assumptions.
//!
//! Theorem 5.1: with these pieces, `shim(P)` implements `P`'s interface and
//! preserves every property of `P` whose proof relies on the reliable
//! point-to-point link abstraction.
//!
//! The paper runs `gossip` and `interpret` as concurrent processes; this
//! implementation steps the interpreter after every DAG change. The two are
//! equivalent: interpretation is a deterministic function of the DAG alone
//! (Lemma 4.2), so scheduling cannot change any outcome — only *when* it
//! becomes observable.

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use dagbft_crypto::{KeyRegistry, ServerId};

use crate::block::{BlockRef, LabeledRequest, SeqNum};
use crate::dag::BlockDag;
use crate::defense::DefenseConfig;
use crate::gossip::{AdmissionMode, Gossip, GossipConfig, NetCommand, NetMessage};
use crate::interpret::{Indication, Interpreter, InterpreterFootprint};
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, ProtocolConfig, SnapshotProtocol};
use crate::store::{BlockStore, RecoverError, RecoveryReport, StoreContents, StoreError};
use crate::TimeMs;

/// Configuration for a [`Shim`] server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShimConfig {
    /// The embedded protocol's configuration (server count, fault bound).
    pub protocol: ProtocolConfig,
    /// `FWD` retransmission pacing (see [`GossipConfig`]).
    pub fwd_retry_ms: TimeMs,
    /// Maximum number of buffered requests injected per block
    /// (`rqsts.get()` returns "a suitable number", Algorithm 3).
    pub max_requests_per_block: usize,
    /// The gossip admission engine (see [`AdmissionMode`]).
    pub admission: AdmissionMode,
    /// Bound on gossip's pending buffer (see
    /// [`GossipConfig::pending_cap`]).
    pub pending_cap: usize,
    /// The adversarial peer-defense engine (see [`crate::defense`];
    /// disabled by default).
    pub defense: DefenseConfig,
}

impl ShimConfig {
    /// Creates a configuration with default pacing parameters.
    pub fn new(protocol: ProtocolConfig) -> Self {
        ShimConfig {
            protocol,
            fwd_retry_ms: 100,
            max_requests_per_block: 1024,
            admission: AdmissionMode::default(),
            pending_cap: crate::gossip::DEFAULT_PENDING_CAP,
            defense: DefenseConfig::default(),
        }
    }

    /// Sets the `FWD` retry interval.
    pub fn with_fwd_retry_ms(mut self, fwd_retry_ms: TimeMs) -> Self {
        self.fwd_retry_ms = fwd_retry_ms;
        self
    }

    /// Sets the per-block request cap.
    pub fn with_max_requests_per_block(mut self, max: usize) -> Self {
        self.max_requests_per_block = max;
        self
    }

    /// Selects the gossip admission engine.
    ///
    /// [`AdmissionMode::Parallel`] gives this server a private
    /// verification worker pool: each admission wave's signature checks
    /// are split across the pool's threads. [`Shim::on_message`] still
    /// waits for the verdicts, so this wins only when waves are wide
    /// enough for multi-core verification to beat the default
    /// single-threaded batch. All engines are byte-equivalent in every
    /// observable.
    pub fn with_admission(mut self, admission: AdmissionMode) -> Self {
        self.admission = admission;
        self
    }

    /// Bounds gossip's pending buffer (deterministic eviction past the
    /// cap; see the gossip module docs).
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Configures the peer-defense engine (scored admission, rate
    /// limits, time-decaying bans; see [`crate::defense`]).
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }

    fn gossip(&self) -> GossipConfig {
        GossipConfig {
            n: self.protocol.n,
            fwd_retry_ms: self.fwd_retry_ms,
            admission: self.admission,
            pending_cap: self.pending_cap,
            defense: self.defense,
        }
    }
}

/// Error constructing a shim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// The server identity has no key in the registry.
    UnknownServer {
        /// The identity without key material.
        server: ServerId,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::UnknownServer { server } => {
                write!(f, "no signing key for server {server}")
            }
        }
    }
}

impl Error for SetupError {}

/// Encodes an interpreter into snapshot bytes — a plain function pointer
/// so [`StoreBinding`] stays protocol-generic without extra bounds.
type SnapshotEncodeFn<P> = fn(&Interpreter<P>) -> Vec<u8>;

/// An attached [`BlockStore`] plus the shim's bookkeeping around it:
/// how much of the DAG's insertion order has been journaled, and the
/// snapshot cadence (installed by [`Shim::enable_snapshots`]).
#[derive(Debug)]
struct StoreBinding<P: DeterministicProtocol> {
    store: Box<dyn BlockStore>,
    /// Prefix of the DAG's insertion order already appended to the store.
    synced_blocks: usize,
    /// Snapshot cadence in blocks; 0 disables snapshots.
    snapshot_every: u64,
    /// Interpreted-block count at the last snapshot.
    last_snapshot_at: u64,
    /// Encodes the interpreter into snapshot bytes; present only when the
    /// protocol supports snapshots and they were enabled.
    encode: Option<SnapshotEncodeFn<P>>,
}

/// A complete block DAG server: `shim(P)` running as one member of `Srvrs`.
///
/// Drive it by delivering network messages ([`Shim::on_message`]), ticking
/// timers ([`Shim::on_tick`]), and requesting dissemination
/// ([`Shim::disseminate`]); it returns [`NetCommand`]s for the transport.
/// See the crate-level docs for a runnable example.
#[derive(Debug)]
pub struct Shim<P: DeterministicProtocol> {
    me: ServerId,
    config: ShimConfig,
    gossip: Gossip,
    interpreter: Interpreter<P>,
    /// The `rqsts` buffer shared between shim and gossip (Algorithm 3,
    /// line 2; ownership replaces sharing in this implementation).
    rqsts: VecDeque<LabeledRequest>,
    /// Indications for `me`, awaiting [`Shim::poll_indications`].
    delivered: VecDeque<(Label, P::Indication)>,
    /// Indications raised for *other* servers' simulations — not forwarded
    /// to the user (Algorithm 3 line 8 requires `s' = s`), but observable
    /// for auditing and tests.
    observed: Vec<Indication<P::Indication>>,
    /// Durable storage, when attached: every admitted block, buffered
    /// request, and periodic snapshot is journaled through it.
    store: Option<StoreBinding<P>>,
    /// A store write failure detaches the store (the server keeps running
    /// non-durably — storage must never panic or wedge consensus) and
    /// stashes the error here for the operator.
    store_error: Option<StoreError>,
}

impl<P: DeterministicProtocol> Shim<P> {
    /// Creates the shim for server `me`.
    ///
    /// # Errors
    ///
    /// [`SetupError::UnknownServer`] if `registry` has no key for `me`.
    pub fn new(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
    ) -> Result<Self, SetupError> {
        let signer = registry
            .signer(me)
            .ok_or(SetupError::UnknownServer { server: me })?;
        Ok(Shim {
            me,
            config,
            gossip: Gossip::new(me, config.gossip(), signer, registry.verifier()),
            interpreter: Interpreter::new(config.protocol),
            rqsts: VecDeque::new(),
            delivered: VecDeque::new(),
            observed: Vec::new(),
            store: None,
            store_error: None,
        })
    }

    /// Reconstructs a server from its persisted DAG after a crash.
    ///
    /// Gossip resumes the own block chain ([`Gossip::resume`]); the
    /// interpreter re-derives every instance's state by re-interpreting
    /// the DAG from scratch — interpretation is a pure function of the DAG
    /// (Lemma 4.2), so the recovered state is identical to the lost one.
    /// The replay benefits from the interpreter's copy-on-write sharing
    /// (see [`crate::interpret`]): re-interpreting a long DAG allocates
    /// per-label instance state only at the blocks that touched the
    /// label, so recovery *memory* is bounded by activity. Wall-clock
    /// still visits every block once (Algorithm 2 interprets each block),
    /// so replay time remains linear in chain length, just with a far
    /// smaller per-block constant on quiescent stretches.
    /// Indications raised during the replay are delivered again; an
    /// application persisting its own progress should deduplicate them
    /// (the paper's "persist enough information … as part of P").
    ///
    /// # Errors
    ///
    /// [`SetupError::UnknownServer`] if `registry` has no key for `me`.
    pub fn recover(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        dag: BlockDag,
    ) -> Result<Self, SetupError> {
        let signer = registry
            .signer(me)
            .ok_or(SetupError::UnknownServer { server: me })?;
        let mut shim = Shim {
            me,
            config,
            gossip: Gossip::resume(me, config.gossip(), signer, registry.verifier(), dag),
            interpreter: Interpreter::new(config.protocol),
            rqsts: VecDeque::new(),
            delivered: VecDeque::new(),
            observed: Vec::new(),
            store: None,
            store_error: None,
        };
        shim.run_interpretation();
        Ok(shim)
    }

    /// The server this shim runs as.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The shim's configuration.
    pub fn config(&self) -> &ShimConfig {
        &self.config
    }

    /// Read access to the local DAG.
    pub fn dag(&self) -> &BlockDag {
        self.gossip.dag()
    }

    /// Read access to the gossip layer (stats, pending buffer).
    pub fn gossip(&self) -> &Gossip {
        &self.gossip
    }

    /// Read access to the interpreter (per-block states, stats).
    pub fn interpreter(&self) -> &Interpreter<P> {
        &self.interpreter
    }

    /// The interpreter's memory footprint — total vs unique instances
    /// (the structural-sharing win) and out-envelopes. See
    /// [`Interpreter::footprint`].
    pub fn footprint(&self) -> InterpreterFootprint {
        self.interpreter.footprint()
    }

    /// `request(ℓ, r)`: buffer a user request for instance `ℓ`
    /// (Algorithm 3, lines 6–7).
    ///
    /// With a store attached, the request is also journaled (write-ahead):
    /// recovery re-buffers every journaled request not yet sealed into an
    /// own block, so accepted-but-unsealed requests survive a crash.
    pub fn request(&mut self, label: Label, request: P::Request) {
        let labeled = LabeledRequest::encode(label, &request);
        if self.store.is_some() {
            let result = self
                .store
                .as_mut()
                .expect("checked above")
                .store
                .append_request(&labeled);
            if let Err(err) = result {
                self.store = None;
                self.store_error = Some(err);
            }
        }
        self.rqsts.push_back(labeled);
    }

    /// Number of buffered requests not yet written into a block.
    pub fn pending_requests(&self) -> usize {
        self.rqsts.len()
    }

    /// Delivers a network message to this server.
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let commands = self.gossip.on_message(from, message, now);
        self.run_interpretation();
        commands
    }

    /// Delivers a whole ingest burst through one deferred-admission
    /// bracket: blocks are indexed first and promoted in one
    /// cross-cascade pass ([`crate::Gossip::on_block_burst`] semantics),
    /// `FWD` requests are answered from the DAG as it stood when the
    /// burst began, and interpretation steps once for the whole burst
    /// instead of once per message. This is the hot ingest path for the
    /// simulator's burst delivery and the transport's channel drain.
    pub fn on_message_burst(
        &mut self,
        messages: impl IntoIterator<Item = (ServerId, NetMessage)>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        self.gossip.begin_burst();
        let mut commands = Vec::new();
        for (from, message) in messages {
            // Bracketed blocks only buffer (no commands); FWD requests
            // are answered, or dropped for banned peers, right away.
            commands.extend(self.gossip.on_message(from, message, now));
        }
        commands.extend(self.gossip.end_burst(now));
        self.run_interpretation();
        commands
    }

    /// Advances timers (`FWD` retries).
    pub fn on_tick(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.gossip.on_tick(now)
    }

    /// Reports `count` malformed frames received from `peer` — the
    /// transport-level offense feed for the peer-defense engine (see
    /// [`crate::defense`]).
    pub fn note_malformed_frames(&mut self, peer: ServerId, count: u64, now: TimeMs) {
        self.gossip.note_malformed_frames(peer, count, now);
    }

    /// Requests `gossip.disseminate()` (Algorithm 3, lines 10–11): seals
    /// the current block with up to
    /// [`ShimConfig::max_requests_per_block`] buffered requests.
    ///
    /// With a store attached, the sealed block is journaled, the journal
    /// synced, and the own-tip marker durably advanced *before* the
    /// broadcast commands are returned — so a crash can never lose an own
    /// block that other servers may already hold (the §7 equivocation
    /// caveat; see [`crate::store::RecoverError::OwnChainTruncated`]).
    pub fn disseminate(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let take = self.rqsts.len().min(self.config.max_requests_per_block);
        let requests: Vec<LabeledRequest> = self.rqsts.drain(..take).collect();
        let (block, commands) = self.gossip.disseminate(requests, now);
        let sealed = block.seq();
        self.run_interpretation();
        if self.store.is_some() {
            if let Err(err) = self.seal_durable(sealed) {
                self.store = None;
                self.store_error = Some(err);
            }
        }
        commands
    }

    /// Journal sync first, then the own-tip marker: the marker must never
    /// get ahead of a durable journal, or recovery would refuse to resume
    /// after a crash that lost nothing observable.
    fn seal_durable(&mut self, seq: SeqNum) -> Result<(), StoreError> {
        let Some(binding) = self.store.as_mut() else {
            return Ok(());
        };
        binding.store.sync()?;
        binding.store.mark_own_tip(seq)?;
        Ok(())
    }

    /// Returns indications raised for this server since the last poll
    /// (Algorithm 3, lines 8–9).
    pub fn poll_indications(&mut self) -> Vec<(Label, P::Indication)> {
        self.delivered.drain(..).collect()
    }

    /// Indications observed for *other* servers' simulations (auditing;
    /// never part of `P`'s interface).
    pub fn drain_observed(&mut self) -> Vec<Indication<P::Indication>> {
        std::mem::take(&mut self.observed)
    }

    fn run_interpretation(&mut self) {
        self.interpreter.step(self.gossip.dag());
        for indication in self.interpreter.drain_indications() {
            if indication.server == self.me {
                self.delivered
                    .push_back((indication.label, indication.indication));
            } else {
                self.observed.push(indication);
            }
        }
        if self.store.is_some() {
            if let Err(err) = self.try_sync_store() {
                self.store = None;
                self.store_error = Some(err);
            }
        }
    }

    /// Appends DAG blocks admitted since the last sync to the store, and
    /// takes a snapshot when the cadence is due. Interpretation runs to a
    /// fixed point before this is called, so a due snapshot always
    /// captures a fully-interpreted DAG.
    fn try_sync_store(&mut self) -> Result<(), StoreError> {
        let Some(binding) = self.store.as_mut() else {
            return Ok(());
        };
        let dag = self.gossip.dag();
        let new: Vec<BlockRef> = dag.refs().skip(binding.synced_blocks).copied().collect();
        for block_ref in new {
            let block = dag.get(&block_ref).expect("ref comes from the dag");
            binding.store.append_block(block)?;
            binding.synced_blocks += 1;
        }
        if let Some(encode) = binding.encode {
            let covered = self.interpreter.interpreted_count() as u64;
            if binding.snapshot_every > 0
                && covered.saturating_sub(binding.last_snapshot_at) >= binding.snapshot_every
            {
                let payload = encode(&self.interpreter);
                binding.store.append_snapshot(covered, &payload)?;
                binding.last_snapshot_at = covered;
            }
        }
        Ok(())
    }

    /// Attaches a durable store. Every block already in the DAG beyond the
    /// store's current content is journaled immediately; from then on the
    /// shim appends admitted blocks, buffered requests, and (if enabled
    /// via [`Shim::enable_snapshots`]) periodic snapshots.
    ///
    /// The store's existing blocks must be a prefix of this shim's DAG
    /// insertion order (trivially true for an empty store, and guaranteed
    /// by [`Shim::recover_from_store`] when re-attaching after recovery).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] reading the store's current content or writing
    /// the backlog; the store is not attached on error.
    pub fn attach_store(&mut self, store: Box<dyn BlockStore>) -> Result<(), StoreError> {
        let already = store.contents()?.blocks.len();
        self.attach_store_synced(store, already);
        if let Err(err) = self.try_sync_store() {
            self.store = None;
            return Err(err);
        }
        Ok(())
    }

    /// Attaches `store` asserting its first `synced_blocks` journal blocks
    /// already mirror the DAG prefix (the recovery re-attach path, which
    /// just rebuilt the DAG *from* that journal).
    fn attach_store_synced(&mut self, store: Box<dyn BlockStore>, synced_blocks: usize) {
        self.store = Some(StoreBinding {
            store,
            synced_blocks,
            snapshot_every: 0,
            last_snapshot_at: 0,
            encode: None,
        });
    }

    /// Detaches and returns the store, if one is attached. The shim keeps
    /// running non-durably.
    pub fn detach_store(&mut self) -> Option<Box<dyn BlockStore>> {
        self.store.take().map(|binding| binding.store)
    }

    /// Whether a store is currently attached.
    pub fn store_attached(&self) -> bool {
        self.store.is_some()
    }

    /// The error that detached the store, if a write ever failed.
    pub fn store_error(&self) -> Option<&StoreError> {
        self.store_error.as_ref()
    }

    /// Recovers a server from its durable store, replaying the whole
    /// journal from genesis (any persisted snapshot is ignored — this is
    /// the oracle path; see
    /// [`Shim::recover_from_store_with_snapshots`] for snapshot catch-up).
    ///
    /// The journal's blocks are re-inserted in admission order (a
    /// topological order by construction), gossip resumes the own chain
    /// ([`Gossip::resume`]), interpretation replays (pure function of the
    /// DAG, Lemma 4.2), journaled-but-unsealed requests are re-buffered,
    /// and the store is re-attached so journaling continues seamlessly.
    ///
    /// Indications raised by the replay are delivered again, exactly like
    /// [`Shim::recover`]; callers that must not re-deliver (the simulator's
    /// crash scenarios) discard the first poll.
    ///
    /// # Errors
    ///
    /// Any [`RecoverError`]; in particular
    /// [`RecoverError::OwnChainTruncated`] if the journal lost own blocks
    /// below the durable own-tip marker — resuming would equivocate (§7).
    pub fn recover_from_store(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let contents = store.contents()?;
        Self::recover_with_interpreter(
            me,
            config,
            registry,
            store,
            contents,
            Interpreter::new(config.protocol),
        )
    }

    /// Shared recovery tail: rebuild the DAG, enforce the own-tip guard,
    /// resume gossip, replay the suffix the interpreter has not covered,
    /// re-buffer unsealed requests, and re-attach the store.
    fn recover_with_interpreter(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
        contents: StoreContents,
        interpreter: Interpreter<P>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let signer = registry
            .signer(me)
            .ok_or(SetupError::UnknownServer { server: me })?;
        let mut dag = BlockDag::new();
        for block in &contents.blocks {
            let block_ref = block.block_ref();
            if dag.insert(block.clone()).is_err() {
                return Err(RecoverError::BrokenTopology { block: block_ref });
            }
        }
        if let Some(marker) = contents.own_tip {
            let journal = dag.height_of(me);
            if journal.is_none_or(|height| height < marker) {
                return Err(RecoverError::OwnChainTruncated { journal, marker });
            }
        }
        let snapshot_covered = interpreter.interpreted_count();
        let consumed: usize = contents
            .blocks
            .iter()
            .filter(|block| block.builder() == me)
            .map(|block| block.requests().len())
            .sum();
        let rqsts: VecDeque<LabeledRequest> = contents
            .requests
            .get(consumed..)
            .unwrap_or_default()
            .iter()
            .cloned()
            .collect();
        let report = RecoveryReport {
            journal_blocks: contents.blocks.len(),
            replayed_blocks: contents.blocks.len() - snapshot_covered,
            snapshot_covered,
            requests_rebuffered: rqsts.len(),
            truncated_records: contents.truncated_records,
        };
        let mut shim = Shim {
            me,
            config,
            gossip: Gossip::resume(me, config.gossip(), signer, registry.verifier(), dag),
            interpreter,
            rqsts,
            delivered: VecDeque::new(),
            observed: Vec::new(),
            store: None,
            store_error: None,
        };
        shim.run_interpretation();
        shim.attach_store_synced(store, contents.blocks.len());
        Ok((shim, report))
    }
}

impl<P: SnapshotProtocol> Shim<P>
where
    P::Message: dagbft_codec::WireEncode + dagbft_codec::WireDecode,
{
    /// Enables periodic interpreter snapshots through the attached store:
    /// one snapshot every `every` interpreted blocks, so recovery via
    /// [`Shim::recover_from_store_with_snapshots`] replays only the suffix
    /// past the last snapshot. No-op without an attached store.
    pub fn enable_snapshots(&mut self, every: u64) {
        let covered = self.interpreter.interpreted_count() as u64;
        if let Some(binding) = self.store.as_mut() {
            binding.snapshot_every = every.max(1);
            binding.last_snapshot_at = covered;
            binding.encode = Some(|interpreter| interpreter.encode_snapshot());
        }
    }

    /// Recovers a server from its durable store, restoring interpreter
    /// state from the latest persisted snapshot (if any) and replaying
    /// only the journal suffix past it — the snapshot catch-up path.
    ///
    /// The snapshot is validated before use: its version, `(n, f)`
    /// configuration, and covered block set must match the journal prefix
    /// exactly, otherwise a typed error is returned (never a divergent
    /// state). All other semantics match [`Shim::recover_from_store`].
    ///
    /// # Errors
    ///
    /// Any [`RecoverError`].
    pub fn recover_from_store_with_snapshots(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let contents = store.contents()?;
        let interpreter = match &contents.snapshot {
            Some((covered, payload)) => {
                let covered = *covered as usize;
                if covered > contents.blocks.len() {
                    return Err(RecoverError::SnapshotDiverged {
                        covered: covered as u64,
                    });
                }
                let interpreter = Interpreter::decode_snapshot(config.protocol, payload)?;
                let prefix: HashSet<BlockRef> = contents.blocks[..covered]
                    .iter()
                    .map(|block| block.block_ref())
                    .collect();
                let matches = interpreter.interpreted_count() == covered
                    && prefix.len() == covered
                    && interpreter
                        .interpreted_order()
                        .iter()
                        .all(|block_ref| prefix.contains(block_ref));
                if !matches {
                    return Err(RecoverError::SnapshotDiverged {
                        covered: covered as u64,
                    });
                }
                interpreter
            }
            None => Interpreter::new(config.protocol),
        };
        Self::recover_with_interpreter(me, config, registry, store, contents, interpreter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Outbox;
    use std::collections::BTreeSet;

    /// Minimal deterministic broadcast: on request, send the value to all;
    /// indicate each distinct value once on receipt.
    #[derive(Debug, Clone)]
    struct Flood {
        config: ProtocolConfig,
        seen: BTreeSet<u64>,
        pending: Vec<u64>,
    }

    impl DeterministicProtocol for Flood {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Flood {
                config: *config,
                seen: BTreeSet::new(),
                pending: Vec::new(),
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
            outbox.broadcast(&self.config, request);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, _outbox: &mut Outbox<u64>) {
            if self.seen.insert(message) {
                self.pending.push(message);
            }
        }

        fn drain_indications(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.pending)
        }
    }

    fn network(n: usize) -> Vec<Shim<Flood>> {
        let registry = KeyRegistry::generate(n, 77);
        let config = ShimConfig::new(ProtocolConfig::for_n(n));
        (0..n)
            .map(|i| Shim::new(ServerId::new(i as u32), config, &registry).unwrap())
            .collect()
    }

    /// Executes commands from `origin` against all shims, synchronously, to
    /// quiescence.
    fn run_commands(
        shims: &mut [Shim<Flood>],
        origin: usize,
        commands: Vec<NetCommand>,
        now: TimeMs,
    ) {
        let mut queue: Vec<(usize, NetCommand)> =
            commands.into_iter().map(|c| (origin, c)).collect();
        while let Some((from, command)) = queue.pop() {
            match command {
                NetCommand::Broadcast { message } => {
                    for (target, shim) in shims.iter_mut().enumerate() {
                        if target != from {
                            let follow =
                                shim.on_message(ServerId::new(from as u32), message.clone(), now);
                            queue.extend(follow.into_iter().map(|c| (target, c)));
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    let follow =
                        shims[to.index()].on_message(ServerId::new(from as u32), message, now);
                    queue.extend(follow.into_iter().map(|c| (to.index(), c)));
                }
            }
        }
    }

    #[test]
    fn request_travels_through_block_to_all_servers() {
        let mut shims = network(2);
        let label = Label::new(1);
        shims[0].request(label, 42);
        assert_eq!(shims[0].pending_requests(), 1);

        // s0 disseminates its genesis block with the request.
        let commands = shims[0].disseminate(0);
        assert_eq!(shims[0].pending_requests(), 0);
        run_commands(&mut shims, 0, commands, 0);

        // s1 must reference s0's block, then both deliver their own PING.
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);
        let commands = shims[0].disseminate(2);
        run_commands(&mut shims, 0, commands, 2);

        assert_eq!(shims[1].poll_indications(), vec![(label, 42)]);
        assert_eq!(shims[0].poll_indications(), vec![(label, 42)]);
    }

    #[test]
    fn indications_only_for_own_simulation() {
        let mut shims = network(2);
        shims[0].request(Label::new(1), 5);
        let commands = shims[0].disseminate(0);
        run_commands(&mut shims, 0, commands, 0);
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);

        // s0 observes the indication of s1's simulation but does not
        // deliver it to its own user.
        let observed = shims[0].drain_observed();
        assert!(observed.iter().all(|i| i.server != shims[0].me()));
        // s1 delivered for itself.
        assert_eq!(shims[1].poll_indications(), vec![(Label::new(1), 5)]);
    }

    #[test]
    fn request_cap_per_block() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1)).with_max_requests_per_block(2);
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        for value in 0..5 {
            shim.request(Label::new(value), value);
        }
        shim.disseminate(0);
        assert_eq!(shim.pending_requests(), 3);
        shim.disseminate(1);
        assert_eq!(shim.pending_requests(), 1);
        let dag = shim.dag();
        let mut per_block: Vec<usize> = dag.iter().map(|b| b.requests().len()).collect();
        per_block.sort();
        assert_eq!(per_block, vec![2, 2]);
    }

    #[test]
    fn unknown_server_setup_error() {
        let registry = KeyRegistry::generate(2, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(2));
        let result: Result<Shim<Flood>, _> = Shim::new(ServerId::new(9), config, &registry);
        assert_eq!(
            result.err(),
            Some(SetupError::UnknownServer {
                server: ServerId::new(9)
            })
        );
    }

    #[test]
    fn recover_resumes_chain_without_equivocation() {
        let registry = KeyRegistry::generate(2, 77);
        let config = ShimConfig::new(ProtocolConfig::for_n(2));
        let mut shims = network(2);
        shims[0].request(Label::new(1), 42);
        let commands = shims[0].disseminate(0);
        run_commands(&mut shims, 0, commands, 0);
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);
        let commands = shims[0].disseminate(2);
        run_commands(&mut shims, 0, commands, 2);
        // s0 delivered before the crash.
        assert_eq!(shims[0].poll_indications(), vec![(Label::new(1), 42)]);

        // "Crash" s0, persist its DAG, recover a fresh shim from it.
        let image = crate::recovery::persist_dag(shims[0].dag());
        let dag = crate::recovery::restore_dag(&image).unwrap();
        let expected_seq = dag.height_of(ServerId::new(0)).unwrap().next();
        let mut recovered: Shim<Flood> =
            Shim::recover(ServerId::new(0), config, &registry, dag).unwrap();

        // The replay re-derives the indication (application dedups).
        assert_eq!(recovered.poll_indications(), vec![(Label::new(1), 42)]);

        // The next disseminated block continues the chain: correct seq, no
        // second block at an already-used sequence number.
        recovered.disseminate(2);
        let own = recovered.me();
        let dag = recovered.dag();
        assert_eq!(dag.height_of(own), Some(expected_seq));
        for k in 0..=expected_seq.value() {
            assert_eq!(
                dag.blocks_at(own, crate::SeqNum::new(k)).len(),
                1,
                "no equivocation at k{k}"
            );
        }
        assert!(dag.check_invariants());
    }

    #[test]
    fn recover_references_unreferenced_blocks() {
        // s0 crashes having received a block from s1 it never referenced;
        // the recovery block must reference it, so its messages deliver.
        let registry = KeyRegistry::generate(2, 77);
        let config = ShimConfig::new(ProtocolConfig::for_n(2));
        let mut shims = network(2);
        // s1 disseminates; s0 receives but crashes before disseminating.
        let commands = shims[1].disseminate(0);
        run_commands(&mut shims, 1, commands, 0);
        let image = crate::recovery::persist_dag(shims[0].dag());
        let dag = crate::recovery::restore_dag(&image).unwrap();
        let s1_tip = dag.blocks_at(ServerId::new(1), crate::SeqNum::ZERO)[0];

        let mut recovered: Shim<Flood> =
            Shim::recover(ServerId::new(0), config, &registry, dag).unwrap();
        recovered.disseminate(1);
        let own_genesis = recovered
            .dag()
            .blocks_at(recovered.me(), crate::SeqNum::ZERO)[0];
        let block = recovered.dag().get(&own_genesis).unwrap();
        assert!(
            block.preds().contains(&s1_tip),
            "recovered block must reference the pre-crash backlog"
        );
    }

    #[test]
    fn footprint_surfaces_sharing() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        shim.request(Label::new(1), 7);
        // One request, then a long quiescent chain: activity dies out, so
        // instance state is shared across the tail blocks.
        for now in 0..12 {
            shim.disseminate(now);
        }
        let footprint = shim.footprint();
        assert_eq!(footprint.blocks, 12);
        assert!(
            footprint.unique_instances < footprint.instances,
            "structural sharing must be visible: {} unique of {}",
            footprint.unique_instances,
            footprint.instances
        );
        // Interpretation keeps extending the shared state.
        shim.disseminate(12);
        assert_eq!(shim.footprint().blocks, 13);
    }

    #[test]
    fn single_server_roundtrip() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        shim.request(Label::new(1), 7);
        shim.disseminate(0); // request written into the genesis block
        shim.disseminate(1); // parent edge delivers the self-message
        assert_eq!(shim.poll_indications(), vec![(Label::new(1), 7)]);
    }
}
