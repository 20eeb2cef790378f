//! A server as the driving loops see it: the production `Shim`, or — in
//! the traced run — [`Composed`], which calls the layers the `Shim` calls,
//! in the same order, each call inside a span. Both must produce
//! byte-identical indications and DAGs; the workloads check that.

use std::collections::VecDeque;

use dagbft_bench::workload::{initial_balances, WorkloadConfig};
use dagbft_core::{
    BlockDag, BlockRef, BlockStore, Gossip, GossipConfig, Interpreter, InterpreterFootprint, Label,
    LabeledRequest, NetCommand, NetMessage, Shim, ShimConfig, TimeMs,
};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_protocols::{Brb, BrbIndication, BrbRequest, Ledger, Transfer};
use dagbft_store::FileStore;

use crate::common::Tracer;

/// The embedded protocol: one BRB instance per payment order.
pub type Payments = Brb<Transfer>;

/// The calls a workload makes on one server.
pub trait Server {
    fn request(&mut self, transfer: &Transfer, tr: &mut Tracer);
    fn disseminate(&mut self, now: TimeMs, tr: &mut Tracer) -> Vec<NetCommand>;
    fn burst(
        &mut self,
        messages: Vec<(ServerId, NetMessage)>,
        now: TimeMs,
        tr: &mut Tracer,
    ) -> Vec<NetCommand>;
    fn poll(&mut self) -> Vec<(Label, BrbIndication<Transfer>)>;
    fn dag(&self) -> &BlockDag;
    fn gossip(&self) -> &Gossip;
    fn footprint(&self) -> InterpreterFootprint;
}

impl Server for Shim<Payments> {
    fn request(&mut self, transfer: &Transfer, _tr: &mut Tracer) {
        Shim::request(
            self,
            transfer.label(),
            BrbRequest::Broadcast(transfer.clone()),
        );
    }
    fn disseminate(&mut self, now: TimeMs, _tr: &mut Tracer) -> Vec<NetCommand> {
        Shim::disseminate(self, now)
    }
    fn burst(
        &mut self,
        messages: Vec<(ServerId, NetMessage)>,
        now: TimeMs,
        _tr: &mut Tracer,
    ) -> Vec<NetCommand> {
        self.on_message_burst(messages, now)
    }
    fn poll(&mut self) -> Vec<(Label, BrbIndication<Transfer>)> {
        self.poll_indications()
    }
    fn dag(&self) -> &BlockDag {
        Shim::dag(self)
    }
    fn gossip(&self) -> &Gossip {
        Shim::gossip(self)
    }
    fn footprint(&self) -> InterpreterFootprint {
        Shim::footprint(self)
    }
}

/// `Shim::request`, `disseminate` and `on_message_burst`, with the
/// interpretation and journal step they share, rebuilt from the public
/// layer functions so each call can sit in its own span.
pub struct Composed {
    me: ServerId,
    gossip: Gossip,
    interpreter: Interpreter<Payments>,
    rqsts: VecDeque<LabeledRequest>,
    delivered: Vec<(Label, BrbIndication<Transfer>)>,
    store: Option<FileStore>,
    synced_blocks: usize,
    max_requests: usize,
}

impl Composed {
    /// The server `me`, journaling to `store` when one is given — the state
    /// `Shim::recover_from_store` (with a store) or `Shim::new` (without)
    /// starts from.
    pub fn new(
        me: ServerId,
        config: ShimConfig,
        keys: &KeyRegistry,
        store: Option<FileStore>,
    ) -> Self {
        let signer = keys.signer(me).expect("registry covers every server");
        let gossip = GossipConfig {
            n: config.protocol.n,
            fwd_retry_ms: config.fwd_retry_ms,
            admission: config.admission,
            pending_cap: config.pending_cap,
            defense: config.defense,
        };
        let gossip = if store.is_some() {
            Gossip::resume(me, gossip, signer, keys.verifier(), BlockDag::new())
        } else {
            Gossip::new(me, gossip, signer, keys.verifier())
        };
        Composed {
            me,
            gossip,
            interpreter: Interpreter::new(config.protocol),
            rqsts: VecDeque::new(),
            delivered: Vec::new(),
            store,
            synced_blocks: 0,
            max_requests: config.max_requests_per_block,
        }
    }

    fn run_interpretation(&mut self, tr: &mut Tracer) {
        let id = tr.enter("interpret.step");
        let stepped = self.interpreter.step(self.gossip.dag());
        tr.exit_with(id, stepped as u64);
        let indications = tr.leaf("interpret.drain", || self.interpreter.drain_indications());
        let me = self.me;
        self.delivered.extend(
            indications
                .into_iter()
                .filter(|ind| ind.server == me)
                .map(|ind| (ind.label, ind.indication)),
        );
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let dag = self.gossip.dag();
        let new: Vec<BlockRef> = dag.refs().skip(self.synced_blocks).copied().collect();
        for block_ref in new {
            let block = dag.get(&block_ref).expect("ref comes from the dag");
            tr.leaf("store.append", || store.append_block(block))
                .expect("journal append");
            self.synced_blocks += 1;
        }
    }
}

impl Server for Composed {
    fn request(&mut self, transfer: &Transfer, tr: &mut Tracer) {
        let labeled = tr.leaf("codec.encode", || {
            LabeledRequest::encode(transfer.label(), &BrbRequest::Broadcast(transfer.clone()))
        });
        if let Some(store) = self.store.as_mut() {
            tr.leaf("store.append", || store.append_request(&labeled))
                .expect("journal append");
        }
        self.rqsts.push_back(labeled);
    }

    fn disseminate(&mut self, now: TimeMs, tr: &mut Tracer) -> Vec<NetCommand> {
        let take = self.rqsts.len().min(self.max_requests);
        let requests: Vec<LabeledRequest> = self.rqsts.drain(..take).collect();
        let (block, commands) = tr.leaf("gossip.seal", || self.gossip.disseminate(requests, now));
        self.run_interpretation(tr);
        if let Some(store) = self.store.as_mut() {
            // Journal sync first, then the own-tip marker, as the shim does.
            tr.leaf("store.sync", || {
                store.sync()?;
                store.mark_own_tip(block.seq())
            })
            .expect("journal sync");
        }
        commands
    }

    fn burst(
        &mut self,
        messages: Vec<(ServerId, NetMessage)>,
        now: TimeMs,
        tr: &mut Tracer,
    ) -> Vec<NetCommand> {
        let id = tr.enter("gossip.admit");
        self.gossip.begin_burst();
        let mut commands = Vec::new();
        for (from, message) in messages {
            match message {
                NetMessage::Block(block) => {
                    let deferred = self.gossip.on_block_from(from, block, now);
                    debug_assert!(deferred.is_empty(), "bracketed on_block defers commands");
                }
                NetMessage::FwdRequest(block_ref) => {
                    if !self.gossip.defense().is_banned(from, now) {
                        commands.extend(self.gossip.on_fwd_request(from, block_ref));
                    }
                }
            }
        }
        commands.extend(self.gossip.end_burst(now));
        tr.exit(id);
        self.run_interpretation(tr);
        commands
    }

    fn poll(&mut self) -> Vec<(Label, BrbIndication<Transfer>)> {
        std::mem::take(&mut self.delivered)
    }
    fn dag(&self) -> &BlockDag {
        self.gossip.dag()
    }
    fn gossip(&self) -> &Gossip {
        &self.gossip
    }
    fn footprint(&self) -> InterpreterFootprint {
        self.interpreter.footprint()
    }
}

/// Applies `delivered` to a fresh ledger in `(from, seq)` order; returns
/// how many transfers applied, or 0 if supply was not conserved.
pub fn settle(config: &WorkloadConfig, mut delivered: Vec<Transfer>) -> usize {
    delivered.sort_by_key(|t| (t.from, t.seq));
    let mut ledger = Ledger::new(initial_balances(config));
    let supply = ledger.total_supply();
    let applied = delivered.iter().filter(|t| ledger.apply(t).is_ok()).count();
    if ledger.total_supply() == supply {
        applied
    } else {
        0
    }
}
