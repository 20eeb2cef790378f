//! Property tests for the deferred-admission burst engine and the
//! pending-buffer cap:
//!
//! * **burst ≡ per-message** — delivering a hostile schedule (shuffled
//!   honest rounds, an equivocation, a permanently invalid block with
//!   stranded descendants, one tampered signature per burst) through
//!   `on_block_burst` brackets produces the *byte-identical admitted
//!   DAG* and identical rejection set that one-at-a-time `on_block`
//!   produces, under all three admission engines;
//! * **`on_block` is a burst of one** — unbracketed `on_block(b)` and
//!   `on_block_burst(once(b))` agree on every observable (commands per
//!   delivery, DAG order, stats, `WaveStats`, rejections, evictions, and
//!   the next own block's wire bytes) under all three engines, so no
//!   second ingest path can diverge from the bracket;
//! * **burst is engine-equivalent** — under burst ingest, the three
//!   engines agree on every observable: commands per bracket, promotion
//!   order, stats, rejections, evictions, and the next own block's wire
//!   bytes;
//! * **flood stays capped** — a byzantine flood of never-promotable
//!   blocks is held at the configured pending cap by stranded-first
//!   eviction, with no change to the admitted-set bytes and an
//!   accountability event per eviction.

use std::collections::BTreeSet;

use dagbft_core::{
    AdmissionMode, Block, BlockRef, Gossip, GossipConfig, Label, LabeledRequest, SeqNum,
};
use dagbft_crypto::{sha256, Digest, KeyRegistry, ServerId, Signature};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const ALL_MODES: [AdmissionMode; 3] = [
    AdmissionMode::Index,
    AdmissionMode::Scan,
    AdmissionMode::Parallel { workers: 2 },
];

fn receiver(registry: &KeyRegistry, n: usize, mode: AdmissionMode, cap: usize) -> Gossip {
    Gossip::new(
        ServerId::new(0),
        GossipConfig::for_n(n)
            .with_admission(mode)
            .with_pending_cap(cap),
        registry.signer(ServerId::new(0)).unwrap(),
        registry.verifier(),
    )
}

/// A hostile soup: `builders` honest chained rounds, an equivocating
/// `k = 0` pair for the last builder, a permanently invalid two-parent
/// child, and a stranded grandchild.
fn hostile_soup(builders: usize, rounds: u64, registry: &KeyRegistry) -> Vec<Block> {
    let signers: Vec<_> = (1..=builders)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut blocks = Vec::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..rounds {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let block = Block::build(
                signer.id(),
                SeqNum::new(round),
                prev.clone(),
                vec![LabeledRequest::encode(
                    Label::new(index as u64),
                    &(round * 10),
                )],
                signer,
            );
            layer.push(block.block_ref());
            blocks.push(block);
        }
        prev = layer;
    }
    let signer = &signers[builders - 1];
    let equivocation = Block::build(
        signer.id(),
        SeqNum::ZERO,
        vec![],
        vec![LabeledRequest::encode(Label::new(99), &7u8)],
        signer,
    );
    let two_parents = Block::build(
        signer.id(),
        SeqNum::new(1),
        vec![blocks[builders - 1].block_ref(), equivocation.block_ref()],
        vec![],
        signer,
    );
    let grandchild = Block::build(
        signer.id(),
        SeqNum::new(2),
        vec![two_parents.block_ref()],
        vec![],
        signer,
    );
    blocks.push(equivocation);
    blocks.push(two_parents);
    blocks.push(grandchild);
    blocks
}

/// Hash of the admitted DAG as a *set*: sorted refs plus each block's
/// canonical wire bytes — the burst-vs-incremental comparison unit (the
/// promotion fixed point is confluent, so the set must match even where
/// reference order may not).
fn dag_set_digest(gossip: &Gossip) -> Digest {
    let refs: BTreeSet<BlockRef> = gossip.dag().refs().copied().collect();
    let mut transcript = Vec::new();
    for block_ref in refs {
        let block = gossip.dag().get(&block_ref).expect("ref resolves");
        transcript.extend_from_slice(block_ref.as_bytes());
        transcript.extend_from_slice(block.wire_bytes());
    }
    sha256(&transcript)
}

/// Everything observable about a run, for cross-engine byte-identity.
fn full_fingerprint(gossip: &mut Gossip) -> Digest {
    let mut transcript = Vec::new();
    for block in gossip.dag().iter() {
        transcript.extend_from_slice(block.block_ref().as_bytes());
    }
    transcript.extend_from_slice(format!("{:?}", gossip.stats()).as_bytes());
    transcript.extend_from_slice(format!("{:?}", gossip.rejected()).as_bytes());
    transcript.extend_from_slice(format!("{:?}", gossip.evictions()).as_bytes());
    transcript.extend_from_slice(format!("pending:{}", gossip.pending_len()).as_bytes());
    let (own, _) = gossip.disseminate(vec![], 1_000_000);
    transcript.extend_from_slice(own.wire_bytes());
    sha256(&transcript)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: `on_block` one-at-a-time vs `on_block_burst` (shuffled,
    /// hostile, one tampered signature per burst) produce byte-identical
    /// DAGs and identical rejection sets across all three engines — and
    /// all three engines are byte-identical to each other on the burst
    /// path.
    #[test]
    fn burst_and_per_message_admit_identical_dags(
        builders in 2usize..5,
        rounds in 2u64..6,
        // Up to 8 brackets per schedule: small late brackets against the
        // accumulated backlog exercise the incremental burst gear, big
        // ones the whole-buffer analysis gear.
        bursts in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let registry = KeyRegistry::generate(builders + 1, 17);
        let mut blocks = hostile_soup(builders, rounds, &registry);
        blocks.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        // One tampered signature per burst: same shape, forged σ. The
        // twin keeps the ref its dependents committed to, so dependents
        // strand exactly as under per-message ingest.
        let burst_len = blocks.len().div_ceil(bursts);
        let mut schedule = blocks.clone();
        for chunk_start in (0..schedule.len()).step_by(burst_len.max(1)) {
            let victim = &schedule[chunk_start];
            schedule[chunk_start] = Block::build_with_signature(
                victim.builder(),
                victim.seq(),
                victim.preds().to_vec(),
                victim.requests().to_vec(),
                Signature::NULL,
            );
        }

        let mut burst_fingerprints = Vec::new();
        for mode in ALL_MODES {
            let mut one_at_a_time = receiver(&registry, builders + 1, mode, usize::MAX);
            for (t, block) in schedule.iter().enumerate() {
                one_at_a_time.on_block(block.clone(), t as u64);
            }
            let mut bursty = receiver(&registry, builders + 1, mode, usize::MAX);
            for (t, bracket) in schedule.chunks(burst_len.max(1)).enumerate() {
                bursty.on_block_burst(bracket.iter().cloned(), t as u64);
            }
            // Byte-identical admitted DAG, identical rejection set and
            // validation counters.
            prop_assert_eq!(
                dag_set_digest(&one_at_a_time),
                dag_set_digest(&bursty),
                "{:?}: admitted DAG diverged",
                mode
            );
            let rejected = |g: &Gossip| {
                g.rejected()
                    .iter()
                    .map(|(r, e)| (*r, format!("{e:?}")))
                    .collect::<BTreeSet<_>>()
            };
            prop_assert_eq!(rejected(&one_at_a_time), rejected(&bursty), "{:?}", mode);
            prop_assert_eq!(
                one_at_a_time.stats().blocks_validated,
                bursty.stats().blocks_validated,
                "{:?}", mode
            );
            prop_assert_eq!(
                one_at_a_time.stats().invalid_blocks,
                bursty.stats().invalid_blocks,
                "{:?}", mode
            );
            prop_assert_eq!(one_at_a_time.pending_len(), bursty.pending_len(), "{:?}", mode);
            burst_fingerprints.push(full_fingerprint(&mut bursty));
        }
        // Cross-engine byte-identity on the burst path, own block included.
        prop_assert_eq!(burst_fingerprints[0], burst_fingerprints[1]);
        prop_assert_eq!(burst_fingerprints[0], burst_fingerprints[2]);
    }

    /// Unbracketed `on_block` and a one-block `on_block_burst` are the
    /// same ingest path: identical commands per delivery and identical
    /// end state, down to wave statistics and the next own block's bytes
    /// — on a shuffled hostile soup with one tampered signature, under
    /// every engine, with a cap small enough to force evictions.
    #[test]
    fn on_block_is_a_burst_of_one(
        builders in 2usize..5,
        rounds in 2u64..6,
        cap in 2usize..16,
        seed in 0u64..10_000,
    ) {
        let registry = KeyRegistry::generate(builders + 1, 29);
        let mut schedule = hostile_soup(builders, rounds, &registry);
        schedule.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let victim = &schedule[0];
        schedule[0] = Block::build_with_signature(
            victim.builder(),
            victim.seq(),
            victim.preds().to_vec(),
            victim.requests().to_vec(),
            Signature::NULL,
        );
        for mode in ALL_MODES {
            let mut single = receiver(&registry, builders + 1, mode, cap);
            let mut bracketed = receiver(&registry, builders + 1, mode, cap);
            for (t, block) in schedule.iter().enumerate() {
                let commands = single.on_block(block.clone(), t as u64);
                let burst_commands =
                    bracketed.on_block_burst(std::iter::once(block.clone()), t as u64);
                prop_assert_eq!(commands, burst_commands, "{:?}: commands at t={}", mode, t);
            }
            let order = |g: &Gossip| g.dag().iter().map(|b| b.block_ref()).collect::<Vec<_>>();
            prop_assert_eq!(order(&single), order(&bracketed), "{:?}: DAG order", mode);
            prop_assert_eq!(single.stats(), bracketed.stats(), "{:?}", mode);
            prop_assert_eq!(single.wave_stats(), bracketed.wave_stats(), "{:?}", mode);
            prop_assert_eq!(single.rejected(), bracketed.rejected(), "{:?}", mode);
            prop_assert_eq!(single.evictions(), bracketed.evictions(), "{:?}", mode);
            prop_assert_eq!(single.pending_len(), bracketed.pending_len(), "{:?}", mode);
            let (own, _) = single.disseminate(vec![], 1_000_000);
            let (burst_own, _) = bracketed.disseminate(vec![], 1_000_000);
            prop_assert_eq!(own.wire_bytes(), burst_own.wire_bytes(), "{:?}: own block", mode);
        }
    }

    /// Satellite: a byzantine flood of never-promotable blocks stays
    /// within the pending cap — honest admission unchanged byte-for-byte,
    /// one accountability event per eviction, all engines identical.
    /// Honest traffic and the flood arrive in causal order (the cap
    /// bounds *memory*; out-of-order honest gaps are the FWD path's job,
    /// pinned by the gossip unit tests).
    #[test]
    fn byzantine_flood_stays_within_cap(
        cap in 4usize..12,
        flood in 16usize..48,
        chain_flood in any::<bool>(),
        rounds in 2u64..6,
    ) {
        let registry = KeyRegistry::generate(3, 23);
        let honest = hostile_soup(2, rounds, &registry);
        // The flood hangs off the permanently invalid two-parent block
        // (third from the end of the soup): either a deep chain or a wide
        // fan of direct children — both never-promotable.
        let flooder = registry.signer(ServerId::new(2)).unwrap();
        let rejected_root = honest[honest.len() - 2].block_ref();
        let mut flood_blocks = Vec::new();
        let mut parent = rejected_root;
        for k in 0..flood as u64 {
            let block = Block::build(
                ServerId::new(2),
                SeqNum::new(10 + k),
                vec![if chain_flood { parent } else { rejected_root }],
                vec![LabeledRequest::encode(Label::new(777), &k)],
                &flooder,
            );
            parent = block.block_ref();
            flood_blocks.push(block);
        }
        let mut fingerprints = Vec::new();
        for mode in ALL_MODES {
            let mut baseline = receiver(&registry, 3, mode, usize::MAX);
            for (t, block) in honest.iter().enumerate() {
                baseline.on_block(block.clone(), t as u64);
            }
            let baseline_digest = dag_set_digest(&baseline);

            let mut capped = receiver(&registry, 3, mode, cap);
            for (t, block) in honest.iter().enumerate() {
                capped.on_block(block.clone(), t as u64);
                prop_assert!(capped.pending_len() <= cap, "{:?}: honest phase", mode);
            }
            for (t, block) in flood_blocks.iter().enumerate() {
                capped.on_block(block.clone(), 1_000 + t as u64);
                prop_assert!(capped.pending_len() <= cap, "{:?}: flood phase", mode);
            }
            // The flood changed nothing about what was admitted.
            prop_assert_eq!(baseline_digest, dag_set_digest(&capped), "{:?}", mode);
            // Every eviction is logged, and evictions only ever hit the
            // flooder's stranded blocks (the honest soup's own stranded
            // grandchild is older than every flood block, so it may be
            // evicted too — but it belongs to the equivocator, builder 2).
            prop_assert_eq!(
                capped.stats().blocks_evicted as usize,
                capped.evictions().len(),
                "{:?}", mode
            );
            for event in capped.evictions() {
                prop_assert!(
                    event.stranded_on.is_some(),
                    "{:?}: only never-promotable blocks evicted under flood",
                    mode
                );
            }
            fingerprints.push(full_fingerprint(&mut capped));
        }
        prop_assert_eq!(fingerprints[0], fingerprints[1]);
        prop_assert_eq!(fingerprints[0], fingerprints[2]);
    }
}
