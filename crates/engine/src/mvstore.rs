//! Multi-version value store: per-variable version chains with
//! watermark-driven garbage collection.
//!
//! Where [`crate::storage::Storage`] holds one value per variable and
//! repairs aborts with undo logs, `MvStore` keeps a *chain* of committed
//! versions per variable, each stamped with the timestamp its writer
//! installed it at. Readers address a snapshot: `read_at(v, ts)` returns
//! the newest version of `v` whose stamp is `<= ts`, so a transaction
//! reading at a fixed snapshot never observes — and never blocks on —
//! concurrent writers. Writers buffer privately (the engine's deferred
//! write path) and install whole version sets atomically at commit, so the
//! chains only ever contain committed data and installs per chain are
//! append-only in timestamp order.
//!
//! Garbage collection is driven by a *watermark*: the oldest snapshot any
//! live transaction may still read (supplied by the concurrency control
//! via [`gc_watermark`](crate::cc::ConcurrencyControl::gc_watermark)).
//! For each chain, every version older than the newest one visible at the
//! watermark is unreachable by any current or future snapshot and is
//! reclaimed. Chains are dense-indexed by [`VarId`] like the rest of the
//! engine's tables ([`crate::dense`]): a chain is a flat `Vec` slot per
//! variable, and the hot read path scans from the tail, where the
//! newest — and overwhelmingly most-read — versions live.
//!
//! A sweep costs O(garbage), not O(variables). Only a chain holding more
//! than one version can have anything to reclaim, so the store keeps an
//! index of exactly those variables — `multi` holds `{v : chain_len(v) > 1}`
//! with no duplicates. [`MvStore::install`] enters a variable when its
//! chain grows from one version to two, and [`MvStore::gc`] walks only the
//! index, dropping each chain it drains back to a single version. A large
//! keyspace with a few hot writers therefore sweeps a few dozen chains per
//! commit instead of all of them. The live-version total is kept as a
//! running count for the same reason.

use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::value::Value;

/// One committed version of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Version {
    /// Timestamp the writing transaction installed the version at (its
    /// begin timestamp under MVTO, its commit sequence number under SI).
    pub wts: u64,
    /// The committed value.
    pub value: Value,
}

/// The multi-version store: a version chain per variable. Install and
/// reclaim accounting lives with the caller ([`crate::metrics::Metrics`]);
/// the store itself only holds the chains.
#[derive(Clone, Debug)]
pub struct MvStore {
    /// Per-variable chains, sorted by ascending `wts`; slot 0 of each chain
    /// starts as the initial state at timestamp 0 until GC supersedes it.
    chains: Vec<Vec<Version>>,
    /// The variables whose chain holds more than one version, each once
    /// (in no particular order): the only chains a sweep can shorten.
    multi: Vec<VarId>,
    /// Total versions across all chains.
    live: usize,
}

impl MvStore {
    /// Initialize from a global state: one timestamp-0 version per variable.
    pub fn new(init: GlobalState) -> Self {
        let chains: Vec<Vec<Version>> = init
            .0
            .into_iter()
            .map(|value| vec![Version { wts: 0, value }])
            .collect();
        MvStore {
            live: chains.len(),
            chains,
            multi: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.chains.len()
    }

    /// Rebuild a store from a durable image: per-variable `(wts, value)`
    /// chains in ascending order (crash recovery's replay output).
    ///
    /// # Panics
    /// Panics when a chain is empty or out of order — a recovered image
    /// is validated record by record, so this indicates a caller bug.
    pub fn from_image(chains: Vec<Vec<(u64, Value)>>) -> Self {
        let chains: Vec<Vec<Version>> = chains
            .into_iter()
            .map(|chain| {
                assert!(!chain.is_empty(), "image chains must be non-empty");
                assert!(
                    chain.windows(2).all(|w| w[0].0 < w[1].0),
                    "image chains must ascend strictly by wts"
                );
                chain
                    .into_iter()
                    .map(|(wts, value)| Version { wts, value })
                    .collect()
            })
            .collect();
        let multi = (0..chains.len())
            .filter(|&i| chains[i].len() > 1)
            .map(|i| VarId(i as u32))
            .collect();
        MvStore {
            live: chains.iter().map(Vec::len).sum(),
            chains,
            multi,
        }
    }

    /// Export the chains as a durable image (the checkpoint payload):
    /// per-variable `(wts, value)` lists, ascending.
    pub fn image(&self) -> Vec<Vec<(u64, Value)>> {
        self.chains
            .iter()
            .map(|chain| chain.iter().map(|v| (v.wts, v.value)).collect())
            .collect()
    }

    /// Read variable `v` at snapshot `ts`: the newest version with
    /// `wts <= ts`. The scan runs from the chain tail because snapshots
    /// overwhelmingly address the newest few versions.
    ///
    /// # Panics
    /// Panics when `v` is out of range (syntax validation prevents this).
    pub fn read_at(&self, v: VarId, ts: u64) -> Value {
        let chain = &self.chains[v.index()];
        debug_assert!(
            chain.first().is_some_and(|f| f.wts <= ts),
            "snapshot {ts} predates the GC watermark for {v}"
        );
        chain
            .iter()
            .rev()
            .find(|ver| ver.wts <= ts)
            .unwrap_or(&chain[0])
            .value
    }

    /// Timestamp of the newest committed version of `v`.
    pub fn latest_wts(&self, v: VarId) -> u64 {
        self.chains[v.index()].last().expect("chains non-empty").wts
    }

    /// Install a committed version of `v` at `wts`. Chains are append-only:
    /// the concurrency control must have validated that no newer version
    /// exists (late writers abort instead of inserting mid-chain).
    pub fn install(&mut self, v: VarId, wts: u64, value: Value) {
        let chain = &mut self.chains[v.index()];
        debug_assert!(
            chain.last().is_none_or(|last| last.wts < wts),
            "install at {wts} behind the chain head of {v}"
        );
        chain.push(Version { wts, value });
        if chain.len() == 2 {
            self.multi.push(v);
        }
        self.live += 1;
    }

    /// Reclaim versions unreachable from any snapshot `>= watermark`: per
    /// chain, everything older than the newest version with
    /// `wts <= watermark`. Returns the number reclaimed by this call.
    ///
    /// Visits only the chains holding more than one version (single-version
    /// chains have nothing to reclaim), so the cost tracks the history
    /// kept, not the keyspace.
    pub fn gc(&mut self, watermark: u64) -> usize {
        let chains = &mut self.chains;
        let mut reclaimed = 0;
        self.multi.retain(|v| {
            let chain = &mut chains[v.index()];
            let keep_from = chain
                .iter()
                .rposition(|ver| ver.wts <= watermark)
                .unwrap_or(0);
            if keep_from > 0 {
                chain.drain(..keep_from);
                reclaimed += keep_from;
            }
            chain.len() > 1
        });
        self.live -= reclaimed;
        reclaimed
    }

    /// Total live versions across all chains (a running count, O(1)).
    pub fn live_versions(&self) -> usize {
        self.live
    }

    /// Length of the longest chain.
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Current chain length of one variable.
    pub fn chain_len(&self, v: VarId) -> usize {
        self.chains[v.index()].len()
    }

    /// The newest committed value of every variable (the state a snapshot
    /// taken "now" would observe).
    pub fn snapshot_latest(&self) -> GlobalState {
        GlobalState(
            self.chains
                .iter()
                .map(|chain| chain.last().expect("chains non-empty").value)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn store() -> MvStore {
        MvStore::new(GlobalState::from_ints(&[10, 20]))
    }

    #[test]
    fn reads_address_snapshots() {
        let mut s = store();
        s.install(v(0), 3, Value::Int(11));
        s.install(v(0), 7, Value::Int(12));
        assert_eq!(s.read_at(v(0), 0), Value::Int(10));
        assert_eq!(s.read_at(v(0), 3), Value::Int(11));
        assert_eq!(s.read_at(v(0), 6), Value::Int(11));
        assert_eq!(s.read_at(v(0), 100), Value::Int(12));
        // The untouched variable answers its initial value at any snapshot.
        assert_eq!(s.read_at(v(1), 5), Value::Int(20));
        assert_eq!(s.latest_wts(v(0)), 7);
        assert_eq!(s.latest_wts(v(1)), 0);
        assert_eq!(s.chain_len(v(0)), 3);
    }

    #[test]
    fn snapshot_latest_tracks_chain_heads() {
        let mut s = store();
        s.install(v(1), 2, Value::Int(21));
        assert_eq!(s.snapshot_latest(), GlobalState::from_ints(&[10, 21]));
    }

    #[test]
    fn gc_keeps_the_watermark_visible_version() {
        let mut s = store();
        s.install(v(0), 3, Value::Int(11));
        s.install(v(0), 7, Value::Int(12));
        // A live snapshot at 5 still needs the wts=3 version, not wts=0.
        assert_eq!(s.gc(5), 1);
        assert_eq!(s.read_at(v(0), 5), Value::Int(11));
        assert_eq!(s.read_at(v(0), 9), Value::Int(12));
        // Watermark past everything: chains collapse to one version each.
        s.gc(u64::MAX);
        assert_eq!(s.live_versions(), 2);
        assert_eq!(s.snapshot_latest(), GlobalState::from_ints(&[12, 20]));
    }

    #[test]
    fn sustained_load_stays_bounded_under_gc() {
        // The watermark chases the installer: the chain never grows past
        // two versions no matter how many are installed.
        let mut s = MvStore::new(GlobalState::from_ints(&[0]));
        let mut reclaimed = 0;
        for i in 1..=10_000u64 {
            s.install(v(0), i, Value::Int(i as i64));
            reclaimed += s.gc(i);
            assert!(
                s.max_chain_len() <= 2,
                "chain grew to {} at step {i}",
                s.max_chain_len()
            );
        }
        assert_eq!(reclaimed, 10_000); // history plus the initial version
        assert_eq!(s.read_at(v(0), 10_000), Value::Int(10_000));
    }

    #[test]
    fn lagging_watermark_retains_history_until_released() {
        // A long-lived snapshot pins its version; once the watermark
        // advances past it, the history is reclaimed in one sweep.
        let mut s = MvStore::new(GlobalState::from_ints(&[0]));
        for i in 1..=100u64 {
            s.install(v(0), i, Value::Int(i as i64));
            s.gc(1); // reader pinned at snapshot 1
        }
        assert_eq!(s.max_chain_len(), 100); // wts=1 plus 2..=100
        assert_eq!(s.read_at(v(0), 1), Value::Int(1));
        let reclaimed = s.gc(200);
        assert_eq!(reclaimed, 99);
        assert_eq!(s.live_versions(), 1);
    }

    /// The full-scan sweep the indexed [`MvStore::gc`] replaced, kept as the
    /// reference model: plain `(wts, value)` chains, every chain visited on
    /// every sweep, the live count summed on demand.
    struct FullScan(Vec<Vec<(u64, Value)>>);

    impl FullScan {
        fn install(&mut self, v: VarId, wts: u64, value: Value) {
            self.0[v.index()].push((wts, value));
        }

        fn gc(&mut self, watermark: u64) -> usize {
            let mut reclaimed = 0;
            for chain in &mut self.0 {
                let keep_from = chain
                    .iter()
                    .rposition(|&(wts, _)| wts <= watermark)
                    .unwrap_or(0);
                if keep_from > 0 {
                    chain.drain(..keep_from);
                    reclaimed += keep_from;
                }
            }
            reclaimed
        }

        fn live_versions(&self) -> usize {
            self.0.iter().map(Vec::len).sum()
        }
    }

    /// `multi` holds exactly `{v : chain_len(v) > 1}`, each once, and the
    /// running live count equals the sum of the chain lengths.
    fn assert_index_invariant(s: &MvStore) {
        let mut indexed: Vec<u32> = s.multi.iter().map(|v| v.0).collect();
        indexed.sort_unstable();
        let expected: Vec<u32> = (0..s.num_vars() as u32)
            .filter(|&i| s.chain_len(v(i)) > 1)
            .collect();
        assert_eq!(indexed, expected, "index != multi-version chains");
        assert_eq!(s.live, s.chains.iter().map(Vec::len).sum::<usize>());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drive `s` and the reference through the same seeded sequence of
    /// installs and sweeps, comparing them after every step. Installs
    /// favour a hot set of eight variables so chains grow long; sweeps mix
    /// a pinned (lagging) watermark, one trailing the clock, `u64::MAX`,
    /// and an arbitrary one.
    fn differential(mut s: MvStore, mut reference: FullScan, seed: u64, steps: usize) {
        let n = s.num_vars() as u64;
        let mut rng = seed;
        let mut clock = reference
            .0
            .iter()
            .flatten()
            .map(|&(wts, _)| wts)
            .max()
            .unwrap_or(0);
        let mut pinned = clock;
        for step in 0..steps {
            let r = splitmix(&mut rng);
            let (reclaimed, expected) = match r % 10 {
                0..=5 => {
                    let var = if (r >> 8).is_multiple_of(4) {
                        (r >> 16) % 8
                    } else {
                        (r >> 16) % n
                    };
                    clock += 1;
                    let value = Value::Int((r >> 32) as i64);
                    s.install(v(var as u32), clock, value);
                    reference.install(v(var as u32), clock, value);
                    (0, 0)
                }
                6 => {
                    if (r >> 8).is_multiple_of(8) {
                        pinned = clock;
                    }
                    (s.gc(pinned), reference.gc(pinned))
                }
                7 => {
                    let lagging = clock.saturating_sub((r >> 8) % 5);
                    (s.gc(lagging), reference.gc(lagging))
                }
                8 => (s.gc(u64::MAX), reference.gc(u64::MAX)),
                _ => {
                    let any = (r >> 8) % (clock + 1);
                    (s.gc(any), reference.gc(any))
                }
            };
            assert_eq!(reclaimed, expected, "seed {seed} step {step}");
            assert_eq!(s.image(), reference.0, "seed {seed} step {step}");
            assert_eq!(
                s.live_versions(),
                reference.live_versions(),
                "seed {seed} step {step}"
            );
            assert_index_invariant(&s);
        }
    }

    #[test]
    fn indexed_gc_matches_the_full_scan() {
        for seed in 0..8u64 {
            let init: Vec<i64> = (0..300).collect();
            let s = MvStore::new(GlobalState::from_ints(&init));
            let reference = FullScan(s.image());
            differential(s, reference, seed, 2_000);
        }
    }

    #[test]
    fn indexed_gc_matches_the_full_scan_after_recovery() {
        for seed in 100..104u64 {
            // A recovered image with replayed history on a third of the
            // chains, ragged stamps, and single-version chains between.
            let mut rng = seed;
            let image: Vec<Vec<(u64, Value)>> = (0..200)
                .map(|i| {
                    let len = if i % 3 == 0 {
                        2 + splitmix(&mut rng) % 4
                    } else {
                        1
                    };
                    let mut wts = splitmix(&mut rng) % 4;
                    (0..len)
                        .map(|k| {
                            wts += 1 + splitmix(&mut rng) % 7;
                            (wts, Value::Int(k as i64))
                        })
                        .collect()
                })
                .collect();
            let s = MvStore::from_image(image.clone());
            assert_index_invariant(&s);
            differential(s, FullScan(image), seed, 1_000);
        }
    }

    #[test]
    fn first_gc_after_recovery_reclaims_replayed_history() {
        let image = vec![
            vec![(0, Value::Int(1))],
            vec![(0, Value::Int(2)), (4, Value::Int(3)), (9, Value::Int(4))],
            vec![(2, Value::Int(5))],
            vec![(1, Value::Int(6)), (3, Value::Int(7))],
        ];
        let mut s = MvStore::from_image(image.clone());
        assert_index_invariant(&s);
        assert_eq!(s.live_versions(), 7);
        assert_eq!(s.image(), image);
        // A snapshot at 5 still needs wts=4 on v1; v3's history is garbage.
        assert_eq!(s.gc(5), 2);
        assert_index_invariant(&s);
        assert_eq!(s.read_at(v(1), 5), Value::Int(3));
        assert_eq!(s.gc(u64::MAX), 1);
        assert_index_invariant(&s);
        assert!(s.multi.is_empty());
        assert_eq!(s.live_versions(), 4);
        assert_eq!(s.snapshot_latest(), GlobalState::from_ints(&[1, 4, 5, 7]));
    }
}
