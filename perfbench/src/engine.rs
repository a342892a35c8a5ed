//! `engine_contended`: `ShardedDb` driven in process, the way the
//! server's engine thread drives it for 16 interactive clients.

use crate::layers;
use crate::measure::{self, ratio, Hist, Noise, Rng, Spans, Windows};
use crate::served::engine_layers;
use crate::{Args, Phase};
use ccopt_engine::{
    cc_by_name, BatchOp, ConcurrencyControl, ConflictRule, GlobalTxn, GroupReq, Metrics, Op,
    ShardedDb,
};
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use std::time::{Duration, Instant};

const VARS: usize = 256;
const SHARDS: usize = 2;
/// Transactions kept live; one op of each rides every `submit_group`.
const LIVE: usize = 16;
const OPS: usize = 4;
/// Per shard, the first `HOT` of its keys take `HOT_FRAC` of the ops.
const HOT: usize = 16;
const HOT_FRAC: f64 = 0.25;
/// `ccopt-server`'s wait valve: restart after this many consecutive waits.
const VALVE: u32 = 24;
/// After a restart a transaction sits out 0..=MAX_BACKOFF rounds.
const MAX_BACKOFF: u64 = 3;
const MAX_ATTEMPTS: u32 = 64;
/// The determinism check replays this many rounds.
const CHECK_ROUNDS: u64 = 3000;
/// Seconds per measurement window.
const WINDOW_S: u64 = 1;
/// Timed `ShardedDb::new` calls per run; set-up time is their median.
const SETUPS: usize = 201;
/// Untimed calls before them: the first few dozen run slower while the
/// allocator and the thread stacks warm up.
const WARMUP: usize = 50;

struct Slot {
    h: GlobalTxn,
    prog: [BatchOp; OPS],
    affine: u64,
    /// Next op; `OPS` = only the commit is left.
    pc: usize,
    waits: u32,
    backoff: u64,
    began: Instant,
    span: u64,
}

struct Driver<'a> {
    db: ShardedDb<'a>,
    rng: Rng,
    slots: Vec<Slot>,
    committed: u64,
    failed: u64,
    affine_committed: u64,
    valve: u64,
    lat: Windows,
    group: Hist,
}

fn program(rng: &mut Rng, db: &ShardedDb) -> ([BatchOp; OPS], u64) {
    let vars = db.shard_vars(rng.below(SHARDS as u64) as usize);
    let mut affine = 0;
    let prog = std::array::from_fn(|_| {
        let pool = if rng.chance(HOT_FRAC) {
            &vars[..HOT]
        } else {
            vars
        };
        let var: VarId = pool[rng.below(pool.len() as u64) as usize];
        if rng.chance(0.5) {
            BatchOp::Read(var)
        } else {
            affine += 1;
            BatchOp::Affine { var, a: 1, c: 1 }
        }
    });
    (prog, affine)
}

impl<'a> Driver<'a> {
    fn new(mut db: ShardedDb<'a>, seed: u64, spans: &mut Spans) -> Driver<'a> {
        let mut rng = Rng::new(seed, 3);
        let slots = (0..LIVE)
            .map(|_| {
                let (prog, affine) = program(&mut rng, &db);
                Slot {
                    h: db.begin(),
                    prog,
                    affine,
                    pc: 0,
                    waits: 0,
                    backoff: 0,
                    began: Instant::now(),
                    span: spans.id(),
                }
            })
            .collect();
        Driver {
            db,
            rng,
            slots,
            committed: 0,
            failed: 0,
            affine_committed: 0,
            valve: 0,
            lat: Windows::default(),
            group: Hist::default(),
        }
    }

    fn fresh(&mut self, i: usize, spans: &mut Spans) {
        let (prog, affine) = program(&mut self.rng, &self.db);
        self.slots[i] = Slot {
            h: self.db.begin(),
            prog,
            affine,
            pc: 0,
            waits: 0,
            backoff: 0,
            began: Instant::now(),
            span: spans.id(),
        };
    }

    fn restarted(&mut self, i: usize, spans: &mut Spans) -> Result<(), String> {
        let s = &mut self.slots[i];
        s.pc = 0;
        s.waits = 0;
        s.backoff = self.rng.below(MAX_BACKOFF + 1);
        if self
            .db
            .attempts(s.h)
            .map_err(|e| format!("attempts: {e}"))?
            > MAX_ATTEMPTS
        {
            self.db.abort(s.h).map_err(|e| format!("abort: {e}"))?;
            self.failed += 1;
            self.fresh(i, spans);
        }
        Ok(())
    }

    /// One `submit_group` carrying the next op of every transaction not
    /// backing off.
    fn round(&mut self, spans: &mut Spans) -> Result<(), String> {
        let mut who = Vec::with_capacity(LIVE);
        let mut reqs = Vec::with_capacity(LIVE);
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.backoff > 0 {
                s.backoff -= 1;
                continue;
            }
            let ops = if s.pc < OPS {
                vec![s.prog[s.pc]]
            } else {
                Vec::new()
            };
            reqs.push(GroupReq {
                h: s.h,
                ops,
                commit: s.pc + 1 >= OPS,
            });
            who.push(i);
        }
        let t = Instant::now();
        let resps = self.db.submit_group(reqs);
        let end = Instant::now();
        self.group.record(end.duration_since(t).as_nanos() as u64);
        let id = spans.id();
        spans.record(id, 0, "submit_group", t, end);
        self.lat.tick(end);
        for (i, r) in who.into_iter().zip(resps) {
            let results = r.results.map_err(|e| format!("submit_group: {e}"))?;
            let next = match (results.last(), r.commit) {
                (Some(Op::Wait), _) => Next::Wait { ran: false },
                (Some(Op::Restarted), _) => Next::Restart,
                (_, None) => Next::Advance,
                (_, Some(c)) => match c.map_err(|e| format!("commit: {e}"))? {
                    Op::Done(()) => Next::Committed,
                    Op::Wait => Next::Wait { ran: true },
                    Op::Restarted => Next::Restart,
                },
            };
            let s = &mut self.slots[i];
            match next {
                Next::Advance => {
                    s.pc += 1;
                    s.waits = 0;
                }
                Next::Committed => {
                    self.committed += 1;
                    self.affine_committed += s.affine;
                    self.lat.record(end, end.duration_since(s.began));
                    spans.record(s.span, 0, "txn", s.began, end);
                    self.fresh(i, spans);
                }
                Next::Wait { ran } => {
                    if ran {
                        // The op ran; only the commit is left.
                        s.pc = OPS;
                    }
                    s.waits += 1;
                    if s.waits >= VALVE {
                        self.db.restart(s.h).map_err(|e| format!("restart: {e}"))?;
                        self.valve += 1;
                        self.restarted(i, spans)?;
                    }
                }
                Next::Restart => self.restarted(i, spans)?,
            }
        }
        Ok(())
    }
}

/// What a transaction does after its part of a group.
enum Next {
    Advance,
    Committed,
    Wait { ran: bool },
    Restart,
}

fn strict_2pl() -> Box<dyn ConcurrencyControl> {
    cc_by_name("strict-2PL").expect("strict-2PL is a mechanism")
}

fn init() -> GlobalState {
    GlobalState::from_ints(&[0; VARS])
}

/// The counters the determinism check compares: commits, waits, aborts,
/// shard messages and aborts by rule.
type Pinned = (usize, usize, usize, usize, [usize; ConflictRule::COUNT]);

fn pinned(m: &Metrics) -> Pinned {
    (m.commits, m.waits, m.aborts, m.shard_msgs, m.aborts_by_rule)
}

pub fn contended(args: &Args, traced: bool) -> Result<Phase, String> {
    let make: &dyn Fn() -> Box<dyn ConcurrencyControl> = &strict_2pl;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut db = None;
    for i in 0..WARMUP + SETUPS {
        drop(db.take());
        let t = Instant::now();
        db = Some(ShardedDb::new(make, init(), SHARDS));
        if i >= WARMUP {
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let epoch = Instant::now();
    let mut spans = Spans::new(traced, epoch, 1);
    let mut d = Driver::new(db.expect("SETUPS > 0"), args.seed, &mut spans);

    let noise = Noise::start();
    let start = Instant::now();
    d.lat = Windows::new(start, args.seconds, WINDOW_S, std::process::id());
    let deadline = start + Duration::from_secs(args.seconds);
    let mut rounds = 0u64;
    let mut at_check = None;
    while rounds < CHECK_ROUNDS || Instant::now() < deadline {
        d.round(&mut spans)?;
        rounds += 1;
        if rounds == CHECK_ROUNDS {
            at_check = Some(d.db.metrics());
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    d.lat.tick(Instant::now());
    let (steal_frac, gen_cpu_frac) = noise.finish();
    let m = d.db.metrics();

    // Output checks: conservation, then determinism of the counters.
    let total: i64 =
        d.db.committed_globals()
            .0
            .iter()
            .map(|v| v.as_int().unwrap_or(0))
            .sum();
    if total != d.affine_committed as i64 {
        return Err(format!(
            "engine_contended check failed: keys sum to {total}, committed Affine ops {}",
            d.affine_committed
        ));
    }
    let cross = d.db.cross_shard_commits();
    drop(d.db);
    let at_check = at_check.expect("the timed phase runs CHECK_ROUNDS rounds");
    let mut off = Spans::new(false, epoch, 9);
    let mut replay = Driver::new(ShardedDb::new(make, init(), SHARDS), args.seed, &mut off);
    for _ in 0..CHECK_ROUNDS {
        replay.round(&mut off)?;
    }
    let again = replay.db.metrics();
    if pinned(&again) != pinned(&at_check) {
        return Err(format!(
            "engine_contended check failed: counters after {CHECK_ROUNDS} rounds differ on replay of seed {}: \
             {:?} vs {:?}",
            args.seed,
            pinned(&at_check),
            pinned(&again)
        ));
    }
    println!(
        "check ok: keys sum to {total} = committed Affine ops; counters after {CHECK_ROUNDS} rounds \
         (commits, waits, aborts, shard_msgs, aborts_by_rule) = {:?}, identical on replay",
        pinned(&at_check)
    );

    let c = d.committed as f64;
    let mut layers = vec![
        (
            "shard.submit_group_us_p50",
            d.group.quantile_us(0.5).unwrap_or(0.0),
        ),
        ("shard.cross_frac", ratio(cross as f64, c)),
        ("cc.valve_per_commit", ratio(d.valve as f64, c)),
    ];
    engine_layers(&m, m.max_chain_len, &mut layers);
    if traced {
        // Half the ops are `Affine`: the expected write set.
        let writes = OPS / 2;
        let (wal_us, log) =
            layers::wal_strict_commit(&args.work, VARS / SHARDS, writes, &mut spans)?;
        layers.push(("wal.strict_commit_us_p50", wal_us));
        layers.push(("wal.recover_s", layers::recover_s(&[log], &mut spans)?));
        layers.push((
            "mv.gc_scan_us",
            layers::gc_scan_us(VARS / SHARDS, &mut spans),
        ));
    }
    Ok(Phase {
        setups,
        attempted: d.committed + d.failed,
        committed: d.committed,
        failed: d.failed,
        window_s,
        lat: d.lat,
        closed_loop: true,
        rss_mb: measure::peak_rss_mb("self"),
        steal_frac,
        gen_cpu_frac,
        layers,
        spans: spans.spans,
    })
}
