//! The served workloads: `ccopt-server` runs as a child process, so its
//! CPU, memory and threads are measured apart from the generator's.

use crate::layers::{self, Recorded};
use crate::measure::{self, median, ratio, Noise, Rng, Spans, ThreadUse, Windows};
use crate::{Args, Phase};
use ccopt_client::{Client, TxnHandle};
use ccopt_engine::{BatchOp, ConflictRule, Metrics, Op, Partition, ShardedDb};
use ccopt_model::ids::VarId;
use ccopt_model::value::Value;
use ccopt_net::frame::{
    decode_response, encode_request, encode_response, read_frame, write_frame, BatchCommit,
    BatchOutcome, Request, Response, MAX_BATCH_OPS,
};
use ccopt_net::ServerStats;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Timed server starts per run, after one untimed start that brings the
/// binary into the page cache; set-up time is their median.
const SETUPS: usize = 25;
/// Pause between server starts, so the starts span about a second and a
/// short burst of host steal delays only a few of them.
const SETUP_GAP: Duration = Duration::from_millis(40);
/// A transaction still uncommitted after this many attempts is abandoned.
const MAX_ATTEMPTS: u32 = 64;
/// Bound on any single wait for the server.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `ccopt-server` child.
struct ServerProc {
    child: Child,
    /// Kept open: the server prints to it and must never see a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Spawn the server and wait until it prints its address; returns
    /// the seconds that took.
    fn spawn(bin: &Path, args: &[String]) -> Result<(ServerProc, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut ready = 0.0;
        let mut line = String::new();
        // The start-up banner ends with the `cc=` line.
        loop {
            line.clear();
            if out
                .read_line(&mut line)
                .map_err(|e| format!("server stdout: {e}"))?
                == 0
            {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before it was ready".into());
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                ready = t.elapsed().as_secs_f64();
                addr = Some(a.to_string());
            }
            if line.starts_with("cc=") {
                break;
            }
        }
        let addr = addr.ok_or("server printed no address")?;
        Ok((
            ServerProc {
                child,
                _stdout: out,
                addr,
            },
            ready,
        ))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Dropping the handle SIGKILLs the server and reaps it.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start the server `SETUPS + 1` times with `args` (start 0 is untimed),
/// keep the last one running and return it with the times of starts 1
/// to `SETUPS`.
fn start_servers(bin: &Path, args: &[String]) -> Result<(ServerProc, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..=SETUPS {
        let (s, t) = ServerProc::spawn(bin, args)?;
        if i > 0 {
            setups.push(t);
        }
        if i == SETUPS {
            return Ok((s, setups));
        }
        drop(s);
        std::thread::sleep(SETUP_GAP);
    }
    unreachable!("the loop returns at i == SETUPS")
}

fn client(addr: &str) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(c)
}

fn stats(c: &mut Client, spans: &mut Spans) -> Result<ServerStats, String> {
    spans
        .time("stats_poll", || c.stats())
        .map_err(|e| format!("Stats: {e}"))
}

/// Read every variable in read-only batches of at most `MAX_BATCH_OPS`
/// operations, each committed.
fn read_all(c: &mut Client, num_vars: u32) -> Result<Vec<i64>, String> {
    let mut out = Vec::with_capacity(num_vars as usize);
    let vars: Vec<u32> = (0..num_vars).collect();
    for chunk in vars.chunks(MAX_BATCH_OPS) {
        let h = c.begin().map_err(|e| format!("check begin: {e}"))?;
        let ops: Vec<BatchOp> = chunk.iter().map(|&v| BatchOp::Read(VarId(v))).collect();
        let (results, commit) = c
            .batch(h, &ops, true)
            .map_err(|e| format!("check batch: {e}"))?;
        if results.len() != ops.len() || commit != Some(Op::Done(())) {
            return Err(format!("check read did not complete: {commit:?}"));
        }
        for r in results {
            match r {
                Op::Done(Value::Int(v)) => out.push(v),
                other => return Err(format!("check read answered {other:?}")),
            }
        }
    }
    Ok(out)
}

/// Server-side layer metrics from two `Stats` snapshots and two
/// `/proc` thread snapshots taken around the timed phase.
fn server_layers(
    s0: &ServerStats,
    s1: &ServerStats,
    t0: &HashMap<u32, ThreadUse>,
    t1: &HashMap<u32, ThreadUse>,
    committed: u64,
    attempted: u64,
    layers: &mut Vec<(&'static str, f64)>,
) {
    let c = committed as f64;
    let mut cpu = [0.0f64; 3];
    let mut ctx = 0.0;
    for t in measure::thread_delta(t0, t1) {
        ctx += t.ctx;
        // Shard workers are unnamed and inherit the engine thread's name.
        let slot = if t.name.starts_with("ccopt-net-r") {
            0
        } else if t.name.starts_with("ccopt-net-w") {
            1
        } else if t.name.starts_with("ccopt-net-engin") {
            2
        } else {
            continue;
        };
        cpu[slot] += t.cpu_ns / 1e3;
    }
    let a = attempted as f64;
    layers.extend([
        ("server.reader_cpu_us_per_commit", cpu[0] / c),
        ("server.writer_cpu_us_per_commit", cpu[1] / c),
        ("server.engine_cpu_us_per_commit", cpu[2] / c),
        ("server.ctx_switches_per_commit", ctx / c),
        (
            "server.shed_pipeline_frac",
            ratio((s1.sheds_pipeline - s0.sheds_pipeline) as f64, a),
        ),
        (
            "server.shed_queue_frac",
            ratio((s1.sheds_queue - s0.sheds_queue) as f64, a),
        ),
        (
            "server.shed_txns_frac",
            ratio((s1.sheds_txns - s0.sheds_txns) as f64, a),
        ),
    ]);
    engine_layers(
        &s1.metrics.diff(&s0.metrics),
        s1.metrics.max_chain_len,
        layers,
    );
}

/// Engine-side layer metrics from a `Metrics` delta (shared with the
/// in-process workload).
pub fn engine_layers(m: &Metrics, max_chain: usize, layers: &mut Vec<(&'static str, f64)>) {
    let c = m.commits as f64;
    layers.extend([
        ("shard.msgs_per_commit", ratio(m.shard_msgs as f64, c)),
        (
            "shard.ops_per_msg",
            ratio(m.batched_ops as f64, m.shard_msgs as f64),
        ),
        ("cc.waits_per_commit", ratio(m.waits as f64, c)),
        ("cc.restarts_per_commit", ratio(m.aborts as f64, c)),
        ("cc.commit_frac", ratio(c, (m.commits + m.aborts) as f64)),
        (
            "cc.deadlock_per_commit",
            ratio(m.aborts_for(ConflictRule::Deadlock) as f64, c),
        ),
        (
            "mv.installed_per_commit",
            ratio(m.versions_installed as f64, c),
        ),
        (
            "mv.reclaimed_per_commit",
            ratio(m.versions_reclaimed as f64, c),
        ),
        ("mv.max_chain_len", max_chain as f64),
        ("wal.syncs_per_commit", ratio(m.wal_syncs as f64, c)),
        ("wal.records_per_commit", ratio(m.wal_records as f64, c)),
        ("wal.bytes_per_commit", ratio(m.wal_bytes as f64, c)),
    ]);
}

// ------------------------------------------------------ served_readmostly

/// Offered rate, fixed once at about a third of the closed-loop capacity
/// of a 2-core host, so the open loop never builds a backlog there.
const RM_RATE: f64 = 400.0;
const RM_VARS: u32 = 65_536;
const RM_UPDATE_FRAC: f64 = 0.25;
const RM_CROSS_FRAC: f64 = 0.10;
const RM_KEYS: usize = 4;
/// A 3 s window holds 1,200 commits.
const RM_WINDOW_S: u64 = 3;

struct RmTxn {
    due: Duration,
    update: bool,
    cross: bool,
    ops: Vec<BatchOp>,
}

/// Arrivals: `rate × seconds` of them at uniform random offsets, i.e. a
/// Poisson process conditioned on its count, so every seed offers the
/// same load.
fn readmostly_inputs(seed: u64, seconds: u64, part: &Partition) -> Vec<RmTxn> {
    let mut rng = Rng::new(seed, 1);
    let n = (RM_RATE * seconds as f64) as usize;
    let span_ns = seconds * 1_000_000_000;
    let mut dues: Vec<u64> = (0..n).map(|_| rng.below(span_ns)).collect();
    dues.sort_unstable();
    dues.into_iter()
        .map(|due| {
            let update = rng.chance(RM_UPDATE_FRAC);
            let cross = rng.chance(RM_CROSS_FRAC);
            let mut keys: Vec<u32> = Vec::with_capacity(RM_KEYS);
            let home = rng.below(2) as usize;
            while keys.len() < RM_KEYS {
                let s = if cross { keys.len() % 2 } else { home };
                let vars = part.shard_vars(s);
                let v = vars[rng.below(vars.len() as u64) as usize].0;
                if !keys.contains(&v) {
                    keys.push(v);
                }
            }
            let ops = keys
                .iter()
                .map(|&v| {
                    if update {
                        BatchOp::Affine {
                            var: VarId(v),
                            a: 1,
                            c: 1,
                        }
                    } else {
                        BatchOp::Read(VarId(v))
                    }
                })
                .collect();
            RmTxn {
                due: Duration::from_nanos(due),
                update,
                cross,
                ops,
            }
        })
        .collect()
}

/// Request-id layout on the pipelined connection: transaction index and
/// request kind.
const K_BEGIN: u64 = 0;
const K_BATCH: u64 = 1;
const K_ABORT: u64 = 2;

fn req_id(i: usize, kind: u64) -> u64 {
    (i as u64) << 2 | kind
}

struct Sender<'a> {
    stream: &'a Mutex<TcpStream>,
    bytes: &'a AtomicU64,
}

impl Sender<'_> {
    fn send(&self, id: u64, req: &Request) -> Result<(), String> {
        let payload = encode_request(id, req);
        self.bytes
            .fetch_add(8 + payload.len() as u64, Ordering::Relaxed);
        let mut s = self
            .stream
            .lock()
            .expect("no sender panicked holding the stream");
        write_frame(&mut *s, &payload).map_err(|e| format!("send: {e}"))
    }
}

/// What the receiver thread saw.
#[derive(Default)]
struct RmOut {
    committed: u64,
    failed: u64,
    updates_committed: u64,
    cross_committed: u64,
    lat: Windows,
    begin_rtt_us: Vec<f64>,
    batch_rtt_us: Vec<f64>,
    bytes_in: u64,
    last_done: Option<Instant>,
    rec: Recorded,
    spans: Vec<measure::Span>,
}

#[derive(Clone, Copy)]
struct RmState {
    token: u64,
    span: u64,
    batch_sent: Option<Instant>,
    batch_span: u64,
    attempts: u32,
    /// Operations already done (a trailing `Wait` resumes after them).
    done_ops: usize,
}

/// The receiver: reads every response, sends each transaction's batch
/// as soon as its `Begin` is answered, and replays on `Wait`/`Restarted`.
#[allow(clippy::too_many_arguments)]
fn rm_receive(
    mut reader: BufReader<TcpStream>,
    tx: Sender<'_>,
    txns: &[RmTxn],
    begin_sent_ns: &[AtomicU64],
    epoch: Instant,
    mut spans: Spans,
    traced: bool,
    seconds: u64,
    pid: u32,
) -> Result<RmOut, String> {
    let mut out = RmOut {
        lat: Windows::new(epoch, seconds, RM_WINDOW_S, pid),
        ..RmOut::default()
    };
    let mut st: Vec<RmState> = vec![
        RmState {
            token: 0,
            span: 0,
            batch_sent: None,
            batch_span: 0,
            attempts: 0,
            done_ops: 0,
        };
        txns.len()
    ];
    let mut resolved = 0usize;
    let send_batch =
        |i: usize, s: &mut RmState, spans: &mut Spans, rec: &mut Recorded| -> Result<(), String> {
            s.attempts += 1;
            let req = Request::Batch {
                txn: s.token,
                ops: txns[i].ops[s.done_ops..].to_vec(),
                commit: true,
            };
            if traced {
                rec.req(&req);
            }
            s.batch_span = spans.id();
            s.batch_sent = Some(Instant::now());
            tx.send(req_id(i, K_BATCH), &req)
        };
    while resolved < txns.len() {
        let payload = read_frame(&mut reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        let now = Instant::now();
        out.bytes_in += 8 + payload.len() as u64;
        let (id, resp) = decode_response(&payload).map_err(|e| format!("decode: {e}"))?;
        if traced {
            out.rec.resp(&resp);
        }
        let i = (id >> 2) as usize;
        let kind = id & 3;
        let s = st.get_mut(i).ok_or("response for an unknown transaction")?;
        let due = epoch + txns[i].due;
        match (kind, resp) {
            (K_BEGIN, Response::Began { txn }) => {
                let sent = epoch + Duration::from_nanos(begin_sent_ns[i].load(Ordering::SeqCst));
                out.begin_rtt_us
                    .push(now.duration_since(sent).as_nanos() as f64 / 1e3);
                s.token = txn;
                s.span = spans.id();
                let rid = spans.id();
                spans.record(rid, s.span, "req.begin", sent, now);
                send_batch(i, s, &mut spans, &mut out.rec)?;
            }
            (K_BEGIN, _) => {
                // Shed or draining: the arrival is lost.
                out.failed += 1;
                resolved += 1;
            }
            (K_BATCH, Response::Batch { results, commit }) => {
                let sent = s.batch_sent.expect("a batch was sent");
                out.batch_rtt_us
                    .push(now.duration_since(sent).as_nanos() as f64 / 1e3);
                spans.record(s.batch_span, s.span, "req.batch", sent, now);
                match commit {
                    Some(BatchCommit::Committed) => {
                        out.committed += 1;
                        out.updates_committed += txns[i].update as u64;
                        out.cross_committed += txns[i].cross as u64;
                        out.lat.record(now, now.duration_since(due));
                        out.last_done = Some(now);
                        spans.record(s.span, 0, "txn", due, now);
                        resolved += 1;
                        continue;
                    }
                    Some(BatchCommit::Wait) => s.done_ops = txns[i].ops.len(),
                    Some(BatchCommit::Restarted) => s.done_ops = 0,
                    None => match results.last() {
                        Some(BatchOutcome::Wait) => s.done_ops += results.len() - 1,
                        _ => s.done_ops = 0,
                    },
                }
                if s.attempts >= MAX_ATTEMPTS {
                    tx.send(req_id(i, K_ABORT), &Request::Abort { txn: s.token })?;
                    out.failed += 1;
                    resolved += 1;
                } else {
                    send_batch(i, s, &mut spans, &mut out.rec)?;
                }
            }
            (K_BATCH, other) => {
                // Shed or refused: give the transaction up.
                if !matches!(other, Response::Err { .. }) {
                    tx.send(req_id(i, K_ABORT), &Request::Abort { txn: s.token })?;
                }
                out.failed += 1;
                resolved += 1;
            }
            (K_ABORT, _) => {}
            (k, r) => return Err(format!("unexpected response kind {k}: {r:?}")),
        }
    }
    out.spans = spans.spans;
    Ok(out)
}

pub fn readmostly(args: &Args, traced: bool) -> Result<Phase, String> {
    let part = Partition::new(RM_VARS as usize, 2);
    let txns = readmostly_inputs(args.seed, args.seconds, &part);
    let flags: Vec<String> = [
        "--cc",
        "SI",
        "--shards",
        "2",
        "--vars",
        &RM_VARS.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (server, setups) = start_servers(&args.server, &flags)?;
    let mut phase = readmostly_on(args, traced, &server, &txns)?;
    phase.setups = setups;
    Ok(phase)
}

fn readmostly_on(
    args: &Args,
    traced: bool,
    server: &ServerProc,
    txns: &[RmTxn],
) -> Result<Phase, String> {
    let epoch0 = Instant::now();
    let mut main_spans = Spans::new(traced, epoch0, 1);
    let mut ctl = client(&server.addr)?;
    let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader =
        BufReader::with_capacity(64 * 1024, stream.try_clone().map_err(|e| e.to_string())?);
    let writer = Mutex::new(stream);
    let bytes_out = AtomicU64::new(0);
    let begin_sent_ns: Vec<AtomicU64> = (0..txns.len()).map(|_| AtomicU64::new(0)).collect();

    let s0 = stats(&mut ctl, &mut main_spans)?;
    let th0 = measure::threads(server.pid());
    let noise = Noise::start();
    // Start the schedule a little ahead, so the receiver is running.
    let epoch = Instant::now() + Duration::from_millis(20);
    // The sender samples host steal; it wakes for every arrival.
    let pid = server.pid();
    let mut clock = Windows::new(epoch, args.seconds, RM_WINDOW_S, pid);
    let mut sender_rec = Recorded::default();
    let recv = std::thread::scope(|sc| -> Result<RmOut, String> {
        let rx_spans = Spans::new(traced, epoch0, 2);
        let tx = Sender {
            stream: &writer,
            bytes: &bytes_out,
        };
        let begin_sent = &begin_sent_ns;
        let h = sc.spawn(move || {
            rm_receive(
                reader,
                tx,
                txns,
                begin_sent,
                epoch,
                rx_spans,
                traced,
                args.seconds,
                pid,
            )
        });
        let tx = Sender {
            stream: &writer,
            bytes: &bytes_out,
        };
        let mut send_err = None;
        for (i, t) in txns.iter().enumerate() {
            let due = epoch + t.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            clock.tick(sent);
            clock.record_late(sent, sent.saturating_duration_since(due));
            begin_sent_ns[i].store(
                sent.duration_since(epoch).as_nanos() as u64,
                Ordering::SeqCst,
            );
            if traced {
                sender_rec.req(&Request::Begin);
            }
            if let Err(e) = tx.send(req_id(i, K_BEGIN), &Request::Begin) {
                send_err = Some(e);
                break;
            }
        }
        let end = epoch + Duration::from_secs(args.seconds);
        let now = Instant::now();
        if send_err.is_none() && end > now {
            std::thread::sleep(end - now);
        }
        clock.tick(Instant::now());
        let got = h.join().expect("receiver thread does not panic");
        match send_err {
            Some(e) => Err(e),
            None => got,
        }
    })?;
    // From the schedule's start to the last commit: a backlog stretches it.
    let end = recv.last_done.unwrap_or_else(Instant::now);
    let window_s = end.duration_since(epoch).as_secs_f64();
    let th1 = measure::threads(server.pid());
    let (steal_frac, gen_cpu_frac) = noise.finish();
    let s1 = stats(&mut ctl, &mut main_spans)?;
    let rss_mb = measure::peak_rss_mb(&pid.to_string());

    // Output check: every committed update added exactly RM_KEYS.
    let total: i64 = read_all(&mut ctl, RM_VARS)?.iter().sum();
    let want = RM_KEYS as i64 * recv.updates_committed as i64;
    if total != want {
        return Err(format!(
            "served_readmostly check failed: sum of all keys {total}, expected {want} ({} committed updates)",
            recv.updates_committed
        ));
    }
    println!(
        "check ok: sum of {RM_VARS} keys = {total} = {RM_KEYS} x {} committed updates",
        recv.updates_committed
    );

    let c = recv.committed as f64;
    let attempted = txns.len() as u64;
    let mut layers = vec![
        ("client.begin_rtt_p50_us", median(&recv.begin_rtt_us)),
        ("client.batch_rtt_p50_us", median(&recv.batch_rtt_us)),
        (
            "client.bytes_per_commit",
            ratio(
                (bytes_out.load(Ordering::Relaxed) + recv.bytes_in) as f64,
                c,
            ),
        ),
        ("shard.cross_frac", ratio(recv.cross_committed as f64, c)),
    ];
    server_layers(&s0, &s1, &th0, &th1, recv.committed, attempted, &mut layers);
    let mut spans = main_spans;
    if traced {
        let mut rec = sender_rec;
        rec.merge(recv.rec);
        layers.extend(layers::frame_codec(&rec, &mut spans));
        let (wal_us, log) =
            layers::wal_strict_commit(&args.work, RM_VARS as usize / 2, RM_KEYS, &mut spans)?;
        layers.push(("wal.strict_commit_us_p50", wal_us));
        layers.push(("wal.recover_s", layers::recover_s(&[log], &mut spans)?));
        layers.push((
            "mv.gc_scan_us",
            layers::gc_scan_us(RM_VARS as usize / 2, &mut spans),
        ));
    }
    let mut all_spans = spans.spans;
    all_spans.extend(recv.spans);
    Ok(Phase {
        attempted,
        committed: recv.committed,
        failed: recv.failed,
        window_s,
        rss_mb,
        lat: {
            clock.merge(&recv.lat);
            clock
        },
        steal_frac,
        gen_cpu_frac,
        layers,
        spans: all_spans,
        ..Phase::default()
    })
}

// ------------------------------------------------ served_transfer_durable

const TD_ACCOUNTS: u32 = 4096;
/// Accounts plus one ledger key per connection.
const TD_VARS: u32 = TD_ACCOUNTS + 2;
/// A 2 s window holds about 3,000 commits on a quiet 2-core host.
const TD_WINDOW_S: u64 = 2;
/// The server keeps each two-phase commit's decision until a checkpoint,
/// so its memory grows with commits, and a faster host would read a
/// higher peak. Peak RSS is therefore read when this many commits have
/// been acknowledged: about 9 s at the slowest commit rate seen on a
/// 2-core host under 25% CPU steal.
const TD_RSS_COMMITS: u64 = 10_000;

/// Reads the server's peak RSS once, at the `TD_RSS_COMMITS`-th commit
/// acknowledged on either connection.
struct RssProbe {
    pid: u32,
    commits: AtomicU64,
    mb: OnceLock<f64>,
}

impl RssProbe {
    fn committed(&self) {
        if self.commits.fetch_add(1, Ordering::SeqCst) + 1 == TD_RSS_COMMITS {
            let _ = self.mb.set(measure::peak_rss_mb(&self.pid.to_string()));
        }
    }
}

/// What one closed-loop connection did.
#[derive(Default)]
struct ConnOut {
    committed: u64,
    failed: u64,
    cross: u64,
    lat: Windows,
    begin_rtt_us: Vec<f64>,
    update_rtt_us: Vec<f64>,
    commit_rtt_us: Vec<f64>,
    bytes: u64,
    end: Option<Instant>,
    rec: Recorded,
    spans: Vec<measure::Span>,
}

/// Wire bytes of one request and its response (frame header included).
fn wire_bytes(req: &Request, resp: &Response) -> u64 {
    16 + (encode_request(0, req).len() + encode_response(0, resp).len()) as u64
}

fn op_response(op: &Op<Value>) -> Response {
    match op {
        Op::Done(value) => Response::Done { value: *value },
        Op::Wait => Response::Wait,
        Op::Restarted => Response::Restarted,
    }
}

/// One connection's closed loop: interactive transfers, one request per
/// operation, until `deadline`; the transaction in flight then finishes.
#[allow(clippy::too_many_arguments)]
fn transfer_loop(
    c: &mut Client,
    conn: usize,
    seed: u64,
    start: Instant,
    seconds: u64,
    pid: u32,
    part: &Partition,
    rss: &RssProbe,
    mut spans: Spans,
    traced: bool,
) -> Result<ConnOut, String> {
    let mut rng = Rng::new(seed, 100 + conn as u64);
    let mut out = ConnOut {
        lat: Windows::new(start, seconds, TD_WINDOW_S, pid),
        ..ConnOut::default()
    };
    let ledger = TD_ACCOUNTS + conn as u32;
    let deadline = start + Duration::from_secs(seconds);
    while Instant::now() < deadline {
        let src = rng.below(TD_ACCOUNTS as u64) as u32;
        let mut dst = rng.below(TD_ACCOUNTS as u64 - 1) as u32;
        if dst >= src {
            dst += 1;
        }
        let prog = [(src, -1i64), (dst, 1), (ledger, 1)];
        let t0 = Instant::now();
        let txn_span = spans.id();
        let h: TxnHandle = loop {
            let t = Instant::now();
            let r = c.begin();
            let now = Instant::now();
            out.begin_rtt_us
                .push(now.duration_since(t).as_nanos() as f64 / 1e3);
            let id = spans.id();
            spans.record(id, txn_span, "req.begin", t, now);
            match r {
                Ok(h) => {
                    out.bytes += wire_bytes(&Request::Begin, &Response::Began { txn: h.token() });
                    break h;
                }
                Err(ccopt_client::ClientError::Shed) => {
                    out.bytes += wire_bytes(&Request::Begin, &Response::Shed);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("begin: {e}")),
            }
        };
        let mut attempts = 1;
        let committed = 'attempt: loop {
            if attempts > MAX_ATTEMPTS {
                c.abort(h).map_err(|e| format!("abort: {e}"))?;
                break false;
            }
            let mut pc = 0;
            while pc < prog.len() {
                let (var, delta) = prog[pc];
                let req = Request::Update {
                    txn: h.token(),
                    var,
                    a: 1,
                    c: delta,
                };
                if traced {
                    out.rec.req(&req);
                }
                let t = Instant::now();
                let r = c
                    .update(h, var, 1, delta)
                    .map_err(|e| format!("update: {e}"))?;
                let now = Instant::now();
                out.update_rtt_us
                    .push(now.duration_since(t).as_nanos() as f64 / 1e3);
                let id = spans.id();
                spans.record(id, txn_span, "req.update", t, now);
                let resp = op_response(&r);
                out.bytes += wire_bytes(&req, &resp);
                if traced {
                    out.rec.resp(&resp);
                }
                match r {
                    Op::Done(_) => pc += 1,
                    Op::Wait => {}
                    Op::Restarted => {
                        attempts += 1;
                        continue 'attempt;
                    }
                }
            }
            loop {
                let req = Request::Commit { txn: h.token() };
                let t = Instant::now();
                let r = c.commit(h).map_err(|e| format!("commit: {e}"))?;
                let now = Instant::now();
                out.commit_rtt_us
                    .push(now.duration_since(t).as_nanos() as f64 / 1e3);
                let id = spans.id();
                spans.record(id, txn_span, "req.commit", t, now);
                let resp = match r {
                    Op::Done(()) => Response::Committed,
                    Op::Wait => Response::Wait,
                    Op::Restarted => Response::Restarted,
                };
                out.bytes += wire_bytes(&req, &resp);
                if traced {
                    out.rec.req(&req);
                    out.rec.resp(&resp);
                }
                match r {
                    Op::Done(()) => break 'attempt true,
                    Op::Wait => {}
                    Op::Restarted => {
                        attempts += 1;
                        continue 'attempt;
                    }
                }
            }
        };
        let now = Instant::now();
        spans.record(txn_span, 0, "txn", t0, now);
        if committed {
            rss.committed();
            out.committed += 1;
            out.cross += (part.shard_of(VarId(src)) != part.shard_of(VarId(dst))
                || part.shard_of(VarId(src)) != part.shard_of(VarId(ledger)))
                as u64;
            out.lat.record(now, now.duration_since(t0));
        } else {
            out.failed += 1;
        }
        out.end = Some(now);
        if conn == 0 {
            // This connection samples host steal and the server's CPU.
            out.lat.tick(now);
        }
    }
    if conn == 0 {
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        out.lat.tick(Instant::now());
    }
    out.spans = spans.spans;
    Ok(out)
}

fn log_paths(dir: &Path) -> Vec<PathBuf> {
    (0..2).map(|s| ShardedDb::shard_path(dir, s)).collect()
}

fn logs_len(dir: &Path) -> u64 {
    log_paths(dir)
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum()
}

pub fn transfer_durable(args: &Args, traced: bool) -> Result<Phase, String> {
    let part = Partition::new(TD_VARS as usize, 2);
    // Start 0 creates the logs; the timed starts reopen them, so set-up
    // time is the server's restart on its data directory.
    let dir = args.work.join(format!("data-{}", traced as u8));
    let flags = |dir: &Path| -> Vec<String> {
        [
            "--cc",
            "strict-2PL",
            "--shards",
            "2",
            "--vars",
            &TD_VARS.to_string(),
            "--data-dir",
            &dir.display().to_string(),
            "--durability",
            "strict",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("data dir: {e}"))?;
    let (server, setups) = start_servers(&args.server, &flags(&dir))?;
    let epoch0 = Instant::now();
    let mut main_spans = Spans::new(traced, epoch0, 1);

    let pid = server.pid();
    let run = (|| -> Result<_, String> {
        let mut clients = [client(&server.addr)?, client(&server.addr)?];
        let s0 = stats(&mut clients[0], &mut main_spans)?;
        let th0 = measure::threads(server.pid());
        let log0 = logs_len(&dir);
        let noise = Noise::start();
        let start = Instant::now();
        let (c0, c1) = clients.split_at_mut(1);
        let probe = RssProbe {
            pid,
            commits: AtomicU64::new(0),
            mb: OnceLock::new(),
        };
        let outs = std::thread::scope(|sc| {
            let sp1 = Spans::new(traced, epoch0, 3);
            let c1 = &mut c1[0];
            let part = &part;
            let probe = &probe;
            let h = sc.spawn(move || {
                transfer_loop(
                    c1,
                    1,
                    args.seed,
                    start,
                    args.seconds,
                    pid,
                    part,
                    probe,
                    sp1,
                    traced,
                )
            });
            let o0 = transfer_loop(
                &mut c0[0],
                0,
                args.seed,
                start,
                args.seconds,
                pid,
                part,
                probe,
                Spans::new(traced, epoch0, 2),
                traced,
            );
            let o1 = h.join().expect("connection thread does not panic");
            (o0, o1)
        });
        let outs = [outs.0?, outs.1?];
        let end = outs
            .iter()
            .filter_map(|o| o.end)
            .max()
            .unwrap_or_else(Instant::now);
        let th1 = measure::threads(server.pid());
        let (steal, gen_cpu) = noise.finish();
        let log1 = logs_len(&dir);
        let s1 = stats(&mut clients[0], &mut main_spans)?;
        let rss = match probe.mb.get() {
            Some(&mb) => mb,
            None => {
                println!(
                    "FLAG slow run: fewer than {TD_RSS_COMMITS} commits, peak_rss_mb read at the end"
                );
                measure::peak_rss_mb(&pid.to_string())
            }
        };
        Ok((
            outs,
            start,
            end,
            steal,
            gen_cpu,
            th0,
            th1,
            s0,
            s1,
            log1 - log0,
            rss,
        ))
    })();
    drop(server);
    let (outs, start, end, steal, gen_cpu, th0, th1, s0, s1, wal_growth, rss) = run?;

    // Direct recovery timing runs on a copy: `recover` truncates torn tails.
    let copies: Vec<PathBuf> = if traced {
        let copy_dir = args.work.join("killed-logs");
        std::fs::create_dir_all(&copy_dir).map_err(|e| format!("copy dir: {e}"))?;
        log_paths(&dir)
            .iter()
            .map(|p| {
                let to = copy_dir.join(p.file_name().expect("log paths have names"));
                std::fs::copy(p, &to)
                    .map(|_| to)
                    .map_err(|e| format!("copying log: {e}"))
            })
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    // Restart on the killed server's logs and check them.
    let (server, recovery_s) = ServerProc::spawn(&args.server, &flags(&dir))?;
    let check = (|| -> Result<(), String> {
        let mut c = client(&server.addr)?;
        let vals = read_all(&mut c, TD_VARS)?;
        let sum: i64 = vals[..TD_ACCOUNTS as usize].iter().sum();
        if sum != 0 {
            return Err(format!(
                "served_transfer_durable check failed: accounts sum to {sum}, expected 0"
            ));
        }
        for (conn, o) in outs.iter().enumerate() {
            let got = vals[(TD_ACCOUNTS as usize) + conn];
            if got != o.committed as i64 {
                return Err(format!(
                    "served_transfer_durable check failed: ledger[{conn}] = {got}, acked commits {}",
                    o.committed
                ));
            }
        }
        Ok(())
    })();
    drop(server);
    check?;
    println!(
        "check ok after SIGKILL and restart: accounts sum to 0, ledgers = acked commits {:?} \
         (the page cache survives a process kill: this checks the log and its replay, not the device flush)",
        outs.iter().map(|o| o.committed).collect::<Vec<_>>()
    );

    let committed: u64 = outs.iter().map(|o| o.committed).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let c = committed as f64;
    let cat = |f: fn(&ConnOut) -> &Vec<f64>| outs.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let mut layers = vec![
        ("recovery_s", recovery_s),
        ("wal_bytes_per_commit", ratio(wal_growth as f64, c)),
        ("client.begin_rtt_p50_us", median(&cat(|o| &o.begin_rtt_us))),
        (
            "client.update_rtt_p50_us",
            median(&cat(|o| &o.update_rtt_us)),
        ),
        (
            "client.commit_rtt_p50_us",
            median(&cat(|o| &o.commit_rtt_us)),
        ),
        (
            "client.bytes_per_commit",
            ratio(outs.iter().map(|o| o.bytes).sum::<u64>() as f64, c),
        ),
        (
            "shard.cross_frac",
            ratio(outs.iter().map(|o| o.cross).sum::<u64>() as f64, c),
        ),
    ];
    server_layers(
        &s0,
        &s1,
        &th0,
        &th1,
        committed,
        committed + failed,
        &mut layers,
    );
    let [o0, o1] = outs;
    let mut spans = main_spans;
    if traced {
        let mut rec = o0.rec;
        rec.merge(o1.rec);
        layers.extend(layers::frame_codec(&rec, &mut spans));
        let (wal_us, _) =
            layers::wal_strict_commit(&args.work, TD_VARS as usize / 2, 3, &mut spans)?;
        layers.push(("wal.strict_commit_us_p50", wal_us));
        layers.push(("wal.recover_s", layers::recover_s(&copies, &mut spans)?));
        layers.push((
            "mv.gc_scan_us",
            layers::gc_scan_us(TD_VARS as usize / 2, &mut spans),
        ));
    }
    let mut all = spans.spans;
    all.extend(o0.spans);
    all.extend(o1.spans);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Phase {
        setups,
        attempted: committed + failed,
        committed,
        failed,
        window_s: end.duration_since(start).as_secs_f64(),
        lat: {
            let mut w = o0.lat;
            w.merge(&o1.lat);
            w
        },
        closed_loop: true,
        rss_mb: rss,
        steal_frac: steal,
        gen_cpu_frac: gen_cpu,
        layers,
        spans: all,
    })
}
