//! The repository's benchmark: one command runs a named workload from a
//! seed against the real system, checks its outputs, and prints every
//! metric by name with its unit.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one untraced timed
//! phase. `--trace 1` runs an untraced phase and then a traced one, each
//! of half the seconds, and prints the per-layer metrics of the traced
//! phase plus, as `overhead.*`, the traced-minus-untraced difference of
//! every end-to-end figure. The last line of stdout is one JSON object; a
//! failed output check exits 1 without printing it.
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//! `served_readmostly`, `served_transfer_durable`, `engine_contended`.

mod engine;
mod layers;
mod measure;
mod served;

use measure::{Span, Windows};
use std::path::{Path, PathBuf};

/// End-to-end metrics with a bound: (name, unit). Printed by every
/// `--trace 0` run. These are the figures that repeat across seeds and
/// hours on a host whose CPU steal swings between 0% and 30%.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_commit", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit). Printed by every `--trace 1` run; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end figures without a bound. Throughput and latency follow
    // host CPU steal so closely that their spread across seeds exceeds
    // any allowed bound whenever steal lasts a whole run; fail_frac is 0
    // wherever nothing fails; the last two exist on one workload only.
    ("commits_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("fail_frac", "frac"),
    ("recovery_s", "s"),
    ("wal_bytes_per_commit", "B"),
    // Host and generator: validity columns.
    ("host.steal_frac", "frac"),
    ("gen.late_p99_us", "us"),
    ("gen.cpu_frac", "frac"),
    // Client: request round trips.
    ("client.begin_rtt_p50_us", "us"),
    ("client.batch_rtt_p50_us", "us"),
    ("client.update_rtt_p50_us", "us"),
    ("client.commit_rtt_p50_us", "us"),
    ("client.bytes_per_commit", "B"),
    // net::frame: direct calls on the run's recorded messages.
    ("frame.encode_req_ns", "ns"),
    ("frame.decode_req_ns", "ns"),
    ("frame.encode_resp_ns", "ns"),
    ("frame.decode_resp_ns", "ns"),
    // net::server, from /proc and the Stats opcode.
    ("server.reader_cpu_us_per_commit", "us"),
    ("server.writer_cpu_us_per_commit", "us"),
    ("server.engine_cpu_us_per_commit", "us"),
    ("server.ctx_switches_per_commit", "count"),
    ("server.shed_pipeline_frac", "frac"),
    ("server.shed_queue_frac", "frac"),
    ("server.shed_txns_frac", "frac"),
    // engine::shard
    ("shard.msgs_per_commit", "count"),
    ("shard.ops_per_msg", "count"),
    ("shard.cross_frac", "frac"),
    ("shard.submit_group_us_p50", "us"),
    // engine::cc
    ("cc.waits_per_commit", "count"),
    ("cc.restarts_per_commit", "count"),
    ("cc.commit_frac", "frac"),
    ("cc.deadlock_per_commit", "count"),
    ("cc.valve_per_commit", "count"),
    // engine::mvstore
    ("mv.installed_per_commit", "count"),
    ("mv.reclaimed_per_commit", "count"),
    ("mv.max_chain_len", "count"),
    ("mv.gc_scan_us", "us"),
    // durability
    ("wal.syncs_per_commit", "count"),
    ("wal.records_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.strict_commit_us_p50", "us"),
    ("wal.recover_s", "s"),
    // Self time of the spans the traced run records, per commit.
    ("self.txn_us_per_commit", "us"),
    ("self.request_us_per_commit", "us"),
    ("self.submit_group_us_per_commit", "us"),
    ("self.stats_poll_us", "us"),
    // Tracing overhead: traced minus untraced, per end-to-end metric.
    ("overhead.setup_s", "s"),
    ("overhead.commits_per_s", "1/s"),
    ("overhead.txn_p50_us", "us"),
    ("overhead.txn_p99_us", "us"),
    ("overhead.cpu_us_per_commit", "us"),
    ("overhead.peak_rss_mb", "MB"),
];

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// What one timed phase of a workload measured.
#[derive(Default)]
pub struct Phase {
    /// Set-up times, one per repetition (seconds).
    pub setups: Vec<f64>,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Wall time of the timed phase (seconds).
    pub window_s: f64,
    /// Transaction completions and latencies, by window.
    pub lat: Windows,
    /// Closed loop: the commit rate and CPU per commit are taken over the
    /// quiet windows. In the open loop the offered load is fixed, so the
    /// rate is taken over the whole phase, where only a backlog can lower
    /// it, and CPU per commit over all windows (see [`Windows`]).
    pub closed_loop: bool,
    pub rss_mb: f64,
    pub steal_frac: f64,
    pub gen_cpu_frac: f64,
    /// Per-layer metrics this workload exercises, by name.
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Phase {
    fn end_to_end(&self) -> Result<Vec<(&'static str, f64)>, String> {
        if self.committed == 0 {
            return Err("nothing committed".into());
        }
        let w = self
            .lat
            .stats()
            .ok_or("no measurement window holds a commit")?;
        let c = self.committed as f64;
        let (rate, cpu) = if self.closed_loop {
            (w.rate, w.quiet_cpu_us_per_commit)
        } else {
            (c / self.window_s, w.cpu_us_per_commit)
        };
        Ok(vec![
            ("setup_s", measure::median(&self.setups)),
            ("commits_per_s", rate),
            ("txn_p50_us", w.p50_us),
            ("txn_p99_us", w.p99_us),
            ("cpu_us_per_commit", cpu),
            ("peak_rss_mb", self.rss_mb),
        ])
    }

    /// Noise columns recorded with every run.
    fn noise(&self) -> (f64, f64, f64) {
        (self.steal_frac, self.lat.late_us(0.99), self.gen_cpu_frac)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1\n\
         workloads: served_readmostly, served_transfer_durable, engine_contended"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().ok(),
            "--seconds" => seconds = val.parse().ok().filter(|&s| s > 0),
            "--trace" => trace = Some(val == "1"),
            "--server" => server = Some(PathBuf::from(val)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(server)) =
        (workload, seed, seconds, server)
    else {
        usage()
    };
    let work =
        PathBuf::from("perfbench/work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Args {
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        server,
        work,
    }
}

fn run_phase(args: &Args, traced: bool) -> Result<Phase, String> {
    match args.workload.as_str() {
        "served_readmostly" => served::readmostly(args, traced),
        "served_transfer_durable" => served::transfer_durable(args, traced),
        "engine_contended" => engine::contended(args, traced),
        w => Err(format!("unknown workload {w}")),
    }
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

fn json_line(phase: &Phase, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.attempted,
        phase.failed,
        body.join(", ")
    )
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn value(all: &[(&str, f64)], name: &str) -> f64 {
    all.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric {name} was not measured"))
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    // A traced run measures an untraced and a traced phase of half the
    // length each, so it takes as long as an untraced run.
    let phase_args = Args {
        seconds: if args.trace {
            (args.seconds / 2).max(1)
        } else {
            args.seconds
        },
        ..args.clone()
    };
    let base = run_phase(&phase_args, false)?;
    let all = base.end_to_end()?;
    let (steal, late_p99, gen_cpu) = base.noise();
    println!(
        "workload={} seed={} seconds={} committed={} attempted={} failed={} latency_samples={}",
        args.workload,
        args.seed,
        phase_args.seconds,
        base.committed,
        base.attempted,
        base.failed,
        base.lat.all.len()
    );
    println!("noise host.steal_frac={steal} gen.late_p99_us={late_p99} gen.cpu_frac={gen_cpu}");
    println!("setup samples (s): {:?}", base.setups);
    for l in base.lat.lines() {
        println!("{l}");
    }
    let p50 = value(&all, "txn_p50_us");
    if late_p99 > p50 {
        println!(
            "FLAG noisy run: generator lateness p99 {late_p99} us exceeds txn_p50_us {p50} us"
        );
    }
    let w = base.lat.stats().expect("end_to_end checked the windows");
    for (n, v) in &all {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(m, _)| m == n)
            .map_or("", |(_, u)| *u);
        let note = if n.starts_with("txn_p") {
            format!(
                " (over the {} of {} windows with the least host steal, mean {:.4}; \
                 at least {} samples per window, {} in all; 0 = too few samples for it)",
                w.quiet,
                w.windows,
                w.quiet_steal,
                w.min_samples,
                base.lat.all.len()
            )
        } else {
            String::new()
        };
        let phase = if args.trace { "untraced " } else { "" };
        println!("{phase}{n} {v} {unit}{note}");
    }
    if !args.trace {
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n, value(&all, n), u))
            .collect();
        println!("{}", json_line(&base, &metrics));
        return Ok(());
    }

    let traced = run_phase(&phase_args, true)?;
    let all_t = traced.end_to_end()?;
    let mut got: Vec<(&str, f64)> = traced.layers.clone();
    for (&(n, u), &(_, t)) in all.iter().zip(&all_t) {
        if PER_LAYER.iter().any(|(p, _)| *p == n) {
            got.push((n, t));
        }
        if let Some((o, _)) = PER_LAYER
            .iter()
            .find(|(p, _)| p.strip_prefix("overhead.") == Some(n))
        {
            got.push((o, t - u));
        }
    }
    let c = traced.committed as f64;
    let selfs = measure::self_times_us(&traced.spans);
    got.push((
        "self.txn_us_per_commit",
        selfs.get("txn").copied().unwrap_or(0.0) / c,
    ));
    let req: f64 = selfs
        .iter()
        .filter(|(k, _)| k.starts_with("req."))
        .map(|(_, v)| v)
        .sum();
    got.push(("self.request_us_per_commit", req / c + 0.0));
    got.push((
        "self.submit_group_us_per_commit",
        selfs.get("submit_group").copied().unwrap_or(0.0) / c,
    ));
    let polls = traced
        .spans
        .iter()
        .filter(|s| s.name == "stats_poll")
        .count() as f64;
    got.push((
        "self.stats_poll_us",
        measure::ratio(selfs.get("stats_poll").copied().unwrap_or(0.0), polls),
    ));
    let (steal, late_p99, gen_cpu) = traced.noise();
    got.push(("host.steal_frac", steal));
    got.push(("gen.late_p99_us", late_p99));
    got.push(("gen.cpu_frac", gen_cpu));
    got.push((
        "fail_frac",
        measure::ratio(traced.failed as f64, traced.attempted as f64),
    ));

    let spans_path =
        Path::new("perfbench/work").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    measure::write_spans(&spans_path, &traced.spans).map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "spans={} written to {}",
        traced.spans.len(),
        spans_path.display()
    );

    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = got.iter().rev().find(|(g, _)| *g == n).map_or(0.0, |g| g.1);
            (n, v, u)
        })
        .collect();
    for (n, _) in &got {
        unit_of(PER_LAYER, n);
    }
    for (n, v, u) in &metrics {
        println!("{n} {v} {u}");
    }
    println!("{}", json_line(&traced, &metrics));
    Ok(())
}

fn main() {
    let args = parse_args();
    let out = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = out {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
