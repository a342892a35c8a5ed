//! Measurement helpers: the seeded generator, log-linear latency
//! histograms and windows, `/proc`
//! readers and the in-memory span recorder.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable and identical on every platform, so a
/// seed names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next() >> 11) as u128 * n as u128) >> 53) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Median of raw samples (0 when there are none: the layer was idle).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, reading 0 when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ----------------------------------------------------------- histograms

/// Sub-buckets per power of two: a bucket's midpoint is within
/// 2^-(SUB_BITS+1) = 0.4% of every value in it.
const SUB_BITS: u32 = 7;
const BUCKETS: usize = 64 << SUB_BITS;

/// Log-linear histogram of nanosecond values. Its memory is fixed, so a
/// fast workload's sample count does not grow the measured process.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < 1 << SUB_BITS {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize - (1 << SUB_BITS))
}

fn midpoint(i: usize) -> f64 {
    if i < 1 << SUB_BITS {
        return i as f64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let m = ((i & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) as f64;
    (m + 0.5) * (1u64 << shift) as f64
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// Nearest-rank quantile `q` in µs however few samples lie beyond
    /// it (0 when empty); for diagnostics only.
    pub fn quantile_any_us(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return midpoint(i) / 1e3;
            }
        }
        0.0
    }

    /// Nearest-rank quantile `q` in µs, or `None` unless at least ten
    /// samples lie above it (the tail would be a guess).
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        (self.n >= rank + 10).then(|| self.quantile_any_us(q))
    }
}

/// Transaction completions split into equal windows of the timed phase.
/// CPU steal on a shared host comes and goes within seconds, can take a
/// quarter of the CPU and halves throughput while it lasts. The commit
/// rate and the latency quantiles are therefore taken over the third of
/// the windows with the least host steal: the program's figures when its
/// neighbours are quiet. CPU per commit is given both ways: as the
/// median over all windows and over the quiet ones. A closed loop's
/// load falls with steal and its CPU per commit rises by a quarter at
/// 25% steal, so it takes the quiet windows; an open loop's load is
/// fixed, but its CPU per commit drifts within a run (the SI server's
/// grows with its commits), so it takes all windows, where picking them
/// by steal would pick different parts of that drift. The per-window
/// lines show every window with its host steal.
pub struct Windows {
    start: Instant,
    width: Duration,
    wins: Vec<Hist>,
    /// The process under test, whose CPU is sampled with host steal.
    pid: u32,
    /// At each window boundary reached so far: host steal ticks, host
    /// total ticks, CPU ns of the process under test.
    marks: Vec<[f64; 3]>,
    /// Open loop: how late the generator sent, per window.
    late: Vec<Hist>,
    /// Every completion, inside a window or not.
    pub all: Hist,
}

/// Medians over the windows (see [`Windows`]).
pub struct WindowStats {
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Median over all windows.
    pub cpu_us_per_commit: f64,
    /// Median over the quiet windows.
    pub quiet_cpu_us_per_commit: f64,
    pub windows: usize,
    /// Windows with the least steal, behind the rate and latencies.
    pub quiet: usize,
    /// Mean host steal over those windows.
    pub quiet_steal: f64,
    /// Fewest completions in a window.
    pub min_samples: u64,
}

impl Windows {
    /// Windows of `width_s` seconds (at most `seconds`) covering `seconds`
    /// from `start`; `pid` is the process under test.
    pub fn new(start: Instant, seconds: u64, width_s: u64, pid: u32) -> Windows {
        let width_s = width_s.clamp(1, seconds.max(1));
        let n = (seconds / width_s).max(1) as usize;
        Windows {
            start,
            width: Duration::from_secs(width_s),
            wins: vec![Hist::default(); n],
            pid,
            marks: Vec::new(),
            late: vec![Hist::default(); n],
            all: Hist::default(),
        }
    }

    fn index(&self, at: Instant) -> usize {
        (at.saturating_duration_since(self.start).as_nanos() / self.width.as_nanos()) as usize
    }

    /// A transaction that completed at `done`, `lat` after it started.
    pub fn record(&mut self, done: Instant, lat: Duration) {
        let ns = lat.as_nanos() as u64;
        let k = self.index(done);
        if let Some(w) = self.wins.get_mut(k) {
            w.record(ns);
        }
        self.all.record(ns);
    }

    /// The generator sent at `at`, `late` after the send was due.
    pub fn record_late(&mut self, at: Instant, late: Duration) {
        let k = self.index(at);
        if let Some(w) = self.late.get_mut(k) {
            w.record(late.as_nanos() as u64);
        }
    }

    /// Sample host steal and the CPU of the process under test at every
    /// window boundary `now` has passed. One thread of the generator
    /// calls this often (at least every few milliseconds) and once more
    /// after the phase.
    pub fn tick(&mut self, now: Instant) {
        while self.marks.len() <= self.wins.len()
            && now >= self.start + self.width * self.marks.len() as u32
        {
            let (steal, total) = host_steal();
            self.marks.push([steal, total, process_cpu_ns(self.pid)]);
        }
    }

    /// Fold in another thread's completions (its marks are ignored).
    pub fn merge(&mut self, o: &Windows) {
        for (a, b) in self.wins.iter_mut().zip(&o.wins) {
            a.merge(b);
        }
        for (a, b) in self.late.iter_mut().zip(&o.late) {
            a.merge(b);
        }
        self.all.merge(&o.all);
    }

    /// Host steal fraction and CPU ns of the process under test in each
    /// window (`None` for a window whose end was never sampled).
    fn deltas(&self) -> Vec<Option<(f64, f64)>> {
        (0..self.wins.len())
            .map(|k| match (self.marks.get(k), self.marks.get(k + 1)) {
                (Some(a), Some(b)) => Some((ratio(b[0] - a[0], b[1] - a[1]), b[2] - a[2])),
                _ => None,
            })
            .collect()
    }

    /// The commit rate as the median over the third of the windows (plus
    /// one) with the least host steal, ties to the earlier window; p50 and
    /// p99 over those windows' completions pooled; CPU per commit as the
    /// median over all windows and over the quiet ones. Only windows
    /// whose both boundaries were sampled and that hold a completion
    /// count. A slow host thins the windows but never fails the run: a
    /// quantile with fewer than ten samples beyond it in the quiet
    /// windows is taken over the whole phase, and reads 0 (not reported)
    /// if it has too few there as well. `None` only when no window holds
    /// a completion.
    pub fn stats(&self) -> Option<WindowStats> {
        let mut rows: Vec<(f64, f64, f64, usize)> = self
            .wins
            .iter()
            .zip(self.deltas())
            .enumerate()
            .filter_map(|(k, (w, d))| {
                let (steal, ns) = d?;
                let n = w.len() as f64;
                (n > 0.0).then(|| (steal, n / self.width.as_secs_f64(), ns / 1e3 / n, k))
            })
            .collect();
        if rows.is_empty() {
            return None;
        }
        let cpu = median(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        // A stable sort keeps ties in window order.
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let quiet = &rows[..rows.len() / 3 + 1];
        let mut pooled = Hist::default();
        for r in quiet {
            pooled.merge(&self.wins[r.3]);
        }
        let q = |p: f64| {
            pooled
                .quantile_us(p)
                .or_else(|| self.all.quantile_us(p))
                .unwrap_or(0.0)
        };
        let col = |f: fn(&(f64, f64, f64, usize)) -> f64| {
            median(&quiet.iter().map(f).collect::<Vec<_>>())
        };
        Some(WindowStats {
            rate: col(|r| r.1),
            p50_us: q(0.50),
            p99_us: q(0.99),
            cpu_us_per_commit: cpu,
            quiet_cpu_us_per_commit: col(|r| r.2),
            windows: self.wins.len(),
            quiet: quiet.len(),
            quiet_steal: quiet.iter().map(|r| r.0).sum::<f64>() / quiet.len() as f64,
            min_samples: self.wins.iter().map(Hist::len).min().unwrap_or(0),
        })
    }

    /// Generator lateness quantile `q` over the whole phase, in µs
    /// (0 for a closed loop, which has no schedule).
    pub fn late_us(&self, q: f64) -> f64 {
        let mut all = Hist::default();
        for h in &self.late {
            all.merge(h);
        }
        all.quantile_us(q).unwrap_or(0.0)
    }

    /// One line per window: host steal, commits, latency quantiles, CPU
    /// per commit and generator lateness, for reading a run's noise.
    pub fn lines(&self) -> Vec<String> {
        let d = self.deltas();
        (0..self.wins.len())
            .map(|k| {
                let w = &self.wins[k];
                let (steal, ns) = d[k].unwrap_or((f64::NAN, f64::NAN));
                format!(
                    "window {k} steal={steal:.4} commits={} p50_us={:.1} p90_us={:.1} p99_us={:.1} \
                     cpu_us_per_commit={:.2} late_p50_us={:.1} late_p90_us={:.1}",
                    w.len(),
                    w.quantile_any_us(0.5),
                    w.quantile_any_us(0.9),
                    w.quantile_any_us(0.99),
                    ratio(ns / 1e3, w.len() as f64),
                    self.late[k].quantile_any_us(0.5),
                    self.late[k].quantile_any_us(0.9)
                )
            })
            .collect()
    }
}

impl Default for Windows {
    fn default() -> Windows {
        Windows::new(Instant::now(), 1, 1, std::process::id())
    }
}

// ---------------------------------------------------------------- /proc

/// `/proc/<pid>/stat` counts CPU time in ticks of `sysconf(_SC_CLK_TCK)`,
/// 100 on Linux.
const CLK_TCK: f64 = 100.0;

/// User+system CPU seconds of process `pid` ("self" for this one),
/// including threads that already exited.
pub fn proc_cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / CLK_TCK
}

/// Peak resident set (VmHWM) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host CPU time counters from `/proc/stat`: (steal, total) in ticks.
pub fn host_steal() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let v: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|s| s.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0.0), v.iter().sum())
}

/// One thread's CPU (ns, from `schedstat`) and context switches.
#[derive(Clone, Debug, Default)]
pub struct ThreadUse {
    pub name: String,
    pub cpu_ns: f64,
    pub ctx: f64,
}

/// Every live thread of process `pid`, by thread id.
pub fn threads(pid: u32) -> HashMap<u32, ThreadUse> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for e in dir.flatten() {
        let Ok(tid) = e.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let base = e.path();
        let name = std::fs::read_to_string(base.join("comm")).unwrap_or_default();
        let cpu_ns = std::fs::read_to_string(base.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        let status = std::fs::read_to_string(base.join("status")).unwrap_or_default();
        let ctx = status
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .sum();
        out.insert(
            tid,
            ThreadUse {
                name: name.trim().to_string(),
                cpu_ns,
                ctx,
            },
        );
    }
    out
}

/// CPU ns of every live thread of process `pid`. Cheap enough to call
/// once a second; the measured processes keep their threads for the
/// whole timed phase.
pub fn process_cpu_ns(pid: u32) -> f64 {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum()
}

/// Per-thread use between two snapshots; a thread born in between counts
/// from zero. Threads that exited in between are lost, so snapshots are
/// taken while the measured connections are open.
pub fn thread_delta(
    before: &HashMap<u32, ThreadUse>,
    after: &HashMap<u32, ThreadUse>,
) -> Vec<ThreadUse> {
    after
        .iter()
        .map(|(tid, a)| {
            let b = before.get(tid).cloned().unwrap_or_default();
            ThreadUse {
                name: a.name.clone(),
                cpu_ns: a.cpu_ns - b.cpu_ns,
                ctx: a.ctx - b.ctx,
            }
        })
        .collect()
}

/// Host and generator noise over one timed phase.
pub struct Noise {
    steal0: (f64, f64),
    cpu0: f64,
    t0: Instant,
}

impl Noise {
    pub fn start() -> Noise {
        Noise {
            steal0: host_steal(),
            cpu0: proc_cpu_s("self"),
            t0: Instant::now(),
        }
    }

    /// (host steal fraction, generator CPU seconds per wall second).
    pub fn finish(&self) -> (f64, f64) {
        let s1 = host_steal();
        let wall = self.t0.elapsed().as_secs_f64();
        (
            ratio(s1.0 - self.steal0.0, s1.1 - self.steal0.1),
            ratio(proc_cpu_s("self") - self.cpu0, wall),
        )
    }
}

// ---------------------------------------------------------------- spans

/// One span: a call the benchmark made into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span buffer; off unless the run is traced. Span ids are
/// `thread << 48 | n`, so buffers merge without coordination.
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Spans {
        Spans {
            on,
            epoch,
            thread,
            next: 0,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        self.thread << 48 | self.next
    }

    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as a root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let t = Instant::now();
        let out = f();
        self.record(id, 0, name, t, Instant::now());
        out
    }
}

/// Self time per span name, in µs: each span's duration minus the part
/// its children cover (children of one span never overlap here: a
/// transaction's requests are sequential).
pub fn self_times_us(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 / 1e3;
    }
    out
}

/// Write spans as JSONL.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
