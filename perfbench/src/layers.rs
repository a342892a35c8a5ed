//! Direct calls into single layers, with each workload's own shapes:
//! the frame codec over a run's recorded messages, a strict `Wal`
//! commit, `recover`, and `MvStore::gc`.

use crate::measure::{median, Spans};
use ccopt_durability::{recover, DurabilityMode, StoreImage, Wal};
use ccopt_engine::MvStore;
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::value::Value;
use ccopt_net::frame::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Messages recorded during a run, for the codec timings.
#[derive(Default)]
pub struct Recorded {
    pub reqs: Vec<Request>,
    pub resps: Vec<Response>,
}

impl Recorded {
    /// Keep at most this many of each.
    pub const CAP: usize = 4096;

    pub fn req(&mut self, r: &Request) {
        if self.reqs.len() < Self::CAP {
            self.reqs.push(r.clone());
        }
    }

    pub fn resp(&mut self, r: &Response) {
        if self.resps.len() < Self::CAP {
            self.resps.push(r.clone());
        }
    }

    pub fn merge(&mut self, other: Recorded) {
        self.reqs.extend(other.reqs);
        self.reqs.truncate(Self::CAP);
        self.resps.extend(other.resps);
        self.resps.truncate(Self::CAP);
    }
}

/// Per message, in ns: encode and decode of the recorded requests and
/// responses. Zero when the workload sends none.
pub fn frame_codec(rec: &Recorded, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    const ROUNDS: usize = 20;
    let per = |n: usize, t: Instant| t.elapsed().as_nanos() as f64 / (n * ROUNDS).max(1) as f64;
    let enc_req: Vec<Vec<u8>> = rec
        .reqs
        .iter()
        .enumerate()
        .map(|(i, r)| encode_request(i as u64, r))
        .collect();
    let enc_resp: Vec<Vec<u8>> = rec
        .resps
        .iter()
        .enumerate()
        .map(|(i, r)| encode_response(i as u64, r))
        .collect();
    spans.time("direct.frame", || {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for (i, r) in rec.reqs.iter().enumerate() {
                black_box(encode_request(i as u64, black_box(r)));
            }
        }
        let encode_req = per(rec.reqs.len(), t);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for b in &enc_req {
                black_box(decode_request(black_box(b)).expect("recorded requests decode"));
            }
        }
        let decode_req = per(rec.reqs.len(), t);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for (i, r) in rec.resps.iter().enumerate() {
                black_box(encode_response(i as u64, black_box(r)));
            }
        }
        let encode_resp = per(rec.resps.len(), t);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for b in &enc_resp {
                black_box(decode_response(black_box(b)).expect("recorded responses decode"));
            }
        }
        let decode_resp = per(rec.resps.len(), t);
        vec![
            ("frame.encode_req_ns", encode_req),
            ("frame.decode_req_ns", decode_req),
            ("frame.encode_resp_ns", encode_resp),
            ("frame.decode_resp_ns", decode_resp),
        ]
    })
}

/// Median µs of one strict commit of `writes` after-images on a fresh
/// log over `num_vars` variables; returns the log's path too, so
/// [`recover_s`] can replay it when the workload keeps no log of its own.
pub fn wal_strict_commit(
    work: &Path,
    num_vars: usize,
    writes: usize,
    spans: &mut Spans,
) -> Result<(f64, PathBuf), String> {
    const COMMITS: u64 = 200;
    let path = work.join("direct.wal");
    let image = StoreImage::Single(vec![Value::Int(0); num_vars]);
    let mut times = Vec::with_capacity(COMMITS as usize);
    spans.time("direct.wal", || -> Result<(), String> {
        let mut wal = Wal::create(&path, DurabilityMode::Strict, 0, &image)
            .map_err(|e| format!("wal create: {e}"))?;
        for gsn in 1..=COMMITS {
            let t = Instant::now();
            wal.start_commit(gsn, 0);
            for w in 0..writes {
                let var = (gsn as usize * 7 + w * 13) % num_vars;
                wal.push_write(VarId(var as u32), Value::Int(gsn as i64));
            }
            wal.finish_commit(gsn, gsn)
                .map_err(|e| format!("wal commit: {e}"))?;
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(())
    })?;
    Ok((median(&times), path))
}

/// Seconds to recover every log in `logs` (summed), checking each one
/// holds a usable image.
pub fn recover_s(logs: &[PathBuf], spans: &mut Spans) -> Result<f64, String> {
    let mut total = 0.0;
    for p in logs {
        let t = Instant::now();
        let got = spans
            .time("direct.recover", || recover(p))
            .map_err(|e| format!("recover {}: {e}", p.display()))?;
        total += t.elapsed().as_secs_f64();
        got.ok_or_else(|| format!("no usable log at {}", p.display()))?;
    }
    Ok(total)
}

/// Median µs of one `MvStore::gc` scan over `num_vars` chains.
pub fn gc_scan_us(num_vars: usize, spans: &mut Spans) -> f64 {
    const CALLS: usize = 101;
    let mut store = MvStore::new(GlobalState(vec![Value::Int(0); num_vars]));
    for v in (0..num_vars).step_by(64) {
        store.install(VarId(v as u32), 1, Value::Int(1));
    }
    let mut times = Vec::with_capacity(CALLS);
    spans.time("direct.gc", || {
        for _ in 0..CALLS {
            let t = Instant::now();
            black_box(store.gc(black_box(0)));
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    });
    median(&times)
}
