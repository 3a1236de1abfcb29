//! The closed-loop load generator: each client sends its next
//! submission only after the previous one's result has been fetched.

use crate::daemon::Conn;
use crate::workload::{Kind, Submission};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A submission's result is abandoned (and counted failed) when it has
/// not completed within this long.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Attempts per submission when the daemon has evicted a completed
/// result before the client could fetch it. The daemon's result cache
/// evicts in insertion order, so a resubmission answered from an old
/// entry can lose it to another client's completion in between; the
/// documented remedy is to submit again (its profiles are still
/// cached). Each extra attempt is counted, and its time is part of the
/// submission's latency.
const ATTEMPTS: usize = 3;

/// One HTTP call of a job, for the traced run.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub bytes: usize,
}

/// One submission as the client saw it.
#[derive(Debug)]
pub struct Record {
    /// Position in the workload's submission stream.
    pub seq: usize,
    pub analysis: usize,
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    /// Daemon job id, once the submission was accepted.
    pub job: Option<String>,
    /// Key of the result body in [`Bodies`], or why the submission
    /// failed (refused, failed, timed out, connection lost).
    pub outcome: Result<u64, String>,
    /// Extra attempts after the result was evicted before its fetch.
    pub resubmits: usize,
    pub calls: Vec<Call>,
}

/// Result bodies, one per distinct served analysis: keyed by a hash of
/// the body without its per-job fields (job id, detection wall time), so
/// a long window of repeated results holds each once.
#[derive(Debug, Default)]
pub struct Bodies(Mutex<HashMap<u64, Vec<u8>>>);

impl Bodies {
    fn insert(&self, body: Vec<u8>) -> u64 {
        let key = content_key(&body);
        self.0
            .lock()
            .expect("bodies lock")
            .entry(key)
            .or_insert(body);
        key
    }

    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.0.lock().expect("bodies lock").get(&key).cloned()
    }
}

/// FNV-1a over the `"report":...,"runs":...` part of a result body (the
/// whole body when that part cannot be found).
fn content_key(body: &[u8]) -> u64 {
    const HEAD: &[u8] = b"\"report\":";
    const TAIL: &[u8] = b",\"detect_seconds\":";
    let start = body
        .windows(HEAD.len())
        .position(|w| w == HEAD)
        .unwrap_or(0);
    let end = body
        .windows(TAIL.len())
        .rposition(|w| w == TAIL)
        .filter(|&e| e > start)
        .unwrap_or(body.len());
    body[start..end]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Where clients take their next submission from; `None` ends the run.
pub type Source<'a> = Mutex<Box<dyn FnMut() -> Option<(usize, Submission)> + Send + 'a>>;

/// Run one client per connection until `source` is exhausted. With
/// `traced`, every HTTP call is kept as a client-side span.
pub fn drive(
    addr: &str,
    conns: &mut [Conn],
    source: &Source<'_>,
    bodies: &Bodies,
    traced: bool,
) -> Vec<Record> {
    let records = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let records = &records;
            scope.spawn(move || loop {
                let next = (source.lock().expect("source lock"))();
                let Some((seq, submission)) = next else { break };
                let record = run_job(addr, conn, seq, submission, bodies, traced);
                records.lock().expect("records lock").push(record);
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.seq);
    records
}

fn run_job(
    addr: &str,
    conn: &mut Conn,
    seq: usize,
    submission: Submission,
    bodies: &Bodies,
    traced: bool,
) -> Record {
    let start = Instant::now();
    let mut calls = Vec::new();
    let mut job = None;
    let mut resubmits = 0;
    let outcome = loop {
        match exchange(conn, &submission, traced.then_some(&mut calls), &mut job) {
            Err(Exchange::Evicted(_)) if resubmits + 1 < ATTEMPTS => resubmits += 1,
            Err(Exchange::Evicted(why) | Exchange::Failed(why)) => break Err(why),
            Ok(body) => break Ok(body),
        }
    };
    let end = Instant::now();
    let outcome = outcome.map(|body| bodies.insert(body));
    if outcome.is_err() {
        // The connection may be in an unknown state: start afresh.
        if let Ok(fresh) = Conn::connect(addr) {
            *conn = fresh;
        }
    }
    Record {
        seq,
        analysis: submission.analysis,
        kind: submission.kind,
        start,
        end,
        job,
        outcome,
        resubmits,
        calls,
    }
}

fn timed(
    conn: &mut Conn,
    calls: &mut Option<&mut Vec<Call>>,
    name: &'static str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let start = Instant::now();
    let response = conn
        .request(method, path, body)
        .map_err(|e| format!("{name}: {e}"))?;
    if let Some(calls) = calls {
        calls.push(Call {
            name,
            start,
            end: Instant::now(),
            bytes: response.1.len(),
        });
    }
    Ok(response)
}

/// Extract `"key":"value"` from a flat JSON response without a full
/// parse (keeps client work off the daemon's cores during the window).
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let start = body.find(&pattern)? + pattern.len();
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// Why an exchange did not yield a result.
enum Exchange {
    /// The daemon no longer knows the completed job.
    Evicted(String),
    Failed(String),
}

impl From<String> for Exchange {
    fn from(why: String) -> Exchange {
        Exchange::Failed(why)
    }
}

fn exchange(
    conn: &mut Conn,
    submission: &Submission,
    mut calls: Option<&mut Vec<Call>>,
    job_out: &mut Option<String>,
) -> Result<Vec<u8>, Exchange> {
    let (code, ack) = timed(
        conn,
        &mut calls,
        "submit",
        "POST",
        "/v1/jobs",
        submission.body.as_bytes(),
    )?;
    let ack = String::from_utf8_lossy(&ack).into_owned();
    if code == 503 {
        return Err(Exchange::Failed(format!("refused: {ack}")));
    }
    if code != 200 {
        return Err(Exchange::Failed(format!("submit: {code} {ack}")));
    }
    let job = field(&ack, "job")
        .ok_or_else(|| Exchange::Failed("submit ack has no job id".to_string()))?
        .to_string();
    *job_out = Some(job.clone());
    let mut status = field(&ack, "status").unwrap_or("queued").to_string();
    let deadline = Instant::now() + JOB_TIMEOUT;
    while status != "done" {
        if status == "failed" {
            return Err(Exchange::Failed(format!("job {job} failed")));
        }
        if Instant::now() > deadline {
            return Err(Exchange::Failed(format!("job {job} timed out")));
        }
        let path = format!("/v1/jobs/{job}/wait?timeout_ms=20000");
        let (code, view) = timed(conn, &mut calls, "wait", "GET", &path, b"")?;
        let view = String::from_utf8_lossy(&view);
        if code != 200 {
            return Err(failure("wait", code, &view));
        }
        status = field(&view, "status").unwrap_or("unknown").to_string();
    }
    let path = format!("/v1/jobs/{job}/result");
    let (code, result) = timed(conn, &mut calls, "result", "GET", &path, b"")?;
    if code != 200 {
        return Err(failure("result", code, &String::from_utf8_lossy(&result)));
    }
    Ok(result)
}

fn failure(call: &str, code: u16, body: &str) -> Exchange {
    let why = format!("{call}: {code} {body}");
    if code == 404 && field(body, "code") == Some("unknown_job") {
        Exchange::Evicted(why)
    } else {
        Exchange::Failed(why)
    }
}
