//! The `ds-serve` daemon driven from outside: process lifetime, a minimal
//! HTTP/1.1 client, and the open-loop request generator.

use crate::decks::Rng;
use crate::stats::{median, quantile};
use ds_passivity_suite::harness::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reply to one HTTP request.
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Response headers (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
    /// Seconds spent in `connect`.
    pub connect_s: f64,
}

impl Reply {
    /// The value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Opens a connection and writes one request; returns the stream and the
/// seconds `connect` took.
fn send(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(TcpStream, f64), String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connect_s = start.elapsed().as_secs_f64();
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send {path}: {e}"))?;
    Ok((stream, connect_s))
}

/// Parses a complete reply (the daemon closes the connection after it).
fn parse_reply(raw: Vec<u8>, connect_s: f64) -> Result<Reply, String> {
    let text = String::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("malformed reply (no header end)")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: body.to_string(),
        connect_s,
    })
}

/// Sends one request on a fresh connection (the daemon answers one request
/// per connection) and reads the whole reply.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let (mut stream, connect_s) = send(addr, method, path, body)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    parse_reply(raw, connect_s).map_err(|e| format!("{path}: {e}"))
}

/// A running daemon; stopped (and waited for) on drop.
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `bin` on an ephemeral port with a fresh `store` directory and
    /// waits until `/health` answers 200.
    pub fn boot(bin: &Path, store: &Path, workers: usize, cache: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(store);
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args(["--cache", &cache.to_string()])
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon stdout missing")?;
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        daemon.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(reply) = request(&daemon.addr, "GET", "/health", b"") {
                if reply.status == 200 {
                    return Ok(daemon);
                }
            }
            if Instant::now() > deadline {
                return Err("daemon never answered /health".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Process id, for `/proc` readings.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful shutdown through `POST /shutdown`; kills the process if it
    /// has not exited within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = request(&self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after /shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Which part of the traffic mix a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A repeat of a hot deck.
    Hot,
    /// A reformatted repeat of a hot deck (same canonical hash).
    Reformatted,
    /// A deck never sent before.
    Fresh,
}

/// One deck the generator may send, with what a correct reply shows.
pub struct Payload {
    /// Deck text.
    pub text: Arc<str>,
    /// Ground truth.
    pub passive: bool,
    /// Canonical content hash (`X-Deck-Hash`).
    pub hash: u64,
}

/// One scheduled request.
pub struct Planned {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    /// Traffic class.
    pub class: Class,
    /// What to send.
    pub payload: Arc<Payload>,
}

/// A seeded Poisson arrival schedule at `rate` requests per second over
/// `seconds`, each slot filled by `pick`.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut Rng) -> (Class, Arc<Payload>),
) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return plan;
        }
        let (class, payload) = pick(rng);
        plan.push(Planned {
            due_s: t,
            class,
            payload,
        });
    }
}

/// Latency limit of a served request (from its due time).
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// Client-side results of one open-loop phase.
#[derive(Default)]
pub struct PhaseResult {
    /// Requests due.
    pub due: u64,
    /// Requests that failed (error, non-200, wrong verdict, hash or tier).
    pub failed: u64,
    /// First few failure descriptions.
    pub notes: Vec<String>,
    /// Latency from due time, ms, per request.
    pub latency_ms: Vec<f64>,
    /// Send-to-reply time, ms, per request.
    pub service_ms: Vec<f64>,
    /// Connect time, ms, per request.
    pub connect_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Requests answered 200 with the correct verdict within the limit.
    pub ok_in_limit: u64,
    /// `X-Cache` counts: memory hit, store hit, miss, other.
    pub tiers: [u64; 4],
    /// 429 replies.
    pub rejected: u64,
    /// `X-Trace-Id` of every tenth request.
    pub sampled_traces: Vec<String>,
}

impl PhaseResult {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(message);
        }
    }
}

/// Checks one `/check` reply against the request's class and ground truth.
fn verify(reply: &Reply, planned: &Planned) -> Result<usize, String> {
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let report = json::parse(&reply.body).map_err(|e| format!("bad report: {e}"))?;
    let passive = report
        .get("passive")
        .and_then(json::Value::as_bool)
        .ok_or("report lacks a verdict")?;
    if passive != planned.payload.passive {
        return Err(format!("wrong verdict: passive={passive}"));
    }
    let hash = format!("{:016x}", planned.payload.hash);
    if reply.header("x-deck-hash") != Some(hash.as_str()) {
        return Err(format!(
            "X-Deck-Hash {:?} != {hash}",
            reply.header("x-deck-hash")
        ));
    }
    let tier = match reply.header("x-cache") {
        Some("hit") => 0,
        Some("hit-store") => 1,
        Some("miss") => 2,
        _ => 3,
    };
    let consistent = match planned.class {
        Class::Hot | Class::Reformatted => tier == 0 || tier == 1,
        Class::Fresh => tier == 2,
    };
    if !consistent {
        return Err(format!(
            "{:?} request answered from tier {:?}",
            planned.class,
            reply.header("x-cache")
        ));
    }
    Ok(tier)
}

/// A request whose reply is still arriving.
struct InFlight {
    index: usize,
    stream: TcpStream,
    due: Instant,
    sent: Instant,
    connect_s: f64,
    raw: Vec<u8>,
}

/// How often the client polls its open connections.
const POLL: Duration = Duration::from_micros(100);
/// A reply slower than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Sends `plan` open-loop from one client thread: each request goes out at
/// its due time (`due_s − offset_s` after the call) whatever is still in
/// flight, replies are collected from non-blocking sockets polled every
/// 100 µs, and each latency is timed from the due time.  Each completed
/// request is a `request` span on the calling thread's trace, when one is
/// being collected.
pub fn run_open_loop(addr: &str, plan: &[Planned], offset_s: f64) -> PhaseResult {
    let mut result = PhaseResult::default();
    let origin = Instant::now();
    let due_of = |p: &Planned| origin + Duration::from_secs_f64((p.due_s - offset_s).max(0.0));
    let mut next = 0;
    let mut flying: Vec<InFlight> = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    while next < plan.len() || !flying.is_empty() {
        while next < plan.len() && due_of(&plan[next]) <= Instant::now() {
            let planned = &plan[next];
            let due = due_of(planned);
            let sent = Instant::now();
            result.due += 1;
            result
                .lag_ms
                .push(sent.duration_since(due).as_secs_f64() * 1e3);
            match send(addr, "POST", "/check", planned.payload.text.as_bytes()).and_then(
                |(s, c)| {
                    s.set_nonblocking(true)
                        .map(|()| (s, c))
                        .map_err(|e| e.to_string())
                },
            ) {
                Ok((stream, connect_s)) => flying.push(InFlight {
                    index: next,
                    stream,
                    due,
                    sent,
                    connect_s,
                    raw: Vec::new(),
                }),
                Err(message) => {
                    result
                        .latency_ms
                        .push(sent.duration_since(due).as_secs_f64() * 1e3);
                    result.fail(message);
                }
            }
            next += 1;
        }
        let mut i = 0;
        while i < flying.len() {
            let outcome = match flying[i].stream.read(&mut buf) {
                Ok(0) => Some(Ok(())),
                Ok(n) => {
                    flying[i].raw.extend_from_slice(&buf[..n]);
                    None
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => (flying[i].sent.elapsed()
                    > REPLY_TIMEOUT)
                    .then(|| Err("reply timed out".to_string())),
                Err(e) => Some(Err(e.to_string())),
            };
            match outcome {
                None => i += 1,
                Some(done) => {
                    let f = flying.swap_remove(i);
                    let reply = done.and_then(|()| parse_reply(f.raw, f.connect_s));
                    result.complete(&plan[f.index], f.index, f.due, f.sent, reply);
                }
            }
        }
        // Sleep until the next request is due, or one poll interval while
        // replies are outstanding.
        let now = Instant::now();
        let next_due = plan.get(next).map(due_of);
        let wake = match (flying.is_empty(), next_due) {
            (true, Some(due)) => due,
            (true, None) => now,
            (false, Some(due)) => due.min(now + POLL),
            (false, None) => now + POLL,
        };
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    result
}

impl PhaseResult {
    /// Appends another phase's requests to this one.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.due += other.due;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
        self.latency_ms.extend(other.latency_ms);
        self.service_ms.extend(other.service_ms);
        self.connect_ms.extend(other.connect_ms);
        self.lag_ms.extend(other.lag_ms);
        self.ok_in_limit += other.ok_in_limit;
        for (mine, theirs) in self.tiers.iter_mut().zip(other.tiers) {
            *mine += theirs;
        }
        self.rejected += other.rejected;
        self.sampled_traces.extend(other.sampled_traces);
    }

    fn complete(
        &mut self,
        planned: &Planned,
        index: usize,
        due: Instant,
        sent: Instant,
        reply: Result<Reply, String>,
    ) {
        let done = Instant::now();
        let latency_ms = done.duration_since(due).as_secs_f64() * 1e3;
        self.latency_ms.push(latency_ms);
        self.service_ms
            .push(done.duration_since(sent).as_secs_f64() * 1e3);
        ds_obs::trace::emit_ns("request", done.duration_since(sent).as_nanos() as u64);
        let reply = match reply {
            Ok(reply) => reply,
            Err(message) => return self.fail(message),
        };
        self.connect_ms.push(reply.connect_s * 1e3);
        if reply.status == 429 {
            self.rejected += 1;
        }
        match verify(&reply, planned) {
            Ok(tier) => {
                self.tiers[tier] += 1;
                if latency_ms <= LATENCY_LIMIT_MS {
                    self.ok_in_limit += 1;
                }
                if index.is_multiple_of(10) {
                    if let Some(id) = reply.header("x-trace-id") {
                        self.sampled_traces.push(id.to_string());
                    }
                }
            }
            Err(message) => self.fail(message),
        }
    }
}

/// Server-side figures read from `/stats` and `/metrics`.
pub struct ServerView {
    /// `/stats` `check_latency_ms.p50`.
    pub check_p50_ms: f64,
    /// Median queue wait from the `ds_serve_queue_wait_seconds` histogram
    /// (upper edge of the bucket holding the median), ms.
    pub queue_wait_p50_ms: f64,
    /// `/stats` `rejected`.
    pub rejected: f64,
}

/// Reads `/stats` and `/metrics`.
pub fn server_view(addr: &str) -> Result<ServerView, String> {
    let stats = request(addr, "GET", "/stats", b"")?;
    let stats = json::parse(&stats.body).map_err(|e| format!("/stats: {e}"))?;
    let check_p50_ms = stats
        .get("check_latency_ms")
        .and_then(|l| l.get("p50"))
        .and_then(json::Value::as_f64)
        .ok_or("/stats lacks check_latency_ms.p50")?;
    let rejected = stats
        .get("rejected")
        .and_then(json::Value::as_f64)
        .ok_or("/stats lacks rejected")?;
    let metrics = request(addr, "GET", "/metrics", b"")?.body;
    let buckets: Vec<(f64, f64)> = metrics
        .lines()
        .filter(|l| l.starts_with("ds_serve_queue_wait_seconds_bucket{"))
        .filter_map(|l| {
            let le = l.split("le=\"").nth(1)?.split('"').next()?;
            let count = l.rsplit(' ').next()?.parse().ok()?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    let queue_wait_p50_ms = buckets
        .iter()
        .find(|(_, count)| total > 0.0 && *count >= total / 2.0)
        .map_or(0.0, |(le, _)| le * 1e3);
    Ok(ServerView {
        check_p50_ms,
        queue_wait_p50_ms,
        rejected,
    })
}

/// Requests per window of the p99: five lie beyond each window's p99, and
/// a run's figure rests on at least two windows' worth of requests.
const P99_WINDOW: usize = 500;

/// Summary statistics of a phase, as the report needs them.
pub struct PhaseSummary {
    /// Median latency from due time, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency from due time, ms: the median over windows
    /// of [`P99_WINDOW`] consecutive requests (a short host stall then
    /// spoils one window, not the figure); the last, partial window joins
    /// the one before it.
    pub p99_ms: f64,
    /// Share of due requests answered correctly within the limit.
    pub ok_share: f64,
}

impl PhaseResult {
    /// Median, p99 and ok share.
    pub fn summary(&self) -> PhaseSummary {
        let windows = (self.latency_ms.len() / P99_WINDOW).max(1);
        let p99s: Vec<f64> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    self.latency_ms.len()
                } else {
                    (w + 1) * P99_WINDOW
                };
                quantile(&self.latency_ms[w * P99_WINDOW..end], 0.99)
            })
            .collect();
        PhaseSummary {
            p50_ms: median(&self.latency_ms),
            p99_ms: median(&p99s),
            ok_share: self.ok_in_limit as f64 / self.due.max(1) as f64,
        }
    }
}
