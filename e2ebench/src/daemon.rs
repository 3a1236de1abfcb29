//! The daemon under test as a child process, and a minimal HTTP/1.1
//! keep-alive client for it.
//!
//! The client is the benchmark's own (std only): the load generator
//! measures the daemon from outside, so it shares no framing code with it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// One request; returns the status code and the body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body);
        self.stream.write_all(&out)?;

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// `GET` expecting `200`; the body as text.
    pub fn get_ok(&mut self, path: &str) -> Result<String, String> {
        match self.request("GET", path, b"") {
            Ok((200, body)) => String::from_utf8(body).map_err(|e| e.to_string()),
            Ok((code, body)) => Err(format!(
                "GET {path}: {code} {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }
}

/// A running `scalana serve` child. Dropping it kills and reaps the
/// process, so no exit path leaves a daemon behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon with `workers` workers on an ephemeral port and
    /// wait for its first healthy response. Returns the daemon and the
    /// connection that saw it healthy.
    pub fn spawn(bin: &Path, workers: usize) -> Result<(Daemon, Conn), String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // Keep the pipe drained so daemon output can never block it.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stdout, &mut io::sink());
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: String::new(),
        };
        let addr = match read {
            Ok(_) => line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            Err(_) => None,
        };
        daemon.addr =
            addr.ok_or_else(|| format!("daemon did not announce its address: {line:?}"))?;

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut conn) = Conn::connect(&daemon.addr) {
                if let Ok(body) = conn.get_ok("/v1/healthz") {
                    if body.contains("\"ok\":true") {
                        return Ok((daemon, conn));
                    }
                }
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time of the whole process (all threads), in
    /// clock ticks, from `/proc/<pid>/stat`.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read /proc stat: {e}"))?;
        // Fields after the parenthesised command name: state is the
        // first, utime the 12th and stime the 13th.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (field(11), field(12)) {
            (Some(u), Some(s)) => Ok(u + s),
            _ => Err("malformed /proc stat".to_string()),
        }
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn hwm_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Ask the daemon to exit and reap it; kills it if it does not exit
    /// within a few seconds.
    pub fn shutdown(mut self, conn: &mut Conn) {
        let _ = conn.request("POST", "/v1/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills (if still running), reaps, and joins the drain.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this benchmark targets).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;
