//! The program under test as a child process: `dashbench serve` builds
//! the stack a deployment would and serves it on loopback until its
//! stdin closes; [`Server`] is the parent's handle, which reads the
//! child's CPU time and memory from `/proc` and never leaves it behind.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash_core::{IngestSource, ShardedEngine};
use dash_net::{NetConfig, NetServer};
use dash_serve::{DashServer, ServeConfig};

use crate::affinity;
use crate::corpus::{self, Corpus};
use crate::rng::fold;

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, which the
/// Linux ABI fixes at 100 a second.
const TICKS_PER_SECOND: f64 = 100.0;
/// A child that has not exited this long after its stdin closed is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// `dashbench serve --seed <n> [--cpu <c>]`: pinned to CPU `c`, corpus → 2-shard engine → serving
/// stack → HTTP front-end on `127.0.0.1:0`, library defaults
/// throughout. Prints `ready <port> <corpus fingerprint> <fragments>`
/// and serves until stdin reaches end of file.
pub fn serve(seed: u64, cpu: Option<usize>) -> io::Result<()> {
    // Before any thread exists and before the engine probes the
    // machine's parallelism: everything the server starts stays here.
    if cpu.is_some_and(|cpu| !affinity::pin(cpu)) {
        return Err(io::Error::other("the serving child could not be pinned"));
    }
    let corpus = Corpus::new(seed);
    let (app, db) = corpus::application();
    // The fingerprint is folded batch by batch as the builder consumes
    // them, so the child never holds the whole corpus.
    let mut fingerprint = None;
    let batches = corpus.shard_batches().inspect(|batch| {
        let part = corpus::fingerprint(batch);
        fingerprint = Some(fingerprint.map_or(part, |seen| fold(seen, part)));
    });
    let engine = ShardedEngine::builder(app)
        .source(IngestSource::Batches(Box::new(batches)))
        .build()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let fragments = engine.fragment_count();
    let server = Arc::new(DashServer::from_engine(engine, ServeConfig::default()));
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let net = NetServer::serve_primary(server, db, listener, NetConfig::default())?;
    println!(
        "ready {} {:016x} {fragments}",
        net.addr().port(),
        fingerprint.unwrap_or(0)
    );
    io::stdout().flush()?;
    io::stdin().read_to_end(&mut Vec::new())?;
    drop(net);
    Ok(())
}

/// A running `dashbench serve` child.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Closing it is how the child is told to exit.
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub fingerprint: u64,
    pub fragments: usize,
}

impl Server {
    /// Spawns the child, pinned to `cpu` if given, and waits for its
    /// `ready` line.
    pub fn spawn(seed: u64, cpu: Option<usize>) -> io::Result<Server> {
        let mut command = Command::new(std::env::current_exe()?);
        command.args(["serve", "--seed", &seed.to_string()]);
        if let Some(cpu) = cpu {
            command.args(["--cpu", &cpu.to_string()]);
        }
        let mut child = command
            // The deployment under test is fixed; the caller's
            // environment must not resize it.
            .env_remove("DASH_SHARDS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the handle owns the child: an early return
        // below drops it, which kills and reaps.
        let mut server = Server {
            child,
            stdin,
            addr: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            fingerprint: 0,
            fragments: 0,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            ["ready", port, fingerprint, fragments] => port
                .parse::<u16>()
                .ok()
                .zip(u64::from_str_radix(fingerprint, 16).ok())
                .zip(fragments.parse::<usize>().ok()),
            _ => None,
        };
        let Some(((port, fingerprint), fragments)) = parsed else {
            return Err(io::Error::other(format!(
                "the serving child said {line:?}, not ready"
            )));
        };
        server.addr.set_port(port);
        server.fingerprint = fingerprint;
        server.fragments = fragments;
        Ok(server)
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// CPU seconds (user + system, every thread) the child has used.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, so 12th and 13th here.
        let ticks = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace())
            .and_then(|mut fields| {
                let utime: u64 = fields.nth(11)?.parse().ok()?;
                let stime: u64 = fields.next()?.parse().ok()?;
                Some(utime + stime)
            })
            .ok_or_else(|| io::Error::other("unreadable /proc stat"))?;
        Ok(ticks as f64 / TICKS_PER_SECOND)
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        self.proc_file("status")?
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Whether the child is still running.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Server {
    /// Runs on every path out of the parent — a finished round, a
    /// failed check, a panic: close stdin, give the child a moment to
    /// leave, kill it if it has not, and wait until it has ended.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + EXIT_GRACE;
        while Instant::now() < deadline {
            if !matches!(self.child.try_wait(), Ok(None)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
