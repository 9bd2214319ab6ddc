//! What every workload shares: its outcome record, building stores from
//! text, serving over loopback TCP, and sending one timed request.

use crate::check::{is_ok, Checks};
use crate::host;
use crate::stats::{self, Ops};
use crate::trace::Tracer;
use ajd_relation::{read_delimited, Catalog, ReadOptions, Relation};
use ajd_server::{Client, Json, RelationStore, Request, Server, ServerConfig, ShutdownToken};
use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Thirds of the timed phase: a run makes the same number of set-up
/// builds in each.
pub const SETUP_SLICES: usize = 3;

/// Workload arguments.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
}

/// What one workload run observed.
#[derive(Debug)]
pub struct Outcome {
    pub ops: Ops,
    pub checks: Checks,
    pub tracer: Tracer,
    /// Wall time of the build that serves the timed phase (parse,
    /// server, listener, warm-up).
    pub first_setup_s: f64,
    /// Wall time of each set-up build in a process of its own, in the
    /// order they ran.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// The server's resolved admission config.
    pub admission: String,
    /// Final `stats` frame of the served relation(s).
    pub stats: Vec<Json>,
    /// Whether identical request lines must get identical frames (not
    /// across appends, which change the relation).
    pub repeatable: bool,
}

impl Outcome {
    pub fn new(tracer: Tracer) -> Self {
        Outcome {
            ops: Ops::default(),
            checks: Checks::default(),
            tracer,
            first_setup_s: 0.0,
            setup_s: Vec::new(),
            wall_s: 0.0,
            admission: String::new(),
            stats: Vec::new(),
            repeatable: true,
        }
    }

    /// Keeps the time of one set-up build, or fails the run if the build
    /// failed.
    pub fn setup_built(&mut self, build: Result<f64, String>) {
        match build {
            Ok(seconds) => self.setup_s.push(seconds),
            Err(e) => self.checks.fail(format!("set-up build failed: {e}")),
        }
    }

    pub fn throughput(&self) -> f64 {
        self.ops.completed() as f64 / self.wall_s
    }
}

/// Parses delimited text, recording the parse time and (on the first
/// build) the resident bytes per row the process holds beyond its start
/// and the text itself.
pub fn read_text(text: &str, tracer: &mut Tracer, first: bool) -> (Catalog, Relation) {
    let start = Instant::now();
    let (catalog, relation) =
        read_delimited(text, ReadOptions::default()).expect("generated text parses");
    tracer.value("io.read_delimited_s", start.elapsed().as_secs_f64());
    if first {
        let grown = host::rss_bytes() - host::rss_baseline() - text.len() as f64;
        tracer.value("store.bytes_per_row", grown / relation.len() as f64);
    }
    (catalog, relation)
}

/// Serves `server` on `listener` from a scoped thread while `f` runs, then
/// signals shutdown and joins the server (also when `f` panics).
pub fn serve<R>(server: &Server<'_>, listener: TcpListener, f: impl FnOnce(SocketAddr) -> R) -> R {
    struct Stop<'t>(&'t ShutdownToken, SocketAddr);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.signal(self.1);
        }
    }
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let token = ShutdownToken::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &token));
        let stop = Stop(&token, addr);
        let out = f(addr);
        drop(stop);
        handle.join().expect("server thread exits cleanly");
        out
    })
}

pub fn bind() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("loopback listener binds")
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("loopback client connects")
}

/// Where a request goes: over the connection, and in traced runs also
/// to a server in the same state that replays each line through
/// `Server::handle_line` to time dispatch without transport.
pub struct Link<'c, 'a, 's> {
    pub client: &'c mut Client,
    pub replay: Option<&'a Server<'s>>,
}

fn span(prefix: &str, op: &str) -> &'static str {
    match (prefix, op) {
        ("dispatch", "entropy") => "dispatch.entropy",
        ("dispatch", "j") => "dispatch.j",
        ("dispatch", "loss") => "dispatch.loss",
        ("dispatch", "analyze") => "dispatch.analyze",
        ("dispatch", "estimate") => "dispatch.estimate",
        ("dispatch", "mine") => "dispatch.mine",
        ("dispatch", "append") => "dispatch.append",
        ("tcp", "entropy") => "tcp.entropy",
        ("tcp", "j") => "tcp.j",
        ("tcp", "loss") => "tcp.loss",
        ("tcp", "analyze") => "tcp.analyze",
        ("tcp", "estimate") => "tcp.estimate",
        ("tcp", "mine") => "tcp.mine",
        ("tcp", "append") => "tcp.append",
        _ => "other",
    }
}

/// Sends one request of class `op`, timed from send to parsed reply, and
/// records it.  Returns the reply of a successful op; an error frame
/// (`busy` included) or an I/O error counts as a failure and returns
/// `None`.  In traced runs the wire layers are timed on the same line.
pub fn request(
    link: &mut Link<'_, '_, '_>,
    op: &'static str,
    line: &str,
    out: &mut Outcome,
) -> Option<Json> {
    let tracer = &mut out.tracer;
    if tracer.enabled() {
        tracer.value("wire.request_kb", line.len() as f64 / 1024.0);
        tracer
            .time("wire", "wire.decode", || {
                Json::parse(line).map(|frame| Request::parse(&frame).1.is_ok())
            })
            .expect("request lines are valid JSON");
    }
    let open = tracer.begin("transport", span("tcp", op));
    let start = Instant::now();
    let reply = link.client.request_line(line).ok();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.end(open);
    let reply = reply.filter(is_ok);
    out.ops.record(op, reply.as_ref().map(|_| ms));
    if tracer.enabled() {
        if let Some(reply) = &reply {
            let text = tracer.time("wire", "wire.encode", || reply.to_string());
            tracer.value("wire.response_kb", text.len() as f64 / 1024.0);
        }
        if let Some(server) = link.replay {
            tracer.time("server", span("dispatch", op), || server.handle_line(line));
        }
    }
    match &reply {
        Some(frame) if out.repeatable => out.checks.repeatable(line, frame),
        Some(_) => {}
        None => eprintln!("{op} failed: {line:.200}"),
    }
    reply
}

/// Sends a request that only a traced run makes, to time the layers of
/// an op its workload does not send: transport and dispatch spans only,
/// not counted among the workload's ops.  An unsuccessful reply fails the
/// run's checks.
pub fn untallied_request(
    link: &mut Link<'_, '_, '_>,
    op: &'static str,
    line: &str,
    out: &mut Outcome,
) {
    let tracer = &mut out.tracer;
    let reply = tracer.time("transport", span("tcp", op), || {
        link.client.request_line(line)
    });
    if let Some(server) = link.replay {
        tracer.time("server", span("dispatch", op), || server.handle_line(line));
    }
    match reply {
        Ok(reply) if is_ok(&reply) => {}
        other => out.checks.fail(format!("{op} failed: {other:?}")),
    }
}

/// Asks the server for its `stats` frame and keeps it for the report.
pub fn final_stats(server: &Server<'_>, out: &mut Outcome) {
    out.stats.push(server.handle_line(&crate::req::stats()));
}

/// The set-up time, in seconds: the median over the thirds of the timed
/// phase of the mean build time in each third.
///
/// Each build runs in a fresh process of its own, as a user who starts
/// the server has, and the builds are spread evenly over the timed phase.
/// The host has speed phases a few seconds long, and one build (under a
/// second) lands in one phase: build times are bimodal.  A median of the
/// builds jumps between the modes when the slow phases' share of a run
/// crosses one half, while a mean moves in proportion to that share.  The
/// median over thirds keeps one third that a longer host stall covers from
/// moving the figure.
pub fn setup_time(out: &Outcome) -> f64 {
    let per_slice = out.setup_s.len().div_ceil(SETUP_SLICES).max(1);
    let means: Vec<f64> = out.setup_s.chunks(per_slice).map(stats::mean).collect();
    stats::median(&means).unwrap_or(0.0)
}

/// A server over `stores`, a bound listener, and the server warmed with
/// `warm` lines: the part of set-up that follows building the stores.
pub fn warm_server<'s>(stores: &'s [RelationStore], warm: &[String]) -> (Server<'s>, TcpListener) {
    let server = Server::new(stores, ServerConfig::default()).expect("server builds");
    let listener = bind();
    for line in warm {
        server.handle_line(line);
    }
    (server, listener)
}

/// Times one whole set-up — `stores`, then [`warm_server`] — and drops
/// what it built.
pub fn time_setup(stores: impl FnOnce() -> Vec<RelationStore>, warm: &[String]) -> f64 {
    let start = Instant::now();
    let stores = stores();
    let built = warm_server(&stores, warm);
    let seconds = start.elapsed().as_secs_f64();
    drop(built);
    seconds
}

/// Runs one set-up of `workload` from the inputs of `seed` in a fresh
/// process (this executable with `--setup 1`) and returns its time.
pub fn child_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--setup", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("{}: {text}", out.status)),
    }
}

/// The timed phase's clock.  It stops while the benchmark does work of
/// its own (set-up builds, reference answers), and it says when the next
/// set-up build is due.
pub struct Clock {
    start: Instant,
    paused_s: f64,
    builds_due: usize,
    builds_done: usize,
}

impl Clock {
    /// Starts the clock; `builds` set-up builds will fall due, evenly
    /// spread over the phase.
    pub fn start(builds: usize) -> Self {
        Clock {
            start: Instant::now(),
            paused_s: 0.0,
            builds_due: builds,
            builds_done: 0,
        }
    }

    /// Timed seconds so far.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_s
    }

    /// Runs `f` with the clock stopped.
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.paused_s += start.elapsed().as_secs_f64();
        out
    }

    /// How many set-up builds have fallen due by `progress` (0 to 1) of
    /// the phase; counts them as done.  Build `i` falls due at
    /// `(i + ½) / builds`, in the middle of its slice of the phase.
    pub fn builds_due(&mut self, progress: f64) -> usize {
        let reached = ((progress * self.builds_due as f64 + 0.5).floor().max(0.0) as usize)
            .min(self.builds_due);
        let due = reached.saturating_sub(self.builds_done);
        self.builds_done += due;
        due
    }
}
