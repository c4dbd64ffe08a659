//! `serve`: closed-loop `vhdld` sessions over loopback.
//!
//! The server runs in this process (one worker, one acceptor) with a
//! seeded project compiled into its base library. One client connection
//! at a time runs a session: connect, `analyze` the project (a seeded
//! share of sessions edits one architecture first), `elaborate` the
//! configuration, `run` a slice, `inspect` signals (checked against the
//! model), `checkpoint`, `restore`, `inspect` again, close.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ag_harness::rng::Rng;
use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;
use vhdl_server::json::{obj, Json};
use vhdl_server::proto::{read_frame, write_frame, FrameRead};
use vhdl_server::{Server, ServerConfig};
use vhdl_vif::Library;

use crate::gen::{self, Project};
use crate::layer::Counts;
use crate::trace::{self, span};
use crate::{compare_values, metric, Opts, Report, Stamp};

/// Rising clock edges each session simulates.
const EDGES: u64 = 20;
/// One session in this many edits an architecture before analyzing.
const EDIT_ONE_IN: u64 = 4;
/// Signals inspected per session.
const INSPECTS: usize = 6;
/// Set-up repetitions on each side of the timed phase.
const SETUP_REPS: usize = 10;
const WINDOW: u64 = 20;

struct Client {
    reader: TcpStream,
    writer: TcpStream,
    id: u64,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: s.try_clone()?,
            writer: s,
            id: 0,
        })
    }

    /// One round trip; `Err` on I/O failure or a non-`ok` reply.
    fn req(&mut self, op: &str, fields: Vec<(&str, Json)>) -> Result<Json, String> {
        self.id += 1;
        let mut all = vec![
            ("id".to_string(), Json::u64(self.id)),
            ("op".to_string(), Json::str(op)),
        ];
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        write_frame(&mut self.writer, &Json::Obj(all).to_text())
            .map_err(|e| format!("{op}: send: {e}"))?;
        let resp = match read_frame(&mut self.reader).map_err(|e| format!("{op}: recv: {e}"))? {
            FrameRead::Frame(t) => {
                vhdl_server::json::parse(&t).map_err(|e| format!("{op}: bad reply: {e}"))?
            }
            _ => return Err(format!("{op}: connection closed")),
        };
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{op}: {}", resp.to_text()));
        }
        Ok(resp)
    }
}

fn analyze_fields(files: &[(String, String)]) -> Vec<(&'static str, Json)> {
    vec![(
        "files",
        Json::Arr(
            files
                .iter()
                .map(|(n, t)| {
                    obj([
                        ("name", Json::str(n.clone())),
                        ("text", Json::str(t.clone())),
                    ])
                })
                .collect(),
        ),
    )]
}

struct Running {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Compiles the base library and starts a server, up to the first
/// `ping` reply.
fn start(project: &Project) -> Result<Running, String> {
    let base = if trace::enabled() {
        crate::front::compiler(Library::in_memory("work"))
    } else {
        Compiler::in_memory()
    };
    let files = project.files();
    let res = {
        let _s = span("driver.batch");
        base.compile_batch(
            &files,
            BatchOptions {
                jobs: 1,
                incremental: true,
            },
        )
    };
    if !res.ok() {
        let names: Vec<String> = files.iter().map(|f| f.0.clone()).collect();
        return Err(format!("base library: {}", res.rendered_msgs(&names)));
    }
    let snap = base.libs.work().snapshot();
    let _s = span("server.start");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let cfg = ServerConfig {
        max_clients: 8,
        jobs: 1,
        quiet: true,
        workers: 1,
        acceptors: 1,
        ..ServerConfig::default()
    };
    let server = Server::new(cfg, Some(snap));
    let thread = std::thread::spawn(move || server.serve(listener));
    let running = Running { addr, thread };
    let mut c = Client::connect(&running.addr).map_err(|e| e.to_string())?;
    c.req("ping", vec![])?;
    Ok(running)
}

/// Drains the server and waits for its threads.
fn stop(running: Running) -> Vec<String> {
    let mut errs = Vec::new();
    match Client::connect(&running.addr) {
        Ok(mut c) => {
            if let Err(e) = c.req("shutdown", vec![]) {
                errs.push(e);
            }
            // Wait for the server to close the connection.
            let mut buf = [0u8; 64];
            while matches!(c.reader.read(&mut buf), Ok(n) if n > 0) {}
            let _ = c.writer.flush();
        }
        Err(e) => errs.push(format!("shutdown connect: {e}")),
    }
    match running.thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => errs.push(format!("server: {e}")),
        Err(_) => errs.push("server thread panicked".to_string()),
    }
    errs
}

fn value_of(reply: &Json) -> Option<i64> {
    reply.get("result")?.get("value")?.as_str()?.parse().ok()
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report {
        rate_name: "serve_req_per_s",
        rate_unit: "req",
        op_name: "session_open",
        ..Report::default()
    };
    let mut counts = Counts::default();
    let base = Project::generate(gen::sub_seed(o.seed, 0), gen::SERVE);

    let mut running = None;
    for rep in 0..SETUP_REPS {
        trace::set_recording(rep + 1 == SETUP_REPS);
        let t0 = Stamp::now();
        let started = start(&base);
        r.setup_done(t0);
        match started {
            Ok(s) if rep + 1 == SETUP_REPS => running = Some(s),
            Ok(s) => {
                let errs = stop(s);
                if !errs.is_empty() {
                    r.ops.record(errs);
                }
            }
            Err(e) => {
                r.ops.record(vec![e]);
                return r;
            }
        }
    }
    trace::set_recording(true);
    let running = running.expect("server started");
    let addr = running.addr.clone();

    let mut rng = Rng::new(gen::sub_seed(o.seed ^ 0x5E55, 0));
    let mut req_us: Vec<f64> = Vec::new();
    let mut requests = 0u64;
    // Time the traced run's pings took from the timed phase, (wall, CPU)
    // seconds.
    let mut probe = (0.0, 0.0);
    let mut self_tested = false;
    let traced = trace::enabled();
    let phase = crate::timed_loop(o.seconds, WINDOW, |op| {
        let mut project = base.clone();
        if rng.u64_in(1, EDIT_ONE_IN) == 1 {
            project.edit(&mut rng, 0);
        }
        let picks: Vec<usize> = (0..INSPECTS)
            .map(|_| rng.u64_in(0, project.cells.len() as u64 + 1) as usize)
            .collect();
        let expected_all = project.expect(EDGES);
        // Indices past the cell outputs pick the bus and the first shift
        // stage.
        let expected: Vec<(String, i64)> = picks
            .iter()
            .map(|&i| expected_all[i.min(expected_all.len() - 1)].clone())
            .collect();
        let files = project.files();
        let vifb0 = vhdl_vif::vifb_stats();
        let _op = span("op");
        let mut errs = Vec::new();
        // Raw connect → first `analyze` reply, and (traced) the later
        // ping's round trip, which the opening ping also paid; (wall, CPU)
        // seconds.
        let mut open = None;
        let mut floor = (0.0, 0.0);
        let mut session = || -> Result<(), String> {
            let t0 = Stamp::now();
            let mut c = {
                let _s = span("server.connect");
                Client::connect(&addr).map_err(|e| format!("connect: {e}"))?
            };
            // One request with its latency, µs. Pings are instruments of
            // the traced run: they are not counted as requests.
            let mut timed = |c: &mut Client,
                             name: &'static str,
                             op: &str,
                             fields: Vec<(&str, Json)>|
             -> Result<(Json, f64), String> {
                let t = Instant::now();
                let reply = {
                    let _s = span(name);
                    c.req(op, fields)
                };
                let us = t.elapsed().as_secs_f64() * 1e6;
                if traced {
                    counts.server_us.entry(name_of(name)).or_default().push(us);
                }
                if op != "ping" {
                    requests += 1;
                }
                // Every request after the session's first analyze reply.
                if op != "analyze" && op != "ping" {
                    req_us.push(us);
                }
                reply.map(|j| (j, us))
            };
            if traced {
                // Isolates connect and session creation from analysis.
                timed(&mut c, "server.ping_open", "ping", vec![])?;
            }
            timed(&mut c, "server.analyze", "analyze", analyze_fields(&files))?;
            open = Some(t0.elapsed());
            timed(
                &mut c,
                "server.elaborate",
                "elaborate",
                vec![("config", Json::str("cfg_tb"))],
            )?;
            let until = format!("{} fs", gen::time_after_edges(EDGES));
            timed(
                &mut c,
                "server.run",
                "run",
                vec![("until", Json::str(until))],
            )?;
            let mut got = Vec::new();
            for (name, _) in &expected {
                let (reply, _) = timed(
                    &mut c,
                    "server.inspect",
                    "inspect",
                    vec![("path", Json::str(format!(":tb:{name}")))],
                )?;
                got.push((name.clone(), value_of(&reply)));
            }
            let lookup = |n: &str| got.iter().find(|(g, _)| g == n).and_then(|(_, v)| *v);
            let _s = span("check");
            errs.extend(compare_values("inspect", &expected, lookup));
            if !self_tested {
                errs.extend(crate::checker_self_test(&expected, lookup));
                self_tested = true;
            }
            drop(_s);
            let (cp, _) = timed(&mut c, "server.checkpoint", "checkpoint", vec![])?;
            let blob = cp
                .get("result")
                .and_then(|v| v.get("snapshot"))
                .and_then(Json::as_str)
                .ok_or("checkpoint: no snapshot in reply")?
                .to_string();
            timed(
                &mut c,
                "server.restore",
                "restore",
                vec![("snapshot", Json::str(blob))],
            )?;
            let (name, want) = &expected[0];
            let (reply, _) = timed(
                &mut c,
                "server.inspect",
                "inspect",
                vec![("path", Json::str(format!(":tb:{name}")))],
            )?;
            if value_of(&reply) != Some(*want) {
                errs.push(format!(
                    "inspect after restore: {name} = {:?}, model says {want}",
                    value_of(&reply)
                ));
            }
            if traced {
                // The framing/routing floor of an open session.
                let t = Stamp::now();
                timed(&mut c, "server.ping", "ping", vec![])?;
                floor = t.elapsed();
            }
            Ok(())
        };
        if let Err(e) = session() {
            errs.push(e);
        }
        drop(_op);
        if let Some((wall, cpu)) = open {
            // The opening ping's round trip is the tracer's, not the
            // user's; both pings leave the time the rate is taken over.
            let (wall, cpu) = (wall - floor.0, cpu - floor.1);
            r.op_done((wall, cpu));
            probe = (probe.0 + 2.0 * floor.0, probe.1 + 2.0 * floor.1);
            if traced {
                counts.session_open_ms.push(wall * 1e3);
            }
        }
        if traced && op < WINDOW {
            counts.add_vifb(vifb0);
        }
        r.ops.record(errs);
    });
    r.phase_done((phase.0 - probe.0, phase.1 - probe.1), requests as f64);
    (r.phase_s, r.phase_cpu_s) = phase;
    let errs = stop(running);
    if !errs.is_empty() {
        r.ops.record(errs);
    }
    trace::set_recording(false);
    for _ in 0..SETUP_REPS {
        let t0 = Stamp::now();
        let started = start(&base);
        r.setup_done(t0);
        let errs = match started {
            Ok(s) => stop(s),
            Err(e) => vec![e],
        };
        if !errs.is_empty() {
            r.ops.record(errs);
        }
    }
    trace::set_recording(true);
    let n = req_us.len();
    r.extra
        .push(metric("req_p50_us", crate::quantile(&req_us, 0.5), "us"));
    r.extra
        .push(metric("req_p99_us", crate::quantile(&req_us, 0.99), "us"));
    r.extra.push(metric("req_samples", n as f64, "count"));
    r.extra.push(metric(
        "req_p99_has_10_beyond",
        f64::from(u8::from(crate::tail_ok(n, 0.99))),
        "bool",
    ));
    r.extra.push(metric("client_connections", 1.0, "count"));
    if traced {
        crate::finish_traced(&mut r, &counts, WINDOW);
    }
    r
}

/// Per-op latency key: the op name without the `server.` prefix.
fn name_of(span: &'static str) -> &'static str {
    span.strip_prefix("server.").unwrap_or(span)
}
