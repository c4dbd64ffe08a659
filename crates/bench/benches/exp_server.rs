//! E12 — `vhdld` server throughput and latency.
//!
//! The paper's pipeline runs batch; `vhdld` keeps it resident behind a
//! framed-JSON session protocol (DESIGN.md §10). This experiment drives a
//! real server over loopback TCP and records, per request type:
//!
//! - **requests/sec** measured at the client (send → response received);
//! - **p50/p95/p99 round-trip latency** in microseconds;
//! - aggregate throughput with 4 concurrent sessions hammering `ping`
//!   (the protocol floor) and `inspect` (a Name Server resolution against
//!   a live simulation);
//! - a **120-client soak** against the pooled serving core (fixed worker
//!   threads, explicit overload bounds), reporting aggregate tail
//!   latency;
//! - **checkpoint/restore round trips** of the session runtime — the
//!   fleet operation that migrates a running simulation;
//! - **session open**: TCP connect → first `analyze` reply of a fresh
//!   session, p50/p99 — library fork plus analyzer construction.
//!
//! The server runs with a pre-compiled base library, so the measured
//! `analyze` is the warm, all-cache-hits path a long-lived session sees.
//!
//! Results land in `results/exp_server.json`.

use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use ag_harness::bench::Runner;
use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;
use vhdl_server::json::{obj, Json};
use vhdl_server::proto::{read_frame, write_frame, FrameRead};
use vhdl_server::{Server, ServerConfig};

struct Client {
    reader: TcpStream,
    writer: TcpStream,
    id: u64,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).expect("nodelay");
        Client {
            reader: s.try_clone().expect("clone"),
            writer: s,
            id: 0,
        }
    }

    /// One request round trip; panics on an error response (the bench
    /// must only measure successful paths).
    fn req(&mut self, op: &str, fields: Vec<(&str, Json)>) -> Json {
        self.id += 1;
        let mut all = vec![
            ("id".to_string(), Json::u64(self.id)),
            ("op".to_string(), Json::str(op)),
        ];
        for (k, v) in fields {
            all.push((k.to_string(), v));
        }
        write_frame(&mut self.writer, &Json::Obj(all).to_text()).expect("send");
        let resp = match read_frame(&mut self.reader).expect("recv") {
            FrameRead::Frame(t) => vhdl_server::json::parse(&t).expect("parse"),
            _ => panic!("connection closed mid-bench"),
        };
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{op}: {}",
            resp.to_text()
        );
        resp
    }
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    sorted_us[((sorted_us.len() - 1) as f64 * q).round() as usize]
}

/// Drives `n` round trips of one op, returning
/// `(req/s, p50 µs, p95 µs, p99 µs)`.
fn drive(
    c: &mut Client,
    op: &str,
    fields: impl Fn() -> Vec<(&'static str, Json)>,
    n: usize,
) -> (f64, u64, u64, u64) {
    let mut lat = Vec::with_capacity(n);
    let t0 = Instant::now();
    for _ in 0..n {
        let t = Instant::now();
        c.req(op, fields());
        lat.push(t.elapsed().as_micros() as u64);
    }
    let total = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    (
        n as f64 / total,
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
    )
}

fn main() {
    println!("# E12 — vhdld session server: throughput and latency");
    println!();
    let mut r = Runner::new("exp_server")
        .iters(1)
        .out_dir(ag_bench::workspace_root().join("results"));

    // Base library: the 10-unit full-adder design, compiled with stamps
    // so forked sessions start warm.
    let design_path = ag_bench::workspace_root().join("examples/full_adder.vhd");
    let design = std::fs::read_to_string(&design_path).expect("examples/full_adder.vhd");
    let base = Compiler::in_memory();
    let compiled = base.compile_batch(
        &[("full_adder.vhd".to_string(), design.clone())],
        BatchOptions {
            jobs: 1,
            incremental: true,
        },
    );
    assert!(compiled.ok(), "base design must compile");
    let snap = base.libs.work().snapshot();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let cfg = ServerConfig {
        max_clients: 128,
        jobs: 2,
        quiet: true,
        ..ServerConfig::default()
    };
    let server = Server::new(cfg, Some(snap));
    let serve = std::thread::spawn(move || server.serve(listener));

    let analyze_fields = {
        let design = design.clone();
        move || {
            vec![(
                "files",
                Json::Arr(vec![obj([
                    ("name", Json::str("full_adder.vhd")),
                    ("text", Json::str(design.clone())),
                ])]),
            )]
        }
    };

    // One session: warm analyze, then a live simulation to inspect.
    let mut c = Client::connect(&addr);
    let warm = c.req("analyze", analyze_fields());
    let result = warm.get("result").expect("result");
    assert_eq!(
        result.get("analyzed").and_then(Json::as_u64),
        Some(0),
        "the measured analyze must be the all-hits warm path"
    );
    c.req("elaborate", vec![("entity", Json::str("tb"))]);
    c.req("run", vec![("until", Json::str("40ns"))]);

    for (op, n) in [
        ("ping", 2000usize),
        ("analyze", 200),
        ("inspect", 2000),
        ("stats", 500),
    ] {
        let (rps, p50, p95, p99) = match op {
            "analyze" => drive(&mut c, op, &analyze_fields, n),
            "inspect" => drive(&mut c, op, || vec![("path", Json::str(":tb:dut:ab"))], n),
            _ => drive(&mut c, op, Vec::new, n),
        };
        r.metric(format!("{op}/req_per_sec"), rps, "req/s");
        r.metric(format!("{op}/p50_us"), p50 as f64, "us");
        r.metric(format!("{op}/p95_us"), p95 as f64, "us");
        r.metric(format!("{op}/p99_us"), p99 as f64, "us");
        println!(
            "{op:<8} n={n:<5} {rps:>9.0} req/s   p50 {p50:>5} µs   p95 {p95:>5} µs   p99 {p99:>5} µs"
        );
    }

    // Session open: each fresh connection forks the base library and
    // builds its analyzer before its first (all-hits) analyze replies.
    const OPENS: usize = 200;
    let mut lat = Vec::with_capacity(OPENS);
    for _ in 0..OPENS {
        let t = Instant::now();
        let mut s = Client::connect(&addr);
        s.req("analyze", analyze_fields());
        lat.push(t.elapsed().as_micros() as u64);
    }
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    r.metric("session_open/p50_us", p50 as f64, "us");
    r.metric("session_open/p99_us", p99 as f64, "us");
    println!("session_open n={OPENS:<4} connect → first analyze reply   p50 {p50:>5} µs   p99 {p99:>5} µs");

    // Session runtime checkpoint/restore round trips: `checkpoint`
    // serializes the live simulation (kernel state + VCD + probes) into
    // one sealed blob; `restore` re-elaborates and re-attaches it.
    c.req("trace", vec![("glob", Json::str("*"))]);
    let cp = c.req("checkpoint", vec![]);
    let snap = cp
        .get("result")
        .and_then(|v| v.get("snapshot"))
        .and_then(Json::as_str)
        .expect("checkpoint snapshot")
        .to_string();
    let snap_bytes = cp
        .get("result")
        .and_then(|v| v.get("bytes"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    r.metric("checkpoint/snapshot_bytes", snap_bytes as f64, "B");
    for (op, n) in [("checkpoint", 300usize), ("restore", 300)] {
        let (rps, p50, p95, p99) = match op {
            "restore" => drive(
                &mut c,
                op,
                || vec![("snapshot", Json::str(snap.clone()))],
                n,
            ),
            _ => drive(&mut c, op, Vec::new, n),
        };
        r.metric(format!("{op}/req_per_sec"), rps, "req/s");
        r.metric(format!("{op}/p50_us"), p50 as f64, "us");
        r.metric(format!("{op}/p95_us"), p95 as f64, "us");
        r.metric(format!("{op}/p99_us"), p99 as f64, "us");
        println!(
            "{op:<10} n={n:<4} {rps:>9.0} req/s   p50 {p50:>5} µs   p95 {p95:>5} µs   p99 {p99:>5} µs  ({snap_bytes} B blob)"
        );
    }

    // Aggregate throughput: 4 concurrent sessions, each with its own
    // elaborated simulation, alternating ping and inspect.
    const CONC_CLIENTS: usize = 4;
    const CONC_REQS: usize = 1000;
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CONC_CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr);
                c.req("elaborate", vec![("entity", Json::str("tb"))]);
                c.req("run", vec![("until", Json::str("40ns"))]);
                for i in 0..CONC_REQS {
                    if i % 2 == 0 {
                        c.req("ping", vec![]);
                    } else {
                        c.req("inspect", vec![("path", Json::str(":tb:sum"))]);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("bench client");
    }
    let total = t0.elapsed().as_secs_f64();
    let agg = (CONC_CLIENTS * CONC_REQS) as f64 / total;
    r.metric("concurrent4/req_per_sec", agg, "req/s");
    println!("concurrent: {CONC_CLIENTS} sessions x {CONC_REQS} reqs  {agg:>9.0} req/s aggregate");

    // Soak: 120 concurrent sessions (inside the 128-client bound) pinned
    // across the fixed worker pool, each pinging in a tight loop. The
    // interesting number is the tail — a sweep stalled behind a slow
    // shard-mate shows up at p99. One untimed warm-up ping per client
    // plus a start barrier keeps session setup (120 library forks) out
    // of the steady-state series.
    const SOAK_CLIENTS: usize = 120;
    const SOAK_REQS: usize = 50;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(SOAK_CLIENTS + 1));
    let threads: Vec<_> = (0..SOAK_CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr);
                c.req("ping", vec![]);
                barrier.wait();
                let mut lat = Vec::with_capacity(SOAK_REQS);
                for _ in 0..SOAK_REQS {
                    let t = Instant::now();
                    c.req("ping", vec![]);
                    lat.push(t.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut lat: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("soak client"))
        .collect();
    let total = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    let rps = lat.len() as f64 / total;
    let (p50, p95, p99) = (
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
    );
    r.metric("soak120/req_per_sec", rps, "req/s");
    r.metric("soak120/p50_us", p50 as f64, "us");
    r.metric("soak120/p95_us", p95 as f64, "us");
    r.metric("soak120/p99_us", p99 as f64, "us");
    println!(
        "soak: {SOAK_CLIENTS} sessions x {SOAK_REQS} reqs  {rps:>9.0} req/s   p50 {p50:>5} µs   p95 {p95:>5} µs   p99 {p99:>5} µs"
    );

    // Server-side view: the skip counter proves every measured analyze
    // was a cache hit.
    let stats = c.req("stats", vec![]);
    let skipped = stats
        .get("result")
        .and_then(|s| s.get("analyze_skipped"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    r.metric("analyze_skipped_units", skipped as f64, "units");
    c.req("shutdown", vec![]);
    serve.join().expect("serve thread").expect("serve result");

    r.finish();
}
