//! The per-layer metrics, in one fixed list every workload reports. A
//! layer a workload does not exercise reads 0.
//!
//! Times and counts cover the recorded set-up plus a fixed window of the
//! first operations of the timed phase, so that counts repeat exactly for
//! a given seed. Client-side server latencies cover the whole traced run.

use std::collections::BTreeMap;

use sim_kernel::SimStats;

use crate::front::FrontCounts;
use crate::trace::Agg;
use crate::{metric, quantile, Metric};

/// Counters a workload collects over the window.
#[derive(Default)]
pub struct Counts {
    pub front: FrontCounts,
    /// `vifb_stats` deltas: cache hits, misses, text parses, decodes.
    pub vifb: [u64; 4],
    pub batch_units: u64,
    pub batch_skipped: u64,
    pub cfg_insns: u64,
    pub interp: SimStats,
    pub compiled: SimStats,
    /// Processes of the programs run under the compiled backend, and how
    /// many of them fell back to the interpreter.
    pub compiled_procs: u64,
    pub fallback_procs: u64,
    /// Client-side latencies by server op, µs.
    pub server_us: BTreeMap<&'static str, Vec<f64>>,
    pub session_open_ms: Vec<f64>,
}

impl Counts {
    pub fn add_vifb(&mut self, before: vhdl_vif::VifbStats) {
        let v = vhdl_vif::vifb_stats();
        self.vifb[0] += v.cache_hits - before.cache_hits;
        self.vifb[1] += v.cache_misses - before.cache_misses;
        self.vifb[2] += v.text_parses - before.text_parses;
        self.vifb[3] += v.decodes - before.decodes;
    }

    pub fn add_front(&mut self, n: &FrontCounts) {
        let f = &mut self.front;
        f.tokens += n.tokens;
        f.units += n.units;
        f.expr_evals += n.expr_evals;
        f.loads += n.loads;
        f.stores += n.stores;
        f.bytes_written += n.bytes_written;
    }
}

/// Adds the counters of `b` into `a`.
pub fn add_stats(a: &mut SimStats, b: &SimStats) {
    a.cycles += b.cycles;
    a.delta_cycles += b.delta_cycles;
    a.events += b.events;
    a.transactions += b.transactions;
    a.resumptions += b.resumptions;
    a.insns += b.insns;
    a.calendar_ops += b.calendar_ops;
    a.woken_procs += b.woken_procs;
    a.scanned_signals += b.scanned_signals;
    a.compiled_blocks += b.compiled_blocks;
}

/// `b - a`, counter by counter.
pub fn diff_stats(a: &SimStats, b: &SimStats) -> SimStats {
    SimStats {
        cycles: b.cycles - a.cycles,
        delta_cycles: b.delta_cycles - a.delta_cycles,
        events: b.events - a.events,
        transactions: b.transactions - a.transactions,
        resumptions: b.resumptions - a.resumptions,
        insns: b.insns - a.insns,
        calendar_ops: b.calendar_ops - a.calendar_ops,
        woken_procs: b.woken_procs - a.woken_procs,
        scanned_signals: b.scanned_signals - a.scanned_signals,
        compiled_blocks: b.compiled_blocks - a.compiled_blocks,
        fallback_procs: b.fallback_procs,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Builds the per-layer list from span aggregates and counts.
pub fn metrics(agg: &BTreeMap<&'static str, Agg>, c: &Counts) -> Vec<Metric> {
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let ms = |n: &str| get(n).incl_ns as f64 / 1e6;
    let self_ms = |n: &str| get(n).self_ns as f64 / 1e6;
    let s = |n: &str| get(n).incl_ns as f64 / 1e9;
    let f = &c.front;
    let hits = c.vifb[0] as f64;
    let lookups = (c.vifb[0] + c.vifb[1]) as f64;
    let p50 = |op: &str| quantile(c.server_us.get(op).map_or(&[][..], |v| &v[..]), 0.5);
    let reqs: Vec<f64> = c
        .server_us
        .iter()
        .filter(|(op, _)| !matches!(**op, "ping" | "ping_open" | "analyze"))
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let mut out = vec![
        metric("lalr.table_build_ms", ms("lalr.table_build"), "ms"),
        metric("sem.analyzer_new_ms", ms("sem.analyzer_new"), "ms"),
        metric("syntax.lex_ms", ms("syntax.lex"), "ms"),
        metric("syntax.tokens", f.tokens as f64, "count"),
        metric("lalr.parse_ms", ms("lalr.parse"), "ms"),
        metric(
            "lalr.tokens_per_s",
            ratio(f.tokens as f64, s("lalr.parse")),
            "tokens/s",
        ),
        metric("sem.analyze_self_ms", self_ms("sem.analyze"), "ms"),
        metric("sem.units_analyzed", f.units as f64, "count"),
        metric("sem.expr_evals", f.expr_evals as f64, "count"),
        metric(
            "sem.analyze_allocs",
            get("sem.analyze").self_allocs as f64,
            "count",
        ),
        metric(
            "sem.analyze_alloc_bytes",
            get("sem.analyze").self_bytes as f64,
            "B",
        ),
        metric("vif.load_ms", ms("vif.load"), "ms"),
        metric("vif.loads", f.loads as f64, "count"),
        metric("vif.load_allocs", get("vif.load").allocs as f64, "count"),
        metric("vif.load_alloc_bytes", get("vif.load").bytes as f64, "B"),
        metric("vif.store_ms", ms("vif.store"), "ms"),
        metric("vif.stores", f.stores as f64, "count"),
        metric("vif.bytes_written", f.bytes_written as f64, "B"),
        metric("vif.store_allocs", get("vif.store").allocs as f64, "count"),
        metric("vif.store_alloc_bytes", get("vif.store").bytes as f64, "B"),
        metric("vif.cache_hit_ratio", ratio(hits, lookups), "ratio"),
        metric("vif.text_parses", c.vifb[2] as f64, "count"),
        metric("vif.decodes", c.vifb[3] as f64, "count"),
        metric("driver.open_ms", ms("driver.open"), "ms"),
        metric("driver.batch_ms", ms("driver.batch"), "ms"),
        metric(
            "driver.skip_ratio",
            ratio(c.batch_skipped as f64, c.batch_units as f64),
            "ratio",
        ),
        metric(
            "driver.units_reanalyzed",
            (c.batch_units - c.batch_skipped) as f64,
            "count",
        ),
        metric("codegen.elaborate_ms", ms("codegen.elaborate"), "ms"),
        metric("codegen.emit_c_ms", ms("codegen.emit_c"), "ms"),
        metric("codegen.cfg_insns", c.cfg_insns as f64, "count"),
        metric("kernel.sim_new_ms", ms("kernel.sim_new"), "ms"),
        metric("kernel.run_interp_s", s("kernel.run_interp"), "s"),
        metric("kernel.run_compiled_s", s("kernel.run_compiled"), "s"),
        metric(
            "kernel.insns_per_s_interp",
            ratio(c.interp.insns as f64, s("kernel.run_interp")),
            "insns/s",
        ),
        metric(
            "kernel.insns_per_s_compiled",
            ratio(c.compiled.insns as f64, s("kernel.run_compiled")),
            "insns/s",
        ),
        metric(
            "kernel.run_interp_allocs",
            get("kernel.run_interp").allocs as f64,
            "count",
        ),
        metric(
            "kernel.run_interp_alloc_bytes",
            get("kernel.run_interp").bytes as f64,
            "B",
        ),
        metric(
            "kernel.run_compiled_allocs",
            get("kernel.run_compiled").allocs as f64,
            "count",
        ),
        metric(
            "kernel.run_compiled_alloc_bytes",
            get("kernel.run_compiled").bytes as f64,
            "B",
        ),
    ];
    let mut k = c.interp;
    add_stats(&mut k, &c.compiled);
    out.extend([
        metric("kernel.insns", k.insns as f64, "count"),
        metric("kernel.cycles", k.cycles as f64, "count"),
        metric("kernel.delta_cycles", k.delta_cycles as f64, "count"),
        metric("kernel.events", k.events as f64, "count"),
        metric("kernel.calendar_ops", k.calendar_ops as f64, "count"),
        metric("kernel.woken_procs", k.woken_procs as f64, "count"),
        metric("kernel.compiled_blocks", k.compiled_blocks as f64, "count"),
        metric(
            "kernel.fallback_ratio",
            ratio(c.fallback_procs as f64, c.compiled_procs as f64),
            "ratio",
        ),
        metric(
            "server.session_open_p50_ms",
            quantile(&c.session_open_ms, 0.5),
            "ms",
        ),
        metric("server.ping_open_p50_us", p50("ping_open"), "us"),
        metric("server.ping_p50_us", p50("ping"), "us"),
        metric("server.analyze_p50_us", p50("analyze"), "us"),
        metric("server.elaborate_p50_us", p50("elaborate"), "us"),
        metric("server.run_p50_us", p50("run"), "us"),
        metric("server.inspect_p50_us", p50("inspect"), "us"),
        metric("server.checkpoint_p50_us", p50("checkpoint"), "us"),
        metric("server.restore_p50_us", p50("restore"), "us"),
        metric("server.req_p50_us", quantile(&reqs, 0.5), "us"),
        metric("server.req_p99_us", quantile(&reqs, 0.99), "us"),
        metric("conform.gen_ms", ms("conform.gen"), "ms"),
        metric("conform.elaborate_ms", ms("conform.elaborate"), "ms"),
        metric("conform.cells_ms", ms("conform.cells"), "ms"),
        metric("conform.compare_ms", ms("conform.compare"), "ms"),
        metric("bench.check_ms", ms("check"), "ms"),
    ]);
    out
}

/// A table of where the timed phase went: every span name's count,
/// inclusive and self time over the whole phase, and the unattributed
/// remainder. Printed to standard error by the traced run.
pub fn self_time_table(
    spans: &[crate::trace::Span],
    phase_ns: u64,
    unattributed_ns: u64,
) -> String {
    use std::fmt::Write as _;
    let phase = |s: &crate::trace::Span| s.op < crate::trace::AFTER;
    let agg = crate::trace::aggregate(spans, |s| phase(s) && !s.replayed);
    let replay = crate::trace::aggregate(spans, |s| phase(s) && s.replayed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timed phase {:.1} ms; self time by span:",
        phase_ns as f64 / 1e6
    );
    for (label, a) in [("", &agg), ("replayed ", &replay)] {
        for (name, g) in a {
            let _ = writeln!(
                out,
                "  {label}{name:<24} n={:<7} incl {:>10.2} ms  self {:>10.2} ms  ({:>5.1}%)",
                g.count,
                g.incl_ns as f64 / 1e6,
                g.self_ns as f64 / 1e6,
                g.self_ns as f64 * 100.0 / phase_ns.max(1) as f64
            );
        }
    }
    let _ = writeln!(
        out,
        "  unattributed (op self time + gaps between ops): {:.2} ms",
        unattributed_ns as f64 / 1e6
    );
    out
}
