//! The simulation kernel: signals with projected output waveforms,
//! delta cycles, process scheduling, and the instruction executor.
//!
//! Implements the VHDL simulation cycle: advance time to the next
//! transaction or timeout, update signals (resolving multiple drivers),
//! form the event set, resume sensitive processes, and execute them until
//! they all suspend — repeating at the same instant for delta cycles.
//! "Due to the preemptive nature of signal assignments in VHDL, the effect
//! of a VHDL signal assignment is not determinable at the time of the
//! execution of the assignment" (§5.1) — hence the driver queues here.
//!
//! Scheduling is event-driven: a pending-event calendar ([`crate::sched`])
//! orders every scheduled transaction and wait timeout, a clear-list
//! replaces the per-cycle full sweep of `event`/`active` flags, and the
//! static sensitivity index limits resumption checks to processes that
//! could actually care. Per cycle the kernel touches O(activity) state,
//! not O(design size), while observable behavior (values, events,
//! statistics, observer order) is identical to the scan-based seed kernel
//! — which survives as the `ref_*` reference stepper under `#[cfg(test)]`
//! and anchors the scheduler-equivalence property suite.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crate::compile::{self, Arg, CompiledProgram, IntOp, Step, Term};
use crate::isa::{ArrAttrKind, FnId, Insn, Program, SigAttr, SigId, VarAddr};
use crate::names::{NameError, NameServer, NsEntry, NsObject};
use crate::par;
use crate::rts::{self, Op, RtError};
use crate::sched::{CalKind, Calendar, Partitioner, SensIndex};
use crate::value::{ArrVal, Time, VDir, Val};

/// Per-resumption instruction budget (runaway-loop guard).
const FUEL: u64 = 50_000_000;

/// A diagnostic emitted by `assert`/`report`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportEvent {
    /// When.
    pub time: Time,
    /// 0 = note, 1 = warning, 2 = error, 3 = failure.
    pub severity: i64,
    /// Message text.
    pub text: String,
}

/// Cumulative kernel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulation cycles executed (incl. delta cycles).
    pub cycles: u64,
    /// Delta (zero-time) cycles.
    pub delta_cycles: u64,
    /// Signal events (value changes).
    pub events: u64,
    /// Transactions matured.
    pub transactions: u64,
    /// Process resumptions.
    pub resumptions: u64,
    /// Instructions executed.
    pub insns: u64,
    /// Event-calendar operations (pushes plus removals).
    pub calendar_ops: u64,
    /// Processes examined for resumption (sensitivity-index candidates
    /// plus expired timeouts).
    pub woken_procs: u64,
    /// Signals examined for a value update (the active set, per cycle).
    pub scanned_signals: u64,
    /// Basic blocks executed by the compiled backend.
    pub compiled_blocks: u64,
    /// Processes the compiled backend had to leave on the interpreter
    /// (set once when the program is compiled).
    pub fallback_procs: u64,
}

/// Which process-execution backend runs activations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The instruction-at-a-time interpreter (the reference semantics).
    #[default]
    Interp,
    /// Basic-block threaded code translated ahead of time by
    /// [`crate::compile`]; byte-identical observables, interpreter
    /// fallback per process where translation declines.
    Compiled,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "interp" => Ok(Backend::Interp),
            "compiled" => Ok(Backend::Compiled),
            other => Err(format!(
                "unknown backend '{other}' (expected 'interp' or 'compiled')"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Interp => "interp",
            Backend::Compiled => "compiled",
        })
    }
}

/// Simulation failure.
#[derive(Clone, Debug)]
pub enum SimError {
    /// Runtime-support error in a process.
    Runtime {
        /// Offending process name.
        process: String,
        /// The error.
        error: RtError,
    },
    /// An `assert … severity failure` fired.
    Failure(ReportEvent),
    /// A process exceeded its instruction budget.
    FuelExhausted(String),
    /// Two drivers on an unresolved signal.
    UnresolvedDrivers(String),
    /// A resolution function misbehaved (waited or returned nothing).
    BadResolution(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Runtime { process, error } => {
                write!(f, "runtime error in {process}: {error}")
            }
            SimError::Failure(r) => write!(f, "failure at {}: {}", r.time, r.text),
            SimError::FuelExhausted(p) => write!(f, "process {p} looped without suspending"),
            SimError::UnresolvedDrivers(s) => {
                write!(
                    f,
                    "signal {s} has multiple drivers but no resolution function"
                )
            }
            SimError::BadResolution(s) => write!(f, "bad resolution function on {s}"),
        }
    }
}

impl std::error::Error for SimError {}

pub(crate) struct Driver {
    pub(crate) proc: usize,
    /// Projected output waveform, time-ordered.
    pub(crate) tx: VecDeque<(Time, Val)>,
    /// Current driving value.
    pub(crate) driving: Val,
}

pub(crate) struct SigState {
    pub(crate) current: Val,
    pub(crate) last_value: Val,
    pub(crate) last_event: Option<Time>,
    pub(crate) event: bool,
    pub(crate) active: bool,
    /// Cumulative events on this signal (the Name Server's per-object
    /// counter).
    pub(crate) events: u64,
    pub(crate) drivers: Vec<Driver>,
}

pub(crate) struct Frame {
    pub(crate) code: Arc<Vec<Insn>>,
    pub(crate) pc: usize,
    pub(crate) locals: Vec<Val>,
    pub(crate) static_link: Option<usize>,
    pub(crate) level: u16,
    /// Compiled-unit index of this frame's code (process index, or
    /// `n_procs + fn` for subprograms; `u32::MAX` for resolution scratch
    /// frames, which never run compiled). Kept current by both backends
    /// so they can take over from each other at any suspension point.
    pub(crate) unit: u32,
}

pub(crate) enum ProcStatus {
    Ready,
    Suspended {
        sens: Arc<Vec<SigId>>,
        timeout: Option<Time>,
    },
    Halted,
}

pub(crate) struct ProcState {
    pub(crate) name: String,
    pub(crate) status: ProcStatus,
    pub(crate) frames: Vec<Frame>,
    pub(crate) stack: Vec<Val>,
    /// Cumulative resumptions of this process (per-object counter).
    pub(crate) resumptions: u64,
}

impl ProcState {
    fn empty() -> ProcState {
        ProcState {
            name: String::new(),
            status: ProcStatus::Halted,
            frames: Vec::new(),
            stack: Vec::new(),
            resumptions: 0,
        }
    }
}

/// One buffered signal assignment. The value is fully computed at
/// execution time (subtype conversion and element stores applied); the
/// commit half only manipulates the driver queue and the calendar.
pub(crate) struct SchedOp {
    sig: u32,
    t: Time,
    value: Val,
    transport: bool,
}

impl Default for SchedOp {
    fn default() -> SchedOp {
        SchedOp {
            sig: 0,
            t: Time::ZERO,
            value: Val::Int(0),
            transport: false,
        }
    }
}

/// The effect spans of one process activation: end positions into the
/// owning [`Effects`] buffers (each activation's span starts where the
/// previous one ended), plus its statistics and outcome.
pub(crate) struct ActRecord {
    /// Process index (`u32::MAX` for resolution-function calls).
    pid: u32,
    sched_end: u32,
    timeout_end: u32,
    report_end: u32,
    /// Instructions executed (fuel spent), flushed to `stats.insns` at
    /// commit.
    insns: u64,
    /// Compiled basic blocks executed.
    blocks: u64,
    /// The activation's failure, if any: a runtime error, fuel
    /// exhaustion, or an `assert … severity failure`. Surfaced by the
    /// coordinator at commit, after the effects are applied — exactly
    /// when the unbuffered kernel surfaced it.
    failed: Option<SimError>,
}

/// Buffered side effects of one or more process activations. Workers
/// (and the sequential path) record here instead of touching shared
/// kernel state; the coordinator replays the records at the cycle
/// barrier in seed scan order.
#[derive(Default)]
pub(crate) struct Effects {
    scheds: Vec<SchedOp>,
    /// Wait-timeout instants, committed as calendar entries. A `wait`
    /// is always the last effect of its activation, so committing
    /// schedules before timeouts preserves the unbuffered push order.
    timeouts: Vec<Time>,
    reports: Vec<ReportEvent>,
    acts: Vec<ActRecord>,
    /// The in-flight activation's pending failure (fuel exhaustion,
    /// assertion failure), folded into its [`ActRecord`] when it ends.
    cur_failed: Option<SimError>,
    /// The in-flight activation's compiled-block count.
    cur_blocks: u64,
}

impl Effects {
    fn fail(&mut self, e: SimError) {
        self.cur_failed = Some(e);
    }

    /// Resets for reuse, keeping buffer capacity.
    fn clear(&mut self) {
        self.scheds.clear();
        self.timeouts.clear();
        self.reports.clear();
        self.acts.clear();
        self.cur_failed = None;
        self.cur_blocks = 0;
    }
}

/// Reusable tape-evaluation stacks. One per execution context: the
/// coordinator's sequential path and each pool worker own their own, so
/// no scratch is shared across threads.
#[derive(Default)]
pub(crate) struct Scratch {
    tape_vals: Vec<Val>,
    tape_ints: Vec<i64>,
}

/// Commit cursors into an [`Effects`] buffer: consumption positions the
/// coordinator advances monotonically as it commits that buffer's
/// activations in ready order.
#[derive(Clone, Copy, Default)]
pub(crate) struct EffCursor {
    act: usize,
    sched: usize,
    timeout: usize,
    report: usize,
}

/// One worker's reusable chunk: the processes it runs this cycle, its
/// private effects buffer and tape scratch, and the coordinator's commit
/// cursors. The buffers keep their capacity across cycles and travel to
/// the worker thread and back by move, so the parallel steady state
/// allocates nothing per cycle.
#[derive(Default)]
pub(crate) struct JobBuf {
    pub(crate) procs: Vec<(u32, ProcState)>,
    pub(crate) eff: Effects,
    pub(crate) scratch: Scratch,
    pub(crate) cur: EffCursor,
}

/// An activation-execution context: immutable simulation state plus a
/// private effects buffer and scratch. This is the only engine either
/// path runs — the sequential kernel wraps one around its own buffers
/// and commits after every activation (bit-exact legacy semantics), and
/// each pool worker wraps one around its [`JobBuf`]. It never touches
/// shared mutable kernel state, so a cycle's ready set can execute on
/// any thread in any order while the buffered effects replay in seed
/// scan order at the cycle barrier.
///
/// Both process backends live here and share one semantics: the
/// interpreter ([`Exec::exec_inner`]) and the compiled engine
/// ([`Exec::exec_blocks`]) evaluate every pure value instruction through
/// [`Exec::eval`] and every effect through the same helpers; they differ
/// only in dispatch and in when fuel is charged.
pub(crate) struct Exec<'e> {
    program: &'e Program,
    signals: &'e [SigState],
    compiled: Option<&'e CompiledProgram>,
    now: Time,
    fuel_budget: u64,
    eff: &'e mut Effects,
    scratch: &'e mut Scratch,
    /// First index in `eff.scheds` belonging to the current activation:
    /// element stores must see this activation's earlier buffered writes
    /// (and nothing from other processes).
    act_scheds: usize,
}

/// A value-change observer (VCD writers, test probes).
pub type Observer<'a> = Box<dyn FnMut(Time, SigId, &str, &Val) + 'a>;

/// How a bounded [`Simulator::run_slice`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Nothing left to do: no pending transactions or timeouts.
    Quiescent,
    /// The next event lies beyond the slice deadline.
    DeadlineReached,
    /// The per-slice cycle budget ran out with work still pending.
    CycleBudget,
    /// The cancellation hook asked to stop.
    Cancelled,
}

/// A deliberately wrong kernel behavior, switchable at runtime, so the
/// conformance subsystem's differential oracle can prove it detects and
/// shrinks real semantic divergences (`vhdlconform run --inject-fault`).
/// Never set outside tests and the conform harness; the default-off flag
/// costs one branch on the resolution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[doc(hidden)]
#[non_exhaustive]
pub enum TestFault {
    /// Resolution commit sees only the first driver's contribution —
    /// the classic lost-update bug a broken parallel commit would
    /// produce on a multi-writer bus.
    ResolutionFirstDriverOnly,
}

/// The simulator: program + live state.
///
/// The program and the signal states live behind `Arc` so a parallel
/// cycle can hand shared read-only views to the worker pool; between
/// dispatches the coordinator holds the only clones and mutates through
/// [`Simulator::sigs_mut`].
pub struct Simulator<'a> {
    pub(crate) program: Arc<Program>,
    names: NameServer,
    pub(crate) signals: Arc<Vec<SigState>>,
    pub(crate) procs: Vec<ProcState>,
    pub(crate) now: Time,
    pub(crate) reports: Vec<ReportEvent>,
    pub(crate) stats: SimStats,
    observers: Vec<Observer<'a>>,
    pub(crate) failed: Option<SimError>,
    /// Pending-event calendar: transaction maturations and wait timeouts.
    pub(crate) calendar: Calendar,
    /// Static sensitivity index (signal → processes).
    sens: SensIndex,
    /// Signals whose `event`/`active` flags are set, to clear next cycle
    /// (replaces the full per-cycle flag sweep).
    pub(crate) active_clear: Vec<u32>,
    // Per-cycle scratch worklists, reused so the hot loop allocates only
    // on capacity growth.
    due_drivers: Vec<(u32, u32)>,
    fired: Vec<u32>,
    cand: Vec<u32>,
    ready: Vec<u32>,
    /// Reused buffer for resolution-function argument vectors.
    res_scratch: Vec<Val>,
    /// Reused execution state for resolution calls.
    fn_state: ProcState,
    fn_locals: Vec<Val>,
    /// Active process backend.
    pub(crate) backend: Backend,
    /// The program translated to basic-block threaded code (built lazily
    /// on the first switch to [`Backend::Compiled`]).
    compiled: Option<Arc<CompiledProgram>>,
    /// The sequential path's effects buffer (one activation at a time;
    /// resolution calls).
    eff: Effects,
    /// The sequential path's tape scratch.
    exec_scratch: Scratch,
    /// Per-activation instruction budget ([`FUEL`]; overridable in tests
    /// to pin the exhaustion boundary without 50M-instruction runs).
    pub(crate) fuel_budget: u64,
    /// Worker count for the process-execution phase (1 = sequential).
    jobs: usize,
    /// Fixed worker pool, spawned on the first parallel cycle.
    pool: Option<par::Pool>,
    /// Per-worker chunk buffers, reused across cycles.
    worker_buf: Vec<JobBuf>,
    /// Ready-set partitioner (scratch reused across cycles).
    partitioner: Partitioner,
    /// Worker assignment per ready position.
    assign: Vec<u32>,
    /// Critical-path profiling: parallel cycles run their chunks
    /// serialized on the calling thread, each timed (see
    /// [`Simulator::set_par_profile`]).
    par_profile: bool,
    /// Summed chunk-execution nanoseconds (profiling mode).
    par_total_ns: u64,
    /// Summed per-cycle maximum chunk nanoseconds (profiling mode).
    par_critical_ns: u64,
    /// Deliberate misbehavior for differential-oracle self-tests.
    test_fault: Option<TestFault>,
}

/// Why an activation stopped early (internal control flow of both
/// engines; never escapes [`Exec::run_activation`]).
enum CErr {
    /// A runtime-support error to surface as [`SimError::Runtime`].
    Rt(RtError),
    /// The fuel budget ran out (next instruction charged, not executed).
    Fuel,
    /// The activation already recorded its ending (assertion failure):
    /// stop and report success.
    Halt,
}

impl From<RtError> for CErr {
    fn from(e: RtError) -> CErr {
        CErr::Rt(e)
    }
}

/// Outcome of the integer fast path over one tape.
enum IntRun {
    /// Completed; the tape's value.
    Done(i64),
    /// A leaf held a non-integer: rerun on the generic evaluator (no fuel
    /// was charged).
    Bail,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator and runs every process once (elaboration-time
    /// initial execution happens on the first [`Simulator::step`]).
    pub fn new(program: Program) -> Simulator<'a> {
        let names = NameServer::from_program(&program);
        let sens = SensIndex::build(&program);
        let signals = Arc::new(
            program
                .signals
                .iter()
                .map(|s| SigState {
                    current: s.init.clone(),
                    last_value: s.init.clone(),
                    last_event: None,
                    event: false,
                    active: false,
                    events: 0,
                    drivers: Vec::new(),
                })
                .collect::<Vec<_>>(),
        );
        let procs = program
            .processes
            .iter()
            .enumerate()
            .map(|(pi, p)| ProcState {
                name: p.name.clone(),
                status: ProcStatus::Ready,
                frames: vec![Frame {
                    code: Arc::clone(&p.code),
                    pc: 0,
                    locals: vec![Val::Int(0); p.n_locals as usize],
                    static_link: None,
                    level: 0,
                    unit: pi as u32,
                }],
                stack: Vec::new(),
                resumptions: 0,
            })
            .collect();
        Simulator {
            program: Arc::new(program),
            names,
            signals,
            procs,
            now: Time::ZERO,
            reports: Vec::new(),
            stats: SimStats::default(),
            observers: Vec::new(),
            failed: None,
            calendar: Calendar::new(),
            sens,
            active_clear: Vec::new(),
            due_drivers: Vec::new(),
            fired: Vec::new(),
            cand: Vec::new(),
            ready: Vec::new(),
            res_scratch: Vec::new(),
            fn_state: ProcState::empty(),
            fn_locals: Vec::new(),
            backend: Backend::Interp,
            compiled: None,
            eff: Effects::default(),
            exec_scratch: Scratch::default(),
            fuel_budget: FUEL,
            jobs: 1,
            pool: None,
            worker_buf: Vec::new(),
            partitioner: Partitioner::new(),
            assign: Vec::new(),
            par_profile: false,
            par_total_ns: 0,
            par_critical_ns: 0,
            test_fault: None,
        }
    }

    /// Arms a deliberate kernel misbehavior (see [`TestFault`]). The
    /// conformance oracle sets this on selected configuration cells to
    /// prove divergence detection end to end; production paths never
    /// call it.
    #[doc(hidden)]
    pub fn set_test_fault(&mut self, fault: Option<TestFault>) {
        self.test_fault = fault;
    }

    /// Mutable view of the signal states. Only the coordinator between
    /// pool dispatches (or the sequential path) can take it; the pool
    /// protocol drops every worker's handle before the barrier commit,
    /// so a failure here is a kernel bug, not a race.
    pub(crate) fn sigs_mut(&mut self) -> &mut Vec<SigState> {
        Arc::get_mut(&mut self.signals).expect("signal state shared outside the process phase")
    }

    /// Overrides the per-activation instruction budget (equivalence tests
    /// pin the exhaustion boundary with small budgets).
    #[cfg(test)]
    pub(crate) fn set_fuel_budget(&mut self, fuel: u64) {
        self.fuel_budget = fuel;
    }

    /// Selects the process-execution backend. Switching to
    /// [`Backend::Compiled`] translates the program on first use and
    /// records how many processes had to stay on the interpreter. Safe at
    /// any activation boundary: suspended frames resume identically under
    /// either backend.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
        if backend == Backend::Compiled && self.compiled.is_none() {
            let cp = compile::compile(&self.program);
            self.stats.fallback_procs = cp.n_fallback;
            self.compiled = Some(Arc::new(cp));
        }
    }

    /// The active process-execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Sets the worker count for the process-execution phase. `1` (the
    /// default) runs every ready process sequentially on the calling
    /// thread. With `n > 1`, any cycle whose ready set holds at least
    /// two processes partitions it by static signal footprint and runs
    /// the chunks on a fixed pool of `n` workers; every side effect is
    /// buffered per worker and committed at the cycle barrier in seed
    /// scan order, so VCD output, statistics, and Name-Server counters
    /// are byte-identical at any worker count. Safe to change between
    /// cycles (the old pool, if any, is torn down). Clamped to 1..=64.
    pub fn set_jobs(&mut self, jobs: usize) {
        let jobs = jobs.clamp(1, 64);
        if jobs != self.jobs {
            self.jobs = jobs;
            self.pool = None;
            self.worker_buf.clear();
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Critical-path profiling for parallel cycles: chunks execute
    /// serialized on the calling thread, each timed, instead of on the
    /// pool. [`Simulator::par_profile_ns`] then reports `(Σ chunk ns,
    /// Σ per-cycle max-chunk ns)` — the second term models the process
    /// phase's span under true concurrency, which is the honest speedup
    /// probe on hosts with fewer cores than workers.
    pub fn set_par_profile(&mut self, on: bool) {
        self.par_profile = on;
    }

    /// Accumulated `(total, critical-path)` chunk nanoseconds from
    /// profiled parallel cycles.
    pub fn par_profile_ns(&self) -> (u64, u64) {
        (self.par_total_ns, self.par_critical_ns)
    }

    /// Total basic blocks in the compiled translation (0 until
    /// [`Backend::Compiled`] is selected).
    pub fn compiled_total_blocks(&self) -> u64 {
        self.compiled.as_ref().map_or(0, |cp| cp.total_blocks)
    }

    /// Registers a value-change observer (called with time, signal, name,
    /// new value).
    pub fn observe(&mut self, f: Observer<'a>) {
        self.observers.push(f);
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.calendar_ops = self.calendar.ops;
        s
    }

    /// Reports collected so far.
    pub fn reports(&self) -> &[ReportEvent] {
        &self.reports
    }

    /// Value of a signal by id.
    pub fn signal_value(&self, sig: SigId) -> &Val {
        &self.signals[sig.0 as usize].current
    }

    /// The design's hierarchical namespace (the Name Server of §2.1).
    pub fn names(&self) -> &NameServer {
        &self.names
    }

    /// The elaborated program this simulator runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Resolves a path name to a namespace entry (case-insensitive,
    /// `:a:b` or `a.b` spellings).
    ///
    /// # Errors
    ///
    /// [`NameError`] diagnostics for unknown paths; never panics.
    pub fn resolve(&self, path: &str) -> Result<NsEntry, NameError> {
        self.names.resolve(path)
    }

    /// Resolves a glob pattern to every matching namespace entry.
    ///
    /// # Errors
    ///
    /// [`NameError`] diagnostics for malformed patterns; never panics.
    pub fn glob(&self, pattern: &str) -> Result<Vec<NsEntry>, NameError> {
        self.names.glob(pattern)
    }

    /// Cumulative events on one signal (the per-object counter the Name
    /// Server's `inspect` surface reports).
    pub fn signal_events(&self, sig: SigId) -> u64 {
        self.signals[sig.0 as usize].events
    }

    /// Time of the signal's last event, if any.
    pub fn signal_last_event(&self, sig: SigId) -> Option<Time> {
        self.signals[sig.0 as usize].last_event
    }

    /// Cumulative resumptions of one process.
    pub fn process_resumptions(&self, proc: u32) -> u64 {
        self.procs[proc as usize].resumptions
    }

    /// Static sensitivity set of one process: every signal whose event can
    /// resume it, ascending by id (elaboration metadata, surfaced for
    /// inspection).
    pub fn process_sensitivity(&self, proc: u32) -> &[SigId] {
        self.sens.of_proc(proc as usize)
    }

    /// Looks a signal up by its hierarchical name (the Name Server of
    /// §2.1). Case-insensitive; accepts `:a:b` and `a.b` spellings.
    pub fn signal_by_name(&self, path: &str) -> Option<SigId> {
        if let Ok(NsEntry {
            object: NsObject::Signal(s),
            ..
        }) = self.names.resolve(path)
        {
            return Some(s);
        }
        // Fallback: exact spelling match (signals whose declared names use
        // separators the path grammar folds away).
        self.program
            .signals
            .iter()
            .position(|s| s.name == path)
            .map(|i| SigId(i as u32))
    }

    /// Value by hierarchical name.
    pub fn value_by_name(&self, path: &str) -> Option<&Val> {
        self.signal_by_name(path).map(|s| self.signal_value(s))
    }

    /// All signal names, in id order.
    pub fn signal_names(&self) -> Vec<&str> {
        self.program
            .signals
            .iter()
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Runs until `deadline` (inclusive) or quiescence.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn run_until(&mut self, deadline: Time) -> Result<(), SimError> {
        self.run_slice(deadline, u64::MAX, &mut || false)
            .map(|_| ())
    }

    /// Runs a bounded slice: until `deadline` (inclusive), at most
    /// `max_cycles` simulation cycles, checking `cancel` between cycles —
    /// the incremental-stepping hook interactive drivers (the `vhdld`
    /// server's `run` request) use for per-request deadlines and
    /// cooperative cancellation. State is left consistent at every return,
    /// so a later slice picks up exactly where this one stopped.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn run_slice(
        &mut self,
        deadline: Time,
        max_cycles: u64,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Result<RunOutcome, SimError> {
        let _t = ag_harness::trace::span("simulate");
        let mut cycles: u64 = 0;
        // Initial cycle: every process runs until its first wait.
        if self.stats.cycles == 0 {
            if cancel() {
                return Ok(RunOutcome::Cancelled);
            }
            self.execute_ready()?;
            self.stats.cycles += 1;
            cycles += 1;
        }
        loop {
            let Some(next) = self.next_time() else {
                return Ok(RunOutcome::Quiescent);
            };
            if next.fs > deadline.fs {
                return Ok(RunOutcome::DeadlineReached);
            }
            if cycles >= max_cycles {
                return Ok(RunOutcome::CycleBudget);
            }
            if cancel() {
                return Ok(RunOutcome::Cancelled);
            }
            self.step_to(next)?;
            cycles += 1;
        }
    }

    /// Runs a single simulation cycle; returns `false` at quiescence.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.stats.cycles == 0 {
            self.execute_ready()?;
            self.stats.cycles += 1;
            return Ok(true);
        }
        match self.next_time() {
            Some(next) => {
                self.step_to(next)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The earliest pending instant, from the calendar. Every entry is
    /// validated against live state (drivers' front transactions,
    /// processes' current timeouts) so preempted transactions and
    /// already-resumed waits never stall or invent a cycle; stale entries
    /// found along the way are discarded.
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        let Simulator {
            calendar,
            signals,
            procs,
            ..
        } = self;
        calendar.min_valid(|e| match e.kind {
            CalKind::Driver { sig, di } => signals[sig as usize]
                .drivers
                .get(di as usize)
                .and_then(|d| d.tx.front())
                .is_some_and(|(t, _)| *t == e.time),
            CalKind::Timeout { proc } => matches!(
                &procs[proc as usize].status,
                ProcStatus::Suspended {
                    timeout: Some(t),
                    ..
                } if *t == e.time
            ),
        })
    }

    fn step_to(&mut self, next: Time) -> Result<(), SimError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.stats.cycles += 1;
        if next.fs == self.now.fs && self.stats.cycles > 1 {
            self.stats.delta_cycles += 1;
        }
        if next.fs != self.now.fs {
            self.calendar.advance_fs(next.fs);
        }
        self.now = next;
        // Clear the previous cycle's event/active flags (clear-list: only
        // signals that had them set).
        {
            let Simulator {
                signals,
                active_clear,
                ..
            } = &mut *self;
            let sigs =
                Arc::get_mut(signals).expect("signal state shared outside the process phase");
            for &si in active_clear.iter() {
                let s = &mut sigs[si as usize];
                s.event = false;
                s.active = false;
            }
        }
        self.active_clear.clear();
        // Pull everything due at `next` out of the calendar.
        self.due_drivers.clear();
        self.cand.clear();
        {
            let Simulator {
                calendar,
                due_drivers,
                cand,
                ..
            } = self;
            calendar.pop_due(next, due_drivers, cand);
        }
        // Mature the due drivers' transactions. Duplicate or stale entries
        // mature nothing and drop out here.
        self.fired.clear();
        {
            let Simulator {
                signals,
                calendar,
                stats,
                due_drivers,
                fired,
                ..
            } = &mut *self;
            let sigs =
                Arc::get_mut(signals).expect("signal state shared outside the process phase");
            for &(si, di) in due_drivers.iter() {
                let Some(d) = sigs[si as usize].drivers.get_mut(di as usize) else {
                    continue;
                };
                let mut matured = false;
                while d.tx.front().is_some_and(|(t, _)| *t <= next) {
                    let (_, v) = d.tx.pop_front().expect("front checked");
                    d.driving = v;
                    matured = true;
                    stats.transactions += 1;
                }
                if matured {
                    fired.push(si);
                    if let Some((t, _)) = d.tx.front() {
                        let t = *t;
                        calendar.push(t, CalKind::Driver { sig: si, di });
                    }
                }
            }
        }
        // Update fired signals in ascending id order — the order the seed
        // kernel's full scan used, which observers (VCD) depend on.
        self.fired.sort_unstable();
        self.fired.dedup();
        self.stats.scanned_signals += self.fired.len() as u64;
        for i in 0..self.fired.len() {
            let si = self.fired[i] as usize;
            self.active_clear.push(si as u32);
            let new_val = self.effective_value(si)?;
            let sig = &mut self.sigs_mut()[si];
            sig.active = true;
            let changed = new_val != sig.current;
            if changed {
                sig.last_value = std::mem::replace(&mut sig.current, new_val);
                sig.last_event = Some(next);
                sig.event = true;
                sig.events += 1;
                self.stats.events += 1;
            }
            if changed && !self.observers.is_empty() {
                let this = &mut *self;
                let name = this.program.signals[si].name.as_str();
                let current = &this.signals[si].current;
                for obs in this.observers.iter_mut() {
                    obs(next, SigId(si as u32), name, current);
                }
            }
        }
        // Resumption candidates: expired timeouts (already in `cand` from
        // the calendar) plus every process statically sensitive to a
        // signal that had an event. The wake condition itself is
        // re-checked exactly, so supersets cost nothing but a look.
        for i in 0..self.fired.len() {
            let si = self.fired[i] as usize;
            if self.signals[si].event {
                let watchers = self.sens.watchers(si);
                self.cand.extend_from_slice(watchers);
            }
        }
        self.cand.sort_unstable();
        self.cand.dedup();
        self.stats.woken_procs += self.cand.len() as u64;
        self.ready.clear();
        for i in 0..self.cand.len() {
            let pi = self.cand[i] as usize;
            let resume = match &self.procs[pi].status {
                ProcStatus::Suspended { sens, timeout } => {
                    let timed_out = timeout.is_some_and(|t| t <= next);
                    let evented = sens.iter().any(|s| self.signals[s.0 as usize].event);
                    if timed_out || evented {
                        Some(timed_out && !evented)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(timed_out) = resume {
                let p = &mut self.procs[pi];
                p.status = ProcStatus::Ready;
                p.stack.push(Val::Int(timed_out as i64));
                p.resumptions += 1;
                self.stats.resumptions += 1;
                self.ready.push(pi as u32);
            }
        }
        if self.jobs > 1 && self.ready.len() >= 2 {
            self.run_ready_parallel()?;
        } else {
            for i in 0..self.ready.len() {
                self.run_process(self.ready[i] as usize)?;
            }
        }
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        Ok(())
    }

    fn effective_value(&mut self, si: usize) -> Result<Val, SimError> {
        let n_drivers = self.signals[si].drivers.len();
        let resolution = self.program.signals[si].resolution;
        match (n_drivers, resolution) {
            (0, _) => Ok(self.signals[si].current.clone()),
            (1, None) => Ok(self.signals[si].drivers[0].driving.clone()),
            (_, None) => Err(SimError::UnresolvedDrivers(
                self.program.signals[si].name.clone(),
            )),
            (_, Some(f)) => {
                // The resolution function receives the vector of driving
                // values. The vector's buffer is a reused scratch,
                // reclaimed after the call unless the function retained
                // the argument.
                let mut vals = std::mem::take(&mut self.res_scratch);
                vals.clear();
                let take = match self.test_fault {
                    Some(TestFault::ResolutionFirstDriverOnly) => 1,
                    None => n_drivers,
                };
                vals.extend(
                    self.signals[si]
                        .drivers
                        .iter()
                        .take(take)
                        .map(|d| d.driving.clone()),
                );
                let data = Arc::new(vals);
                let arg = Val::Arr(ArrVal {
                    left: 0,
                    dir: VDir::To,
                    data: Arc::clone(&data),
                });
                let out = self.call_function(f, arg);
                if let Ok(mut v) = Arc::try_unwrap(data) {
                    v.clear();
                    self.res_scratch = v;
                }
                // Commit the call's buffered effects (counted
                // instructions, reports, a possible assertion failure)
                // exactly where the unbuffered kernel applied them —
                // inside the update phase, before this signal's value
                // changes. An assertion failure lands in `self.failed`
                // and surfaces at the seed kernel's check points, not
                // here, matching the legacy control flow.
                let _ = self.commit_pending();
                out.map_err(|e| SimError::Runtime {
                    process: format!("resolution of {}", self.program.signals[si].name),
                    error: e,
                })
            }
        }
    }

    /// Executes every Ready process until it suspends.
    fn execute_ready(&mut self) -> Result<(), SimError> {
        for pi in 0..self.procs.len() {
            if matches!(self.procs[pi].status, ProcStatus::Ready) {
                self.run_process(pi)?;
            }
        }
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        Ok(())
    }

    /// Runs a pure function (resolution) on a reused scratch state: the
    /// frame's locals buffer, the value stack, and the diagnostic name all
    /// keep their capacity between calls.
    fn call_function(&mut self, f: FnId, arg: Val) -> Result<Val, RtError> {
        let mut scratch = std::mem::replace(&mut self.fn_state, ProcState::empty());
        let mut locals = std::mem::take(&mut self.fn_locals);
        let decl = &self.program.functions[f.0 as usize];
        scratch.status = ProcStatus::Ready;
        scratch.stack.clear();
        scratch.name.clear();
        scratch.name.push_str("fn ");
        scratch.name.push_str(&decl.name);
        locals.clear();
        locals.resize(decl.n_locals as usize, Val::Int(0));
        locals[0] = arg;
        scratch.frames.push(Frame {
            code: Arc::clone(&decl.code),
            pc: 0,
            locals,
            static_link: None,
            level: decl.level,
            unit: u32::MAX,
        });
        let out = match self.exec().run_pure(&mut scratch) {
            Ok(()) => scratch
                .stack
                .pop()
                .ok_or_else(|| RtError::Internal("resolution returned no value".into())),
            Err(e) => Err(e),
        };
        if let Some(frame) = scratch.frames.drain(..).next() {
            self.fn_locals = frame.locals;
        }
        self.fn_state = scratch;
        out
    }

    /// An execution context over the coordinator's own effects buffer
    /// and scratch (sequential activations, resolution calls).
    fn exec(&mut self) -> Exec<'_> {
        let Simulator {
            program,
            signals,
            compiled,
            backend,
            now,
            fuel_budget,
            eff,
            exec_scratch,
            ..
        } = self;
        Exec::new(
            program,
            signals,
            active_translation(compiled, *backend).map(|cp| &**cp),
            *now,
            *fuel_budget,
            eff,
            exec_scratch,
        )
    }

    /// Runs one ready process sequentially: execute on [`Exec`] (same
    /// engine the pool workers run), then commit the single buffered
    /// activation immediately — which replays the legacy unbuffered
    /// semantics bit-exactly.
    fn run_process(&mut self, pi: usize) -> Result<(), SimError> {
        let mut proc = std::mem::replace(&mut self.procs[pi], ProcState::empty());
        self.exec().run_activation(&mut proc, pi);
        self.procs[pi] = proc;
        self.commit_pending()?;
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        Ok(())
    }

    /// Executes the cycle's ready set on the worker pool: partition by
    /// static signal footprint, run the chunks concurrently against
    /// shared read-only state, then commit every buffered effect at the
    /// barrier in seed scan order (ascending process id — the order the
    /// sequential kernel used). Observables are byte-identical at any
    /// worker count.
    fn run_ready_parallel(&mut self) -> Result<(), SimError> {
        let n = self.ready.len();
        let jobs = self.jobs;
        while self.worker_buf.len() < jobs {
            self.worker_buf.push(JobBuf::default());
        }
        {
            let Simulator {
                partitioner,
                sens,
                ready,
                assign,
                ..
            } = &mut *self;
            partitioner.assign(ready, sens, jobs, assign);
        }
        for buf in self.worker_buf.iter_mut() {
            buf.procs.clear();
            buf.cur = EffCursor::default();
        }
        // Fill the chunks in ready order, so each worker's chunk is in
        // ascending process order and its activation records line up
        // with the commit loop below.
        for pos in 0..n {
            let pid = self.ready[pos];
            let proc = std::mem::replace(&mut self.procs[pid as usize], ProcState::empty());
            self.worker_buf[self.assign[pos] as usize]
                .procs
                .push((pid, proc));
        }
        let ctx = par::Ctx {
            program: Arc::clone(&self.program),
            signals: Arc::clone(&self.signals),
            compiled: active_translation(&self.compiled, self.backend).cloned(),
            now: self.now,
            fuel_budget: self.fuel_budget,
        };
        if self.par_profile {
            // Critical-path probe: run the chunks serialized on this
            // thread, timing each. `total` accumulates Σ chunk-ns and
            // `critical` Σ per-cycle max-chunk-ns — the span the phase
            // would have under true concurrency.
            let (mut total, mut critical) = (0u64, 0u64);
            for buf in self.worker_buf.iter_mut() {
                if buf.procs.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                run_chunk(&ctx, buf);
                let ns = t0.elapsed().as_nanos() as u64;
                total += ns;
                critical = critical.max(ns);
            }
            self.par_total_ns += total;
            self.par_critical_ns += critical;
        } else {
            if self.pool.is_none() {
                self.pool = Some(par::Pool::new(jobs));
            }
            let pool = self.pool.as_ref().expect("pool just ensured");
            pool.run(&ctx, &mut self.worker_buf);
        }
        drop(ctx);
        // Give the processes back before committing.
        let mut bufs = std::mem::take(&mut self.worker_buf);
        for buf in bufs.iter_mut() {
            for (pid, proc) in buf.procs.drain(..) {
                self.procs[pid as usize] = proc;
            }
        }
        // Barrier commit: one activation per ready position, in seed
        // scan order, consuming each worker's buffers front to back.
        // The first failure (in that order) wins; later activations'
        // effects are discarded, as if their processes had never run —
        // the sequential kernel never ran them at all, and post-error
        // state is unobservable through the public API either way.
        let mut out = Ok(());
        for pos in 0..n {
            let w = self.assign[pos] as usize;
            let ai = bufs[w].cur.act;
            bufs[w].cur.act += 1;
            debug_assert_eq!(bufs[w].eff.acts[ai].pid, self.ready[pos]);
            let r = {
                let JobBuf { eff, cur, .. } = &mut bufs[w];
                self.commit_act(eff, ai, cur)
            };
            if let Err(e) = r {
                out = Err(e);
                break;
            }
            if let Some(e) = &self.failed {
                // A failure recorded before the process phase (a
                // resolution call's assertion) surfaces after the first
                // committed activation, exactly as run_process does.
                out = Err(e.clone());
                break;
            }
        }
        for buf in bufs.iter_mut() {
            buf.eff.clear();
            buf.cur = EffCursor::default();
        }
        self.worker_buf = bufs;
        out
    }

    /// Applies one activation record's buffered effects in recorded
    /// order — driver transactions, wait timeouts, reports, statistics —
    /// then surfaces the activation's failure, if any. Statistics land
    /// before the failure check, matching the unbuffered kernel's
    /// once-per-activation flush.
    fn commit_act(
        &mut self,
        eff: &mut Effects,
        ai: usize,
        cur: &mut EffCursor,
    ) -> Result<(), SimError> {
        let (pid, s_end, t_end, r_end, insns, blocks, failed) = {
            let a = &mut eff.acts[ai];
            (
                a.pid,
                a.sched_end as usize,
                a.timeout_end as usize,
                a.report_end as usize,
                a.insns,
                a.blocks,
                a.failed.take(),
            )
        };
        let dpid = if pid == u32::MAX {
            usize::MAX
        } else {
            pid as usize
        };
        for i in cur.sched..s_end {
            let op = std::mem::take(&mut eff.scheds[i]);
            self.commit_sched(dpid, op);
        }
        cur.sched = s_end;
        for i in cur.timeout..t_end {
            self.calendar
                .push(eff.timeouts[i], CalKind::Timeout { proc: pid });
        }
        cur.timeout = t_end;
        for i in cur.report..r_end {
            let ev = std::mem::replace(
                &mut eff.reports[i],
                ReportEvent {
                    time: Time::ZERO,
                    severity: 0,
                    text: String::new(),
                },
            );
            self.reports.push(ev);
        }
        cur.report = r_end;
        self.stats.insns += insns;
        self.stats.compiled_blocks += blocks;
        if let Some(e) = failed {
            self.failed = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Commits every buffered activation of the coordinator's own
    /// effects buffer (sequential execution, resolution calls) in
    /// recorded order, stopping at — but after fully applying — the
    /// first failed one.
    fn commit_pending(&mut self) -> Result<(), SimError> {
        let mut eff = std::mem::take(&mut self.eff);
        let mut cur = EffCursor::default();
        let mut out = Ok(());
        for ai in 0..eff.acts.len() {
            if let Err(e) = self.commit_act(&mut eff, ai, &mut cur) {
                out = Err(e);
                break;
            }
        }
        eff.clear();
        self.eff = eff;
        out
    }

    /// The commit half of a signal assignment: find or create the
    /// process's driver, apply preemption, append the transaction, keep
    /// the calendar invariant. The value was computed at execution time;
    /// driver queues are untouched during the process phase, so
    /// replaying the buffered operations in seed scan order lands every
    /// queue in exactly the state the unbuffered kernel produced.
    fn commit_sched(&mut self, pid: usize, op: SchedOp) {
        let SchedOp {
            sig,
            t,
            value,
            transport,
        } = op;
        let Simulator {
            signals, calendar, ..
        } = &mut *self;
        let sig_state = &mut Arc::get_mut(signals)
            .expect("signal state shared outside the process phase")[sig as usize];
        // Find or create this process's driver. Creation happens here —
        // in commit order — so driver indices are identical to the
        // sequential kernel's no matter which worker ran the process.
        let di = match sig_state.drivers.iter().position(|d| d.proc == pid) {
            Some(i) => i,
            None => {
                sig_state.drivers.push(Driver {
                    proc: pid,
                    tx: VecDeque::new(),
                    driving: sig_state.current.clone(),
                });
                sig_state.drivers.len() - 1
            }
        };
        let d = &mut sig_state.drivers[di];
        if transport {
            // Transport: drop transactions at or after t, append.
            while d.tx.back().is_some_and(|(bt, _)| *bt >= t) {
                d.tx.pop_back();
            }
        } else {
            // Inertial (simplified VHDL-87 preemption): the new
            // transaction supersedes every pending one.
            d.tx.clear();
        }
        d.tx.push_back((t, value));
        // Calendar invariant: whenever a driver's queue is non-empty, an
        // entry exists at exactly the front transaction's time (see
        // [`Exec::sched`]).
        if d.tx.len() == 1 {
            calendar.push(t, CalKind::Driver { sig, di: di as u32 });
        }
    }
}

impl<'e> Exec<'e> {
    /// An execution context over shared read-only state and a private
    /// effects buffer. `compiled` is the translation to run on — `None`
    /// whenever the interpreter is selected.
    pub(crate) fn new(
        program: &'e Program,
        signals: &'e [SigState],
        compiled: Option<&'e CompiledProgram>,
        now: Time,
        fuel_budget: u64,
        eff: &'e mut Effects,
        scratch: &'e mut Scratch,
    ) -> Exec<'e> {
        Exec {
            program,
            signals,
            compiled,
            now,
            fuel_budget,
            eff,
            scratch,
            act_scheds: 0,
        }
    }

    /// Runs one process activation to suspension or halt, recording its
    /// side effects as one activation record. Errors do not escape: a
    /// runtime error or pending failure rides in the record and is
    /// surfaced by the coordinator at commit, in seed scan order.
    pub(crate) fn run_activation(&mut self, proc: &mut ProcState, pid: usize) {
        self.act_scheds = self.eff.scheds.len();
        let mut fuel = self.fuel_budget;
        // The backend dispatch seam: processes the translator declined
        // stay on the interpreter, per process, forever.
        let run = match self.compiled.filter(|cp| cp.proc_ok[pid]) {
            Some(cp) => self.exec_blocks(cp, proc, pid, &mut fuel),
            None => self.exec_inner(proc, pid, &mut fuel),
        };
        // Clone the name only on the error path: this runs once per
        // resumption, and a per-call clone is exactly the hot-loop
        // allocation the scheduler rewrite removed.
        let failed = match self.settle(proc, run) {
            Ok(()) => self.eff.cur_failed.take(),
            Err(error) => {
                self.eff.cur_failed = None;
                Some(SimError::Runtime {
                    process: proc.name.clone(),
                    error,
                })
            }
        };
        self.record(pid as u32, fuel, failed);
    }

    /// Runs a pure function call (resolution) to completion on the
    /// interpreter, recording its effects as one activation record with
    /// the `u32::MAX` pid sentinel. The runtime error (if any) is returned
    /// to the caller — the unbuffered kernel propagated it without
    /// recording a process failure — while a pending assertion failure
    /// rides in the record.
    fn run_pure(&mut self, proc: &mut ProcState) -> Result<(), RtError> {
        self.act_scheds = self.eff.scheds.len();
        let mut fuel = self.fuel_budget;
        let run = self.exec_inner(proc, PURE, &mut fuel);
        let out = self.settle(proc, run);
        let failed = self.eff.cur_failed.take();
        self.record(u32::MAX, fuel, failed);
        out
    }

    /// How an activation stopped, as seen by its record: fuel exhaustion
    /// becomes the activation's failure and halts the process, a
    /// recorded ending (assertion failure) is success, and runtime errors
    /// pass through.
    fn settle(&mut self, proc: &mut ProcState, run: Result<(), CErr>) -> Result<(), RtError> {
        match run {
            Ok(()) | Err(CErr::Halt) => Ok(()),
            Err(CErr::Fuel) => {
                self.eff.fail(SimError::FuelExhausted(proc.name.clone()));
                proc.status = ProcStatus::Halted;
                Ok(())
            }
            Err(CErr::Rt(e)) => Err(e),
        }
    }

    /// Closes the in-flight activation: its effect spans end here.
    fn record(&mut self, pid: u32, fuel_left: u64, failed: Option<SimError>) {
        self.eff.acts.push(ActRecord {
            pid,
            sched_end: self.eff.scheds.len() as u32,
            timeout_end: self.eff.timeouts.len() as u32,
            report_end: self.eff.reports.len() as u32,
            insns: self.fuel_budget - fuel_left,
            blocks: std::mem::take(&mut self.eff.cur_blocks),
            failed,
        });
    }

    /// The interpreter: fetches and charges one instruction at a time.
    /// Effects go through the helpers the compiled engine shares; every
    /// other instruction is a pure value rule for [`Exec::eval`]. `pid`
    /// is [`PURE`] for a resolution call, which may not wait.
    fn exec_inner(&mut self, proc: &mut ProcState, pid: usize, fuel: &mut u64) -> Result<(), CErr> {
        'outer: loop {
            let Some(top) = proc.frames.last() else {
                proc.status = ProcStatus::Halted;
                return Ok(());
            };
            // Pin the active frame's code and pc in locals: instructions
            // are matched by reference out of the owned `code` handle (no
            // per-instruction clone), and `pc` only touches the frame at
            // suspension points and frame switches.
            let code = Arc::clone(&top.code);
            let mut pc = top.pc;
            loop {
                let Some(insn) = code.get(pc) else {
                    if leave_frame(proc, pc) {
                        continue 'outer;
                    }
                    return Ok(());
                };
                pc += 1;
                if let Err(e) = charge(fuel) {
                    set_pc(proc, pc);
                    return Err(e);
                }
                match insn {
                    Insn::StoreVar(a) => {
                        let v = pop(&mut proc.stack)?;
                        store_var(proc, *a, Place::Whole, v)?;
                    }
                    Insn::StoreVarIndex(a) => {
                        let v = pop(&mut proc.stack)?;
                        let i = pop_int(&mut proc.stack)?;
                        store_var(proc, *a, Place::Elem(i), v)?;
                    }
                    Insn::StoreVarField(a, field) => {
                        let v = pop(&mut proc.stack)?;
                        store_var(proc, *a, Place::Field(*field), v)?;
                    }
                    Insn::Jump(t) => pc = *t as usize,
                    Insn::JumpIfFalse(t) => {
                        if pop_int(&mut proc.stack)? == 0 {
                            pc = *t as usize;
                        }
                    }
                    Insn::Sched { sig, transport } => {
                        let delay = pop_int(&mut proc.stack)?;
                        let value = pop(&mut proc.stack)?;
                        self.sched(pid, *sig, value, delay, *transport, None)?;
                    }
                    Insn::SchedIndex { sig, transport } => {
                        let delay = pop_int(&mut proc.stack)?;
                        let value = pop(&mut proc.stack)?;
                        let index = pop_int(&mut proc.stack)?;
                        self.sched(pid, *sig, value, delay, *transport, Some(index))?;
                    }
                    Insn::Wait { sens, with_timeout } => {
                        if pid == PURE {
                            return Err(RtError::Internal("wait in a pure function".into()).into());
                        }
                        let timeout = if *with_timeout {
                            Some(pop_int(&mut proc.stack)?)
                        } else {
                            None
                        };
                        return Ok(self.suspend(proc, sens, timeout, pc)?);
                    }
                    Insn::Call(f) => {
                        self.push_call(proc, *f, pc);
                        continue 'outer;
                    }
                    Insn::Ret { has_value: _ } => {
                        if leave_frame(proc, pc) {
                            continue 'outer;
                        }
                        return Ok(());
                    }
                    Insn::Assert => {
                        let severity = pop_int(&mut proc.stack)?;
                        let report = pop(&mut proc.stack)?;
                        let cond = pop_int(&mut proc.stack)? != 0;
                        self.assert(proc, cond, report, severity, pc)?;
                    }
                    Insn::Pop => {
                        pop(&mut proc.stack)?;
                    }
                    Insn::Halt => {
                        halt(proc, pc);
                        return Ok(());
                    }
                    value => self.eval(&proc.frames, &mut proc.stack, value)?,
                }
            }
        }
    }

    /// Evaluates one pure value instruction on the stack `st`: the single
    /// definition of every value rule. The interpreter and compiled raw
    /// steps run it on the process stack, generic tapes on their scratch
    /// stack; `frames` resolves variable loads.
    // Forced inline: as an out-of-line call the interpreter loses about
    // 15% of its instruction rate (perfbench `simulate`).
    #[inline(always)]
    fn eval(&self, frames: &[Frame], st: &mut Vec<Val>, insn: &Insn) -> Result<(), RtError> {
        let v = match insn {
            Insn::PushInt(v) => Val::Int(*v),
            Insn::PushReal(v) => Val::Real(*v),
            Insn::PushConst(v) => v.clone(),
            Insn::LoadVar(a) => frames[frame_at(frames, a.depth)?].locals[a.slot as usize].clone(),
            Insn::LoadSig(s) => self.signals[s.0 as usize].current.clone(),
            Insn::LoadSigAttr(s, attr) => {
                let sig = &self.signals[s.0 as usize];
                match attr {
                    SigAttr::Event => Val::Int(sig.event as i64),
                    SigAttr::Active => Val::Int(sig.active as i64),
                    SigAttr::LastValue => sig.last_value.clone(),
                }
            }
            Insn::MakeArr { n, left, dir } => {
                let data = st.split_off(st.len() - *n as usize);
                Val::arr(*left, *dir, data)
            }
            Insn::MakeRec { n } => Val::Rec(Arc::new(st.split_off(st.len() - *n as usize))),
            Insn::Index => {
                let idx = pop_int(st)?;
                let arr = pop(st)?;
                let a = want_arr(&arr)?;
                let off = a.offset(idx).ok_or(RtError::IndexError { index: idx })?;
                a.data[off].clone()
            }
            Insn::Slice(dir) => {
                let right = pop_int(st)?;
                let left = pop_int(st)?;
                let arr = pop(st)?;
                let a = want_arr(&arr)?;
                let (o1, o2) = (
                    a.offset(left).ok_or(RtError::IndexError { index: left })?,
                    a.offset(right)
                        .ok_or(RtError::IndexError { index: right })?,
                );
                let (lo, hi) = (o1.min(o2), o1.max(o2));
                Val::arr(left, *dir, a.data[lo..=hi].to_vec())
            }
            Insn::Field(i) => match pop(st)? {
                Val::Rec(fields) => fields[*i as usize].clone(),
                _ => return Err(RtError::Internal("field on non-record".into())),
            },
            Insn::ArrAttr(kind) => {
                let v = pop(st)?;
                let a = want_arr(&v)?;
                let (l, r) = (a.left, a.right());
                Val::Int(match kind {
                    ArrAttrKind::Length => a.data.len() as i64,
                    ArrAttrKind::Left => l,
                    ArrAttrKind::Right => r,
                    ArrAttrKind::Low => l.min(r),
                    ArrAttrKind::High => l.max(r),
                })
            }
            Insn::Binop(op) => {
                let b = pop(st)?;
                let a = pop(st)?;
                rts::binop(*op, &a, &b)?
            }
            Insn::Unop(op) => {
                let a = pop(st)?;
                rts::unop(*op, &a)?
            }
            Insn::RangeCheck { lo, hi } => {
                let v = want_int(st.last().ok_or_else(underflow)?)?;
                if v < *lo || v > *hi {
                    return Err(RtError::RangeError {
                        value: v,
                        lo: *lo,
                        hi: *hi,
                    });
                }
                return Ok(());
            }
            Insn::Dup => st.last().ok_or_else(underflow)?.clone(),
            other => {
                return Err(RtError::Internal(format!(
                    "not a value instruction: {other:?}"
                )))
            }
        };
        st.push(v);
        Ok(())
    }

    /// The compiled backend's engine: runs threaded basic blocks until
    /// the process suspends, halts, or fails. Mirrors the interpreter's
    /// fuel accounting exactly — every executed tape operation, step,
    /// and charging terminator costs one unit, in original program
    /// order, so `stats.insns` and the fuel-exhaustion point are
    /// byte-identical to the interpreter's.
    fn exec_blocks(
        &mut self,
        cp: &CompiledProgram,
        proc: &mut ProcState,
        pid: usize,
        fuel: &mut u64,
    ) -> Result<(), CErr> {
        'frames: loop {
            let Some(top) = proc.frames.last() else {
                proc.status = ProcStatus::Halted;
                return Ok(());
            };
            let unit = cp.units[top.unit as usize]
                .as_ref()
                .ok_or_else(|| RtError::Internal("frame in uncompiled unit".into()))?;
            // Activations always enter at a leader: process start, wait
            // resume points, and call-return points all end blocks.
            let mut bi = *unit
                .leader
                .get(top.pc)
                .filter(|b| **b != u32::MAX)
                .ok_or_else(|| RtError::Internal("resume pc is not a block leader".into()))?
                as usize;
            loop {
                let block = &unit.blocks[bi];
                self.eff.cur_blocks += 1;
                for step in &block.steps {
                    self.run_cstep(proc, pid, step, fuel)?;
                }
                match &block.term {
                    Term::Fall(t) => bi = *t as usize,
                    Term::Jump(t) => {
                        charge(fuel)?;
                        bi = *t as usize;
                    }
                    Term::Branch {
                        cond,
                        on_false,
                        next,
                    } => {
                        let c_pre = self.eval_arg(proc, cond, fuel)?;
                        charge(fuel)?;
                        let c = take_int(proc, c_pre)? != 0;
                        bi = if c {
                            *next as usize
                        } else {
                            *on_false as usize
                        };
                    }
                    Term::Wait {
                        sens,
                        timeout,
                        resume_pc,
                    } => {
                        let timeout = match timeout {
                            Some(arg) => {
                                let pre = self.eval_arg(proc, arg, fuel)?;
                                charge(fuel)?;
                                Some(take_int(proc, pre)?)
                            }
                            None => {
                                charge(fuel)?;
                                None
                            }
                        };
                        return Ok(self.suspend(proc, sens, timeout, *resume_pc as usize)?);
                    }
                    Term::Call { f, ret_pc } => {
                        charge(fuel)?;
                        self.push_call(proc, *f, *ret_pc as usize);
                        continue 'frames;
                    }
                    Term::Ret { end_pc } => {
                        charge(fuel)?;
                        if leave_frame(proc, *end_pc as usize) {
                            continue 'frames;
                        }
                        return Ok(());
                    }
                    Term::Halt { end_pc } => {
                        charge(fuel)?;
                        halt(proc, *end_pc as usize);
                        return Ok(());
                    }
                    Term::FallOff { end_pc } => {
                        // Running off the end charges nothing: the
                        // interpreter's fetch fails before the fuel is
                        // touched.
                        if leave_frame(proc, *end_pc as usize) {
                            continue 'frames;
                        }
                        return Ok(());
                    }
                    Term::Dead => {
                        return Err(CErr::Rt(RtError::Internal(
                            "entered untranslated block".into(),
                        )))
                    }
                }
            }
        }
    }

    /// Executes one step of a compiled block. Argument evaluation order
    /// mirrors the interpreter exactly: deferred tapes run first (their
    /// source instructions came earlier), then the step's own instruction
    /// is charged, then operands are taken (popped) and type-checked in
    /// the interpreter's pop order.
    fn run_cstep(
        &mut self,
        proc: &mut ProcState,
        pid: usize,
        step: &Step,
        fuel: &mut u64,
    ) -> Result<(), CErr> {
        match step {
            Step::Push(tape) => {
                let v = self.run_tape(proc, tape, fuel)?;
                proc.stack.push(v);
            }
            Step::PopRt => {
                charge(fuel)?;
                pop(&mut proc.stack)?;
            }
            Step::Drop(tape) => {
                self.run_tape(proc, tape, fuel)?;
                charge(fuel)?;
            }
            Step::Raw(insn) => {
                charge(fuel)?;
                self.eval(&proc.frames, &mut proc.stack, insn)?;
            }
            Step::Store { addr, val } => {
                let v_pre = self.eval_arg(proc, val, fuel)?;
                charge(fuel)?;
                let v = take(proc, v_pre)?;
                store_var(proc, *addr, Place::Whole, v)?;
            }
            Step::StoreIndex { addr, idx, val } => {
                let i_pre = self.eval_arg(proc, idx, fuel)?;
                let v_pre = self.eval_arg(proc, val, fuel)?;
                charge(fuel)?;
                let v = take(proc, v_pre)?;
                let i = take_int(proc, i_pre)?;
                store_var(proc, *addr, Place::Elem(i), v)?;
            }
            Step::StoreField { addr, field, val } => {
                let v_pre = self.eval_arg(proc, val, fuel)?;
                charge(fuel)?;
                let v = take(proc, v_pre)?;
                store_var(proc, *addr, Place::Field(*field), v)?;
            }
            Step::Sched {
                sig,
                transport,
                val,
                delay,
            } => {
                let v_pre = self.eval_arg(proc, val, fuel)?;
                let d_pre = self.eval_arg(proc, delay, fuel)?;
                charge(fuel)?;
                let d = take_int(proc, d_pre)?;
                let v = take(proc, v_pre)?;
                self.sched(pid, *sig, v, d, *transport, None)?;
            }
            Step::SchedIndex {
                sig,
                transport,
                idx,
                val,
                delay,
            } => {
                let i_pre = self.eval_arg(proc, idx, fuel)?;
                let v_pre = self.eval_arg(proc, val, fuel)?;
                let d_pre = self.eval_arg(proc, delay, fuel)?;
                charge(fuel)?;
                let d = take_int(proc, d_pre)?;
                let v = take(proc, v_pre)?;
                let i = take_int(proc, i_pre)?;
                self.sched(pid, *sig, v, d, *transport, Some(i))?;
            }
            Step::Assert {
                cond,
                report,
                severity,
                pc_after,
            } => {
                let c_pre = self.eval_arg(proc, cond, fuel)?;
                let r_pre = self.eval_arg(proc, report, fuel)?;
                let s_pre = self.eval_arg(proc, severity, fuel)?;
                charge(fuel)?;
                let severity = take_int(proc, s_pre)?;
                let report = take(proc, r_pre)?;
                let cond = take_int(proc, c_pre)? != 0;
                self.assert(proc, cond, report, severity, *pc_after as usize)?;
            }
        }
        Ok(())
    }

    /// Evaluates a step argument: `None` for an already-materialized
    /// operand (taken from the value stack later, in pop order), the
    /// tape's value otherwise.
    fn eval_arg(
        &mut self,
        proc: &mut ProcState,
        arg: &Arg,
        fuel: &mut u64,
    ) -> Result<Option<Val>, CErr> {
        match arg {
            Arg::Rt => Ok(None),
            Arg::T(t) => self.run_tape(proc, t, fuel).map(Some),
        }
    }

    /// Evaluates one tape to its value, attempting the unboxed integer
    /// fast path first. The fast path needs enough fuel for the whole
    /// tape up front so it can skip per-operation exhaustion checks.
    fn run_tape(
        &mut self,
        proc: &mut ProcState,
        tape: &compile::Tape,
        fuel: &mut u64,
    ) -> Result<Val, CErr> {
        if let Some(it) = &tape.int_tape {
            if *fuel > it.cost {
                let mut st = std::mem::take(&mut self.scratch.tape_ints);
                st.clear();
                let out = self.tape_int_inner(&proc.frames, it, fuel, &mut st);
                self.scratch.tape_ints = st;
                match out? {
                    IntRun::Done(v) => return Ok(Val::Int(v)),
                    IntRun::Bail => {}
                }
            }
        }
        let mut st = std::mem::take(&mut self.scratch.tape_vals);
        st.clear();
        let out = self.eval_tape(&proc.frames, &tape.ops, fuel, &mut st);
        self.scratch.tape_vals = st;
        out
    }

    /// The generic tape loop: each source instruction is charged, then
    /// evaluated by [`Exec::eval`] on the tape scratch stack.
    fn eval_tape(
        &self,
        frames: &[Frame],
        ops: &[Insn],
        fuel: &mut u64,
        st: &mut Vec<Val>,
    ) -> Result<Val, CErr> {
        for insn in ops {
            charge(fuel)?;
            self.eval(frames, st, insn)?;
        }
        Ok(pop(st)?)
    }

    /// The unboxed integer evaluator over the fused op stream: raw
    /// `i64` stack, no per-operation fuel checks (the caller proved the
    /// budget), type guards on every leaf. Bailing charges nothing;
    /// completing charges the whole *source* tape; a runtime error
    /// charges through the failing source operation (`IntTape::ends`) —
    /// all exactly what the interpreter would have charged.
    fn tape_int_inner(
        &self,
        frames: &[Frame],
        it: &compile::IntTape,
        fuel: &mut u64,
        st: &mut Vec<i64>,
    ) -> Result<IntRun, CErr> {
        st.reserve(it.max_depth);
        // Top-of-stack caching: `tos` holds the top value in a register
        // so a chained expression never round-trips through memory. The
        // logical stack is `st` + `tos`; the first push spills a dead
        // phantom bottom into `st`, which a balanced tape never reads.
        let mut tos: i64 = 0;
        // The hot loop never constructs a `Result`: faults and bails
        // jump straight to the cold exits below.
        let mut j = 0;
        let fault: RtError = 'run: {
            while let Some(op) = it.ops.get(j) {
                match *op {
                    IntOp::Imm(v) => {
                        st.push(tos);
                        tos = v;
                    }
                    IntOp::AddImm(k) => match tos.checked_add(k) {
                        Some(v) => tos = v,
                        None => break 'run RtError::Overflow,
                    },
                    IntOp::MulImm(k) => match tos.checked_mul(k) {
                        Some(v) => tos = v,
                        None => break 'run RtError::Overflow,
                    },
                    IntOp::ModMask(mask) => tos &= mask,
                    IntOp::BinopImm(op, k) => match int_binop(op, tos, k) {
                        Ok(v) => tos = v,
                        Err(e) => break 'run e,
                    },
                    IntOp::Binop(op) => {
                        let x = st.pop().expect("balanced tape");
                        match int_binop(op, x, tos) {
                            Ok(v) => tos = v,
                            Err(e) => break 'run e,
                        }
                    }
                    IntOp::Local(a) => match frame_at(frames, a.depth) {
                        Ok(fi) => match &frames[fi].locals[a.slot as usize] {
                            Val::Int(x) => {
                                st.push(tos);
                                tos = *x;
                            }
                            _ => return Ok(IntRun::Bail),
                        },
                        Err(e) => break 'run e,
                    },
                    IntOp::Sig(s) => match &self.signals[s.0 as usize].current {
                        Val::Int(x) => {
                            st.push(tos);
                            tos = *x;
                        }
                        _ => return Ok(IntRun::Bail),
                    },
                    IntOp::Attr(s, attr) => {
                        let sig = &self.signals[s.0 as usize];
                        let v = match attr {
                            SigAttr::Event => sig.event as i64,
                            SigAttr::Active => sig.active as i64,
                            SigAttr::LastValue => match &sig.last_value {
                                Val::Int(x) => *x,
                                _ => return Ok(IntRun::Bail),
                            },
                        };
                        st.push(tos);
                        tos = v;
                    }
                    IntOp::Unop(op) => {
                        tos = match op {
                            Op::Neg => match tos.checked_neg() {
                                Some(v) => v,
                                None => break 'run RtError::Overflow,
                            },
                            Op::Pos | Op::ToInt => tos,
                            Op::Abs => match tos.checked_abs() {
                                Some(v) => v,
                                None => break 'run RtError::Overflow,
                            },
                            Op::Not => (tos == 0) as i64,
                            _ => return Ok(IntRun::Bail),
                        };
                    }
                    IntOp::RangeCheck(lo, hi) => {
                        if tos < lo || tos > hi {
                            break 'run RtError::RangeError { value: tos, lo, hi };
                        }
                    }
                }
                j += 1;
            }
            *fuel -= it.cost;
            return Ok(IntRun::Done(tos));
        };
        // The interpreter charged every preceding source operation plus
        // the one that failed.
        *fuel -= u64::from(it.ends[j]);
        Err(CErr::Rt(fault))
    }

    /// The instant `fs` femtoseconds from now — the one delay rule of
    /// `wait for` timeouts and signal assignments. A zero delay lands in
    /// the *next delta cycle* (`plus_fs(0)` would reset the delta and
    /// land in the past, pinning time while delta-delayed drivers starve
    /// unmatured); a negative delay is an error (VHDL-87 §8.1, §8.3).
    fn after(&self, fs: i64) -> Result<Time, RtError> {
        match fs {
            0 => Ok(self.now.next_delta()),
            1.. => Ok(self.now.plus_fs(fs as u64)),
            _ => Err(RtError::NegativeDelay(fs)),
        }
    }

    /// Suspends the process on `sens`, with an optional `wait for`
    /// timeout in fs; `resume_pc` is the instruction the next activation
    /// starts at.
    fn suspend(
        &mut self,
        proc: &mut ProcState,
        sens: &Arc<Vec<SigId>>,
        timeout_fs: Option<i64>,
        resume_pc: usize,
    ) -> Result<(), RtError> {
        let timeout = match timeout_fs {
            Some(fs) => {
                let t = self.after(fs)?;
                self.eff.timeouts.push(t);
                Some(t)
            }
            None => None,
        };
        set_pc(proc, resume_pc);
        proc.status = ProcStatus::Suspended {
            sens: Arc::clone(sens),
            timeout,
        };
        Ok(())
    }

    /// Enters subprogram `f`: its arguments (rightmost on top) leave the
    /// value stack for the new frame's first locals, and the caller
    /// resumes at `ret_pc`.
    fn push_call(&self, proc: &mut ProcState, f: FnId, ret_pc: usize) {
        let decl = &self.program.functions[f.0 as usize];
        let at = proc.stack.len() - decl.n_params as usize;
        let args = proc.stack.split_off(at);
        let mut locals = vec![Val::Int(0); decl.n_locals as usize];
        for (i, a) in args.into_iter().enumerate() {
            locals[i] = a;
        }
        // Static link: nearest frame one level shallower.
        let static_link = proc
            .frames
            .iter()
            .rposition(|fr| fr.level + 1 == decl.level);
        set_pc(proc, ret_pc);
        proc.frames.push(Frame {
            code: Arc::clone(&decl.code),
            pc: 0,
            locals,
            static_link,
            level: decl.level,
            unit: (self.program.processes.len() + f.0 as usize) as u32,
        });
    }

    /// An executed `assert`: when `cond` is false, buffer the report; at
    /// severity failure also record the activation's failure and halt
    /// the process at `pc` (`Err(CErr::Halt)` ends the activation).
    fn assert(
        &mut self,
        proc: &mut ProcState,
        cond: bool,
        report: Val,
        severity: i64,
        pc: usize,
    ) -> Result<(), CErr> {
        if cond {
            return Ok(());
        }
        let ev = ReportEvent {
            time: self.now,
            severity,
            text: report.as_string(),
        };
        if severity < 3 {
            self.eff.reports.push(ev);
            return Ok(());
        }
        self.eff.reports.push(ev.clone());
        halt(proc, pc);
        self.eff.fail(SimError::Failure(ev));
        Err(CErr::Halt)
    }

    /// The execution half of a signal assignment: validate the delay,
    /// compute the transaction time and final value (subtype conversion,
    /// element update), and buffer a [`SchedOp`]. Driver queues are
    /// untouched here — [`Simulator::commit_sched`] replays the buffered
    /// operations at the barrier, in seed scan order, so the queues land
    /// in exactly the state the unbuffered kernel produced.
    fn sched(
        &mut self,
        pid: usize,
        sig: SigId,
        value: Val,
        delay_fs: i64,
        transport: bool,
        index: Option<i64>,
    ) -> Result<(), RtError> {
        // −1 is the compiler's "no delay" marker: the next delta cycle.
        let t = self.after(if delay_fs == -1 { 0 } else { delay_fs })?;
        let sig_state = &self.signals[sig.0 as usize];
        // Array assignment implies a subtype conversion: the value takes
        // the target's bounds (same length required).
        let value = match (&value, &sig_state.current) {
            (Val::Arr(v), Val::Arr(t))
                if (v.left, v.dir) != (t.left, t.dir) && v.data.len() == t.data.len() =>
            {
                Val::Arr(crate::value::ArrVal {
                    left: t.left,
                    dir: t.dir,
                    data: Arc::clone(&v.data),
                })
            }
            _ => value,
        };
        // Element assignment: apply to the latest scheduled (or driving)
        // whole value. The latest pending value may still be in this
        // activation's effects buffer (the queue half of an earlier op
        // hasn't run yet); otherwise fall back to the live driver's tail,
        // then its driving value, then the signal's current value — the
        // driving value a driver created at commit would start with.
        let value = match index {
            None => value,
            Some(i) => {
                let base = self.eff.scheds[self.act_scheds..]
                    .iter()
                    .rev()
                    .find(|op| op.sig == sig.0)
                    .map(|op| op.value.clone())
                    .or_else(|| {
                        sig_state.drivers.iter().find(|d| d.proc == pid).map(|d| {
                            d.tx.back()
                                .map(|(_, v)| v.clone())
                                .unwrap_or_else(|| d.driving.clone())
                        })
                    })
                    .unwrap_or_else(|| sig_state.current.clone());
                store_elem(&base, i, value)?
            }
        };
        self.eff.scheds.push(SchedOp {
            sig: sig.0,
            t,
            value,
            transport,
        });
        Ok(())
    }
}

/// The translation activations run on: present only while the compiled
/// backend is selected.
fn active_translation(
    compiled: &Option<Arc<CompiledProgram>>,
    backend: Backend,
) -> Option<&Arc<CompiledProgram>> {
    compiled.as_ref().filter(|_| backend == Backend::Compiled)
}

/// Executes one worker's chunk of the cycle's ready set against the
/// shared read-only context, buffering every side effect in `buf`. Runs
/// on pool workers and (for the critical-path profile and jobs=1) on the
/// coordinator thread — identical code either way.
pub(crate) fn run_chunk(ctx: &par::Ctx, buf: &mut JobBuf) {
    let JobBuf {
        procs,
        eff,
        scratch,
        ..
    } = buf;
    let mut ex = Exec::new(
        &ctx.program,
        &ctx.signals,
        ctx.compiled.as_deref(),
        ctx.now,
        ctx.fuel_budget,
        eff,
        scratch,
    );
    for (pid, proc) in procs.iter_mut() {
        ex.run_activation(proc, *pid as usize);
    }
}

/// The seed kernel's scan-based scheduler, retained as the reference
/// stepper for the scheduler-equivalence property suite (`equiv` module):
/// `ref_next_time` scans every driver and process, `ref_step_to` re-walks
/// the whole signal and process arrays. A simulator driven exclusively
/// through `ref_*` methods ignores the calendar and sensitivity index and
/// must produce byte-identical observables to the event-driven path.
#[cfg(test)]
impl<'a> Simulator<'a> {
    pub(crate) fn ref_next_time(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        for sig in self.signals.iter() {
            for d in &sig.drivers {
                if let Some((t, _)) = d.tx.front() {
                    next = Some(next.map_or(*t, |n| n.min(*t)));
                }
            }
        }
        for p in &self.procs {
            if let ProcStatus::Suspended {
                timeout: Some(t), ..
            } = &p.status
            {
                next = Some(next.map_or(*t, |n| n.min(*t)));
            }
        }
        next
    }

    pub(crate) fn ref_step_to(&mut self, next: Time) -> Result<(), SimError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.stats.cycles += 1;
        if next.fs == self.now.fs && self.stats.cycles > 1 {
            self.stats.delta_cycles += 1;
        }
        self.now = next;
        // Clear the previous cycle's event/active flags.
        for s in self.sigs_mut().iter_mut() {
            s.event = false;
            s.active = false;
        }
        // Mature transactions and compute new signal values.
        for si in 0..self.signals.len() {
            let mut any_active = false;
            {
                let Simulator {
                    signals,
                    stats,
                    now,
                    ..
                } = &mut *self;
                let sig = &mut Arc::get_mut(signals)
                    .expect("signal state shared outside the process phase")[si];
                for d in sig.drivers.iter_mut() {
                    while d.tx.front().is_some_and(|(t, _)| *t <= *now) {
                        if let Some((_, v)) = d.tx.pop_front() {
                            d.driving = v;
                            any_active = true;
                            stats.transactions += 1;
                        }
                    }
                }
            }
            if !any_active {
                continue;
            }
            let new_val = self.effective_value(si)?;
            let now = self.now;
            let sig = &mut self.sigs_mut()[si];
            sig.active = true;
            if new_val != sig.current {
                sig.last_value = sig.current.clone();
                sig.current = new_val;
                sig.last_event = Some(now);
                sig.event = true;
                sig.events += 1;
                self.stats.events += 1;
                let name = self.program.signals[si].name.clone();
                let current = self.signals[si].current.clone();
                for obs in self.observers.iter_mut() {
                    obs(now, SigId(si as u32), &name, &current);
                }
            }
        }
        // Resume processes.
        for pi in 0..self.procs.len() {
            let resume = match &self.procs[pi].status {
                ProcStatus::Suspended { sens, timeout } => {
                    let timed_out = timeout.is_some_and(|t| t <= self.now);
                    let evented = sens.iter().any(|s| self.signals[s.0 as usize].event);
                    if timed_out || evented {
                        Some(timed_out && !evented)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(timed_out) = resume {
                self.procs[pi].status = ProcStatus::Ready;
                self.procs[pi].stack.push(Val::Int(timed_out as i64));
                self.procs[pi].resumptions += 1;
                self.stats.resumptions += 1;
            }
        }
        self.execute_ready()
    }

    pub(crate) fn ref_run_slice(
        &mut self,
        deadline: Time,
        max_cycles: u64,
    ) -> Result<RunOutcome, SimError> {
        let mut cycles: u64 = 0;
        if self.stats.cycles == 0 {
            self.execute_ready()?;
            self.stats.cycles += 1;
            cycles += 1;
        }
        loop {
            let Some(next) = self.ref_next_time() else {
                return Ok(RunOutcome::Quiescent);
            };
            if next.fs > deadline.fs {
                return Ok(RunOutcome::DeadlineReached);
            }
            if cycles >= max_cycles {
                return Ok(RunOutcome::CycleBudget);
            }
            self.ref_step_to(next)?;
            cycles += 1;
        }
    }
}

/// The `pid` of a pure function call (resolution): no process, no waits.
const PURE: usize = usize::MAX;

/// Charges one instruction; at zero the instruction is *not* executed
/// (both engines bail between fetch and dispatch).
fn charge(fuel: &mut u64) -> Result<(), CErr> {
    *fuel -= 1;
    if *fuel == 0 {
        return Err(CErr::Fuel);
    }
    Ok(())
}

fn pop(st: &mut Vec<Val>) -> Result<Val, RtError> {
    st.pop().ok_or_else(underflow)
}

/// Pops an integer (enumeration position, boolean, delay). The IR is
/// typed, so a mismatch is a code-generator bug — but it must surface as
/// a per-process [`RtError`], not a panic that takes the host (a `vhdld`
/// worker, a batch thread) down with it.
fn pop_int(st: &mut Vec<Val>) -> Result<i64, RtError> {
    want_int(&pop(st)?)
}

/// Checked view of a value as an array (see [`pop_int`] on why this is an
/// error, not a panic).
fn want_arr(v: &Val) -> Result<&ArrVal, RtError> {
    match v {
        Val::Arr(a) => Ok(a),
        v => Err(RtError::Internal(format!("expected array, got {v}"))),
    }
}

/// Checked view of a value as an integer.
fn want_int(v: &Val) -> Result<i64, RtError> {
    match v {
        Val::Int(i) => Ok(*i),
        v => Err(RtError::Internal(format!("expected integer, got {v}"))),
    }
}

fn underflow() -> RtError {
    RtError::Internal("value stack underflow".into())
}

/// Takes a step operand: the pre-evaluated tape value, or the top of the
/// process value stack for a materialized operand.
fn take(proc: &mut ProcState, pre: Option<Val>) -> Result<Val, RtError> {
    match pre {
        Some(v) => Ok(v),
        None => pop(&mut proc.stack),
    }
}

/// [`take`] with the interpreter's integer check and message.
fn take_int(proc: &mut ProcState, pre: Option<Val>) -> Result<i64, RtError> {
    want_int(&take(proc, pre)?)
}

/// Integer-domain binary operation, byte-for-byte the semantics of
/// [`rts::binop`] on two `Val::Int`s (including `checked_div` mapping the
/// `i64::MIN / -1` overflow to [`RtError::DivByZero`], as the generic
/// path does).
fn int_binop(op: Op, x: i64, y: i64) -> Result<i64, RtError> {
    use std::cmp::Ordering;
    Ok(match op {
        Op::Add => x.checked_add(y).ok_or(RtError::Overflow)?,
        Op::Sub => x.checked_sub(y).ok_or(RtError::Overflow)?,
        Op::Mul | Op::MulRev => x.checked_mul(y).ok_or(RtError::Overflow)?,
        Op::Div | Op::DivPhys => x.checked_div(y).ok_or(RtError::DivByZero)?,
        Op::Mod => x.checked_rem_euclid(y).ok_or(RtError::DivByZero)?,
        Op::Rem => x.checked_rem(y).ok_or(RtError::DivByZero)?,
        Op::Pow => u32::try_from(y)
            .ok()
            .and_then(|e| x.checked_pow(e))
            .ok_or(RtError::Overflow)?,
        Op::Eq => (x == y) as i64,
        Op::Ne => (x != y) as i64,
        Op::Lt => (x.cmp(&y) == Ordering::Less) as i64,
        Op::Le => (x.cmp(&y) != Ordering::Greater) as i64,
        Op::Gt => (x.cmp(&y) == Ordering::Greater) as i64,
        Op::Ge => (x.cmp(&y) != Ordering::Less) as i64,
        Op::And | Op::Or | Op::Nand | Op::Nor | Op::Xor => rts::logical(op, x, y),
        _ => {
            return Err(RtError::Internal(format!(
                "non-integer op {op:?} on the integer fast path"
            )))
        }
    })
}

/// Index of the frame `depth` static links up from the top one.
fn frame_at(frames: &[Frame], depth: u8) -> Result<usize, RtError> {
    let mut idx = frames.len() - 1;
    for _ in 0..depth {
        idx = frames[idx]
            .static_link
            .ok_or_else(|| RtError::Internal("missing static link".into()))?;
    }
    Ok(idx)
}

/// Where a variable store lands.
enum Place {
    /// The whole variable.
    Whole,
    /// One array element, by logical index.
    Elem(i64),
    /// One record field.
    Field(u16),
}

/// Stores `v` into variable `addr`, in whole or in part.
#[inline]
fn store_var(proc: &mut ProcState, addr: VarAddr, place: Place, v: Val) -> Result<(), RtError> {
    let fi = frame_at(&proc.frames, addr.depth)?;
    let slot = &mut proc.frames[fi].locals[addr.slot as usize];
    match place {
        Place::Whole => *slot = v,
        Place::Elem(i) => *slot = store_elem(slot, i, v)?,
        Place::Field(f) => match slot {
            Val::Rec(fields) => Arc::make_mut(fields)[f as usize] = v,
            _ => return Err(RtError::Internal("field store on non-record".into())),
        },
    }
    Ok(())
}

/// Replaces element `idx` in an array value (copy-on-write).
fn store_elem(base: &Val, idx: i64, v: Val) -> Result<Val, RtError> {
    match base {
        Val::Arr(a) => {
            let off = a.offset(idx).ok_or(RtError::IndexError { index: idx })?;
            let mut data = (*a.data).clone();
            data[off] = v;
            Ok(Val::Arr(crate::value::ArrVal {
                left: a.left,
                dir: a.dir,
                data: Arc::new(data),
            }))
        }
        _ => Err(RtError::Internal("element store on non-array".into())),
    }
}

/// Records `pc` in the active frame (a suspension or halt point).
fn set_pc(proc: &mut ProcState, pc: usize) {
    proc.frames.last_mut().expect("frame").pc = pc;
}

/// Ends the process for good at `pc`.
fn halt(proc: &mut ProcState, pc: usize) {
    set_pc(proc, pc);
    proc.status = ProcStatus::Halted;
}

/// Leaves the active frame at `pc` — a `return`, or running off the end
/// of the code: a subprogram frame pops back to its caller (returns
/// `true`); the process frame halts the process (returns `false`).
fn leave_frame(proc: &mut ProcState, pc: usize) -> bool {
    if proc.frames.len() > 1 {
        proc.frames.pop();
        return true;
    }
    halt(proc, pc);
    false
}
