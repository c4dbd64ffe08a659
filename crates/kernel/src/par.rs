//! The delta-cycle worker pool: long-lived named threads with one
//! mailbox slot each, no work stealing. Each cycle the coordinator
//! hands every worker an owned chunk of ready processes plus a shared
//! read-only cycle context ([`Ctx`]); workers execute the chunk with
//! [`crate::sim::run_chunk`], buffering every side effect locally, and
//! post the buffer back. All mutation happens on the coordinator at the
//! cycle barrier, in seed scan order — so the observable outcome never
//! depends on thread scheduling, only on the partition, which is itself
//! a pure function of the ready set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::compile::CompiledProgram;
use crate::isa::Program;
use crate::sim::{run_chunk, JobBuf};
use crate::value::Time;

/// The read-only cycle context shared by every worker during one
/// process phase. Holding clones of the simulator's `Arc`s is what
/// makes the phase safe: the coordinator cannot regain `Arc::get_mut`
/// access to the signal table until every worker has dropped its clone,
/// which happens before the worker posts its results back.
pub(crate) struct Ctx {
    pub(crate) program: Arc<Program>,
    pub(crate) signals: Arc<Vec<crate::sim::SigState>>,
    /// The translation to run on; `None` under the interpreter.
    pub(crate) compiled: Option<Arc<CompiledProgram>>,
    pub(crate) now: Time,
    pub(crate) fuel_budget: u64,
}

impl Ctx {
    fn clone_for_worker(&self) -> Ctx {
        Ctx {
            program: Arc::clone(&self.program),
            signals: Arc::clone(&self.signals),
            compiled: self.compiled.clone(),
            now: self.now,
            fuel_budget: self.fuel_budget,
        }
    }
}

/// One worker's mailbox. `Empty` → idle; the coordinator moves a job
/// in, the worker moves its finished buffer back.
enum Mail {
    Empty,
    Job(Ctx, JobBuf),
    Done(JobBuf),
}

struct Slot {
    mail: Mutex<Mail>,
    cv: Condvar,
    quit: AtomicBool,
}

struct Worker {
    slot: Arc<Slot>,
    join: Option<JoinHandle<()>>,
}

/// A fixed pool of simulation workers, created lazily on the first
/// parallel cycle and kept for the simulator's lifetime.
pub(crate) struct Pool {
    workers: Vec<Worker>,
}

/// Locks a slot's mailbox, recovering from poisoning: a worker that
/// panicked mid-job leaves the mail in whatever state it reached, and
/// shutdown must still proceed.
fn lock_mail(slot: &Slot) -> MutexGuard<'_, Mail> {
    slot.mail.lock().unwrap_or_else(|p| p.into_inner())
}

impl Pool {
    pub(crate) fn new(jobs: usize) -> Pool {
        let mut workers = Vec::with_capacity(jobs);
        for i in 0..jobs {
            let slot = Arc::new(Slot {
                mail: Mutex::new(Mail::Empty),
                cv: Condvar::new(),
                quit: AtomicBool::new(false),
            });
            let ws = Arc::clone(&slot);
            let join = std::thread::Builder::new()
                .name(format!("sim-worker-{i}"))
                .spawn(move || worker_loop(&ws))
                .expect("spawn simulation worker");
            workers.push(Worker {
                slot,
                join: Some(join),
            });
        }
        Pool { workers }
    }

    /// Runs one process phase: dispatches every non-empty buffer to its
    /// worker, then blocks until all dispatched workers post back.
    /// Buffers are moved out and back in place, so `bufs[w]` still
    /// belongs to worker `w` afterwards.
    pub(crate) fn run(&self, ctx: &Ctx, bufs: &mut [JobBuf]) {
        debug_assert!(bufs.len() <= self.workers.len());
        debug_assert!(bufs.len() <= u64::BITS as usize);
        let mut dispatched: u64 = 0;
        for (w, buf) in bufs.iter_mut().enumerate() {
            if buf.procs.is_empty() {
                continue;
            }
            let job = std::mem::take(buf);
            let slot = &self.workers[w].slot;
            {
                let mut mail = lock_mail(slot);
                *mail = Mail::Job(ctx.clone_for_worker(), job);
            }
            slot.cv.notify_one();
            dispatched |= 1 << w;
        }
        for (w, buf) in bufs.iter_mut().enumerate() {
            if dispatched & (1 << w) == 0 {
                continue;
            }
            let slot = &self.workers[w].slot;
            let mut mail = lock_mail(slot);
            loop {
                if let Mail::Done(_) = &*mail {
                    let Mail::Done(done) = std::mem::replace(&mut *mail, Mail::Empty) else {
                        unreachable!()
                    };
                    *buf = done;
                    break;
                }
                mail = slot.cv.wait(mail).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for w in &self.workers {
            // Set the flag under the lock so a worker between its wake
            // check and its wait cannot miss the notification.
            let _mail = lock_mail(&w.slot);
            w.slot.quit.store(true, Ordering::Release);
            drop(_mail);
            w.slot.cv.notify_all();
        }
        for w in &mut self.workers {
            if let Some(j) = w.join.take() {
                let _ = j.join();
            }
        }
    }
}

fn worker_loop(slot: &Slot) {
    loop {
        let (ctx, mut buf) = {
            let mut mail = lock_mail(slot);
            loop {
                if slot.quit.load(Ordering::Acquire) {
                    return;
                }
                if let Mail::Job(..) = &*mail {
                    let Mail::Job(ctx, buf) = std::mem::replace(&mut *mail, Mail::Empty) else {
                        unreachable!()
                    };
                    break (ctx, buf);
                }
                mail = slot.cv.wait(mail).unwrap_or_else(|p| p.into_inner());
            }
        };
        run_chunk(&ctx, &mut buf);
        // Release the context's `Arc`s *before* posting the result: once
        // the coordinator sees `Done` for every worker it expects sole
        // ownership of the signal table again.
        drop(ctx);
        let mut mail = lock_mail(slot);
        *mail = Mail::Done(buf);
        drop(mail);
        slot.cv.notify_all();
    }
}
