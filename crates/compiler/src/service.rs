//! A hand-rolled thread-pool batch server over the incremental cache:
//! the "compilation as a service" half of ROADMAP item 2.
//!
//! The workspace takes no async-runtime dependency, so the service is
//! the classic bounded-queue worker pool: [`CompileService::start`]
//! spawns `N` workers sharing one receiver behind a mutex, submissions
//! go through a bounded [`std::sync::mpsc::sync_channel`] (back
//! pressure instead of unbounded memory growth), every request carries
//! its own reply channel, and shutdown is graceful — dropping the
//! sender lets the workers drain the queue and exit, and
//! [`CompileService::shutdown`] (or `Drop`) joins them.
//!
//! Every request runs [`CompileCache::compile_cached`], so the trust
//! discipline of [`crate::cache`] — hit re-validation, poisoned-entry
//! eviction — applies unchanged under concurrency: the cache is shared
//! and thread-safe, the certifier is `Sync`. A request that panics is
//! answered with [`CacheError::Panicked`] and counted
//! ([`CompileService::panics`]); its worker goes on serving.

use crate::cache::{CacheError, CachedCompilation, Certifier, CompileCache, RecheckDepth};
use ccc_clight::ClightModule;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Service sizing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceCfg {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue capacity: submissions beyond `queue_cap` pending
    /// jobs block ([`CompileService::submit`]) or bounce
    /// ([`CompileService::try_submit`]).
    pub queue_cap: usize,
    /// Re-check depth applied on every cache hit.
    pub depth: RecheckDepth,
}

impl Default for ServiceCfg {
    fn default() -> ServiceCfg {
        ServiceCfg {
            workers: 4,
            queue_cap: 64,
            depth: RecheckDepth::Structural,
        }
    }
}

/// The reply channel of one submission: yields the compile-and-validate
/// result once a worker has processed the request.
pub type CompileReply = Receiver<Result<CachedCompilation, CacheError>>;

struct Job {
    module: ClightModule,
    reply: mpsc::Sender<Result<CachedCompilation, CacheError>>,
}

/// The batch compile-and-validate server.
pub struct CompileService {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<AtomicU64>,
}

impl std::fmt::Debug for CompileService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileService")
            .field("workers", &self.workers.len())
            .field("accepting", &self.tx.is_some())
            .finish()
    }
}

impl CompileService {
    /// Spawns the worker pool over a shared cache and certifier.
    #[must_use]
    pub fn start(
        cache: Arc<CompileCache>,
        certifier: Arc<dyn Certifier>,
        cfg: &ServiceCfg,
    ) -> CompileService {
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cache = Arc::clone(&cache);
                let certifier = Arc::clone(&certifier);
                let panics = Arc::clone(&panics);
                let depth = cfg.depth;
                std::thread::Builder::new()
                    .name(format!("ccc-compile-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the dequeue, not
                        // for the compilation.
                        let job = rx.lock().expect("service queue lock").recv();
                        let Ok(job) = job else { break };
                        // The cache holds no lock across the pipeline
                        // or the certifier, so after a panic it is as
                        // usable as before.
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            cache.compile_cached(&job.module, certifier.as_ref(), depth)
                        }))
                        .unwrap_or_else(|payload| {
                            panics.fetch_add(1, Ordering::Relaxed);
                            Err(CacheError::Panicked(panic_message(payload.as_ref())))
                        });
                        // A dropped reply receiver just means the
                        // client lost interest; the work (and the cache
                        // fill) still happened.
                        let _ = job.reply.send(res);
                    })
                    .expect("spawn service worker")
            })
            .collect();
        CompileService {
            tx: Some(tx),
            workers,
            panics,
        }
    }

    /// Requests that panicked so far (each answered with
    /// [`CacheError::Panicked`]).
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Enqueues one compile+validate request, blocking while the queue
    /// is full. Returns the per-request reply channel.
    ///
    /// # Panics
    ///
    /// Panics if called after [`CompileService::shutdown`] began (the
    /// queue is closed).
    #[must_use]
    pub fn submit(&self, module: ClightModule) -> CompileReply {
        let (reply, rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("service is running")
            .send(Job { module, reply })
            .expect("service accepts requests until shutdown");
        rx
    }

    /// Non-blocking [`CompileService::submit`]: bounces the module back
    /// when the queue is full (or the service is shutting down) so the
    /// caller can apply its own back-pressure policy.
    ///
    /// # Errors
    ///
    /// Returns the module unchanged when it could not be enqueued.
    pub fn try_submit(&self, module: ClightModule) -> Result<CompileReply, ClightModule> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(module);
        };
        let (reply, rx) = mpsc::channel();
        match tx.try_send(Job { module, reply }) {
            Ok(()) => Ok(rx),
            Err(TrySendError::Full(j) | TrySendError::Disconnected(j)) => Err(j.module),
        }
    }

    /// Graceful shutdown: stops accepting, lets the workers drain every
    /// already-enqueued job, and joins them. Dropping the service does
    /// the same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The message of a caught panic (`panic!` payloads are a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|m| (*m).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TrustingCertifier;
    use ccc_clight::ast::{Expr, Function, Stmt};

    fn module(k: i64) -> ClightModule {
        ClightModule::new([(
            "f",
            Function::simple(Stmt::Return(Some(Expr::add(
                Expr::Const(k),
                Expr::Const(1),
            )))),
        )])
    }

    #[test]
    fn concurrent_submissions_all_complete_and_share_the_cache() {
        let cache = Arc::new(CompileCache::new());
        let svc = CompileService::start(
            Arc::clone(&cache),
            Arc::new(TrustingCertifier),
            &ServiceCfg {
                workers: 3,
                queue_cap: 8,
                depth: RecheckDepth::Structural,
            },
        );
        // Warm the cache sequentially (concurrent first-compiles of the
        // same module may legitimately race to duplicate misses), then
        // hammer it: every warm request must be a hit.
        for i in 0..6 {
            svc.submit(module(i))
                .recv()
                .expect("reply")
                .expect("compiles");
        }
        cache.reset_stats();
        let replies: Vec<_> = (0..24).map(|i| svc.submit(module(i % 6))).collect();
        for r in replies {
            r.recv().expect("reply").expect("compiles");
        }
        svc.shutdown();
        let stats = cache.stats();
        assert_eq!(stats.hits, 24, "{stats:?}");
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert_eq!(stats.rejected, 0, "{stats:?}");
    }

    /// Certifies every module except its own, on which it panics.
    struct PanicsOn(ClightModule);

    impl Certifier for PanicsOn {
        fn certify(&self, arts: &crate::CompilationArtifacts) -> Result<String, String> {
            assert!(arts.clight != self.0, "certifier bug");
            Ok(String::new())
        }

        fn recheck(
            &self,
            _arts: &crate::CompilationArtifacts,
            _witness_json: &str,
            _depth: RecheckDepth,
        ) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn panicking_requests_get_error_replies_and_workers_survive() {
        let poison = module(99);
        let svc = CompileService::start(
            Arc::new(CompileCache::new()),
            Arc::new(PanicsOn(poison.clone())),
            &ServiceCfg {
                workers: 2,
                queue_cap: 4,
                depth: RecheckDepth::Structural,
            },
        );
        // More poisoned requests than workers, then clean ones: without
        // the catch every worker dies and `submit` panics.
        for round in 0..2 {
            for _ in 0..5 {
                match svc.submit(poison.clone()).recv().expect("reply") {
                    Err(CacheError::Panicked(msg)) => assert!(msg.contains("certifier bug")),
                    other => panic!("poisoned request answered {other:?}"),
                }
            }
            let replies: Vec<_> = (0..4).map(|i| svc.submit(module(round * 10 + i))).collect();
            for r in replies {
                r.recv().expect("reply").expect("clean request compiles");
            }
        }
        assert_eq!(svc.panics(), 10);
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_enqueued_work() {
        let cache = Arc::new(CompileCache::new());
        let svc = CompileService::start(
            Arc::clone(&cache),
            Arc::new(TrustingCertifier),
            &ServiceCfg {
                workers: 1,
                queue_cap: 16,
                depth: RecheckDepth::Structural,
            },
        );
        let replies: Vec<_> = (0..10).map(|i| svc.submit(module(i))).collect();
        svc.shutdown();
        for r in replies {
            r.recv().expect("drained before exit").expect("compiles");
        }
    }

    #[test]
    fn try_submit_bounces_when_full() {
        // Zero workers is clamped to one; a tiny queue plus slow drain
        // is hard to make deterministic, so test the closed-queue path
        // via Drop ordering instead: after shutdown, try_submit errors.
        let cache = Arc::new(CompileCache::new());
        let mut svc = CompileService::start(
            Arc::clone(&cache),
            Arc::new(TrustingCertifier),
            &ServiceCfg::default(),
        );
        assert!(svc.try_submit(module(1)).is_ok());
        svc.shutdown_in_place();
        assert!(svc.try_submit(module(2)).is_err());
    }
}
