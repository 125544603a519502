//! `serve`: the 20 modules of the seeded program, already warm in a
//! `CompileCache`, served through a `CompileService`. One operation is
//! a whole-program batch: submit 20 requests, then wait for all 20
//! replies, each of which must be a hit.
//!
//! The client and the service's worker are pinned to one core, a
//! different one at each set-up, so that a run's set-ups take the cores
//! in turn. The client blocks while the worker serves, so a batch hands
//! control back and forth about twenty times; across cores each
//! hand-off is a wake-up of the other virtual CPU, whose latency on a
//! shared virtual machine depends on the other tenants. On the 2-core
//! machine this was written on, unpinned runs of 5 s gave `op_ms.p90`
//! from 0.97 to 2.4 ms within ten minutes; pinned runs, 0.83 to 0.93 ms.

use crate::layers;
use crate::program::{self, MODULES};
use crate::trace;
use crate::Workload;
use ccc_clight::ClightModule;
use ccc_compiler::cache::{CompileCache, RecheckDepth};
use ccc_compiler::{CompileService, ServiceCfg};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Service workers. A hit costs tens of microseconds, so a second
/// worker adds contention on the shared queue and cache locks and more
/// thread wake-ups per batch rather than throughput: on the 2-core
/// machine this was written on, 1 worker served 1.6k-1.9k batches/s
/// within 7% across runs, 2 workers 0.9k-1.5k.
const WORKERS: usize = 1;
/// Untimed batches at the end of set-up.
const WARM_UP_BATCHES: usize = 50;

/// A CPU set as the kernel's affinity calls take it (1024 cores).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The cores the process may run on, as it started.
fn allowed_cores() -> Result<&'static [usize], String> {
    static CORES: OnceLock<Vec<usize>> = OnceLock::new();
    if let Some(cores) = CORES.get() {
        return Ok(cores);
    }
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live CPU set of exactly the size passed, which
    // the call writes within; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cores = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    Ok(CORES.get_or_init(|| cores))
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the next of the allowed cores in turn.
fn pin_to_next_core() -> Result<(), String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let cores = allowed_cores()?;
    let core = cores[NEXT.fetch_add(1, Ordering::Relaxed) % cores.len()];
    let mut mask: CpuSet = [0; 16];
    mask[core / 64] |= 1 << (core % 64);
    // SAFETY: `mask` is a live, initialised CPU set of exactly the size
    // passed, which the call only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

pub struct Serve {
    modules: Vec<ClightModule>,
    cache: Arc<CompileCache>,
    service: CompileService,
}

impl Serve {
    pub fn setup(seed: u64) -> Result<Serve, String> {
        let modules: Vec<ClightModule> =
            program::units(seed).into_iter().map(|u| u.module).collect();
        let cache = Arc::new(layers::cache());
        pin_to_next_core()?;
        let certifier = layers::certifier();
        for m in &modules {
            cache
                .compile_cached(m, &*certifier, RecheckDepth::Structural)
                .map_err(|e| format!("populate: {e:?}"))?;
        }
        let service = CompileService::start(
            Arc::clone(&cache),
            certifier,
            &ServiceCfg {
                workers: WORKERS,
                ..ServiceCfg::default()
            },
        );
        let mut w = Serve {
            modules,
            cache,
            service,
        };
        for _ in 0..WARM_UP_BATCHES {
            w.run(0, 0)?;
        }
        Ok(w)
    }
}

impl Workload for Serve {
    fn pass_len(&self) -> usize {
        1
    }

    fn class(&self, _i: usize) -> &'static str {
        "batch"
    }

    fn run(&mut self, _pass: usize, _i: usize) -> Result<(), String> {
        let before = self.cache.stats();
        let replies: Vec<_> = self
            .modules
            .iter()
            .map(|m| {
                let m = m.clone();
                trace::span("service.submit", || self.service.submit(m))
            })
            .collect();
        for (i, r) in replies.into_iter().enumerate() {
            let served = trace::span("service.reply", || r.recv())
                .map_err(|_| format!("request {i}: service dropped the reply"))?
                .map_err(|e| format!("request {i}: {e:?}"))?;
            if !served.outcome.is_hit() {
                return Err(format!("request {i} was served as {:?}", served.outcome));
            }
        }
        let d = layers::cache_delta(&before, &self.cache.stats());
        if d.hits != MODULES as u64 {
            return Err(format!("batch moved the cache counters by {d:?}"));
        }
        Ok(())
    }
}
