//! The traced stand-ins for the layers the library composes internally,
//! and the per-layer metrics a traced run reports.

use crate::stats::{median, Metric};
use crate::trace::{self, Span};
use ccc_analysis::sepcomp::TransvalCertifier;
use ccc_clight::ClightModule;
use ccc_compiler::cache::{CacheStats, Certifier, CompileCache, RecheckDepth};
use ccc_compiler::{CompilationArtifacts, CompileError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// [`TransvalCertifier`] inside `transval.*` spans.
pub struct TracedCertifier;

impl Certifier for TracedCertifier {
    fn certify(&self, arts: &CompilationArtifacts) -> Result<String, String> {
        trace::span("transval.certify", || TransvalCertifier.certify(arts))
    }

    fn recheck(
        &self,
        arts: &CompilationArtifacts,
        witness_json: &str,
        depth: RecheckDepth,
    ) -> Result<(), String> {
        trace::span("transval.recheck", || {
            TransvalCertifier.recheck(arts, witness_json, depth)
        })
    }
}

fn traced_pipeline(m: &ClightModule) -> Result<CompilationArtifacts, CompileError> {
    trace::span("compiler.compile", || {
        ccc_compiler::compile_with_artifacts(m)
    })
}

/// A memory-only cache over the standard pipeline; when tracing, the
/// pipeline runs inside `compiler.compile` spans.
pub fn cache() -> CompileCache {
    if trace::enabled() {
        CompileCache::with_pipeline(traced_pipeline)
    } else {
        CompileCache::new()
    }
}

/// The certifier the cache and service use: the library's own, or the
/// traced wrapper when tracing. Workloads take it once, at set-up, and
/// lend it to every build.
pub fn certifier() -> Arc<dyn Certifier> {
    if trace::enabled() {
        Arc::new(TracedCertifier)
    } else {
        Arc::new(TransvalCertifier)
    }
}

/// The cache counters that moved between two snapshots, also added to
/// the trace's `cache.*` counts.
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    let d = CacheStats {
        hits: after.hits - before.hits,
        disk_hits: after.disk_hits - before.disk_hits,
        misses: after.misses - before.misses,
        rejected: after.rejected - before.rejected,
        cert_hits: after.cert_hits - before.cert_hits,
        cert_misses: after.cert_misses - before.cert_misses,
    };
    trace::count("cache.hits", d.hits);
    trace::count("cache.misses", d.misses);
    trace::count("cache.disk_hits", d.disk_hits);
    trace::count("cache.rejected", d.rejected);
    trace::count("cache.cert_hits", d.cert_hits);
    trace::count("cache.cert_misses", d.cert_misses);
    d
}

/// `(metric, span)`: the metric is the span's median duration per call.
const TIMED: [(&str, &str); 17] = [
    ("compiler.compile_ms", "compiler.compile"),
    ("transval.certify_ms", "transval.certify"),
    ("rg_cert.infer_ms", "rg_cert.infer"),
    ("rg_cert.check_ms", "rg_cert.check"),
    ("sepcomp.link_ms", "sepcomp.link"),
    ("cache.hit_ms", "cache.hit"),
    ("cache.miss_ms", "cache.miss"),
    ("cache.disk_hit_ms", "cache.disk_hit"),
    ("service.submit_ms", "service.submit"),
    ("service.reply_ms", "service.reply"),
    ("race.drf_ms", "race.drf"),
    ("race.npdrf_ms", "race.npdrf"),
    ("refine.traces_ms", "refine.traces"),
    ("refine.check_ms", "refine.check"),
    ("fuzz.gen_ms", "fuzz.gen"),
    ("fuzz.oracle_seq_ms", "fuzz.oracle_seq"),
    ("fuzz.oracle_conc_ms", "fuzz.oracle_conc"),
];

/// Counters reported as they are.
const COUNTED: [&str; 11] = [
    "transval.obligations",
    "rg_cert.summaries",
    "sepcomp.obligations",
    "cache.hits",
    "cache.misses",
    "cache.disk_hits",
    "cache.rejected",
    "cache.cert_hits",
    "cache.cert_misses",
    "explore.states",
    "explore.truncated",
];

/// Spans whose time is exploration.
const EXPLORING: [&str; 3] = ["race.drf", "race.npdrf", "refine.traces"];

/// Every per-layer metric; a layer the workload does not reach reads 0.
pub fn per_layer(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> Vec<Metric> {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let mut out: Vec<Metric> = TIMED
        .iter()
        .map(|&(metric, span)| Metric::new(metric, median(&durations(span)), "ms"))
        .collect();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    out.extend(
        COUNTED
            .iter()
            .map(|&name| Metric::new(name, count(name) as f64, "count")),
    );
    let explore_s: f64 = EXPLORING
        .iter()
        .flat_map(|name| durations(name))
        .sum::<f64>()
        / 1e3;
    let states_per_s = if explore_s > 0.0 {
        count("explore.states") as f64 / explore_s
    } else {
        0.0
    };
    out.push(Metric::new("explore.states_per_s", states_per_s, "1/s"));
    let scoreboard_s = durations("fuzz.scoreboard").iter().sum::<f64>() / 1e3;
    out.push(Metric::new("fuzz.scoreboard_s", scoreboard_s, "s"));
    out
}
