//! End-to-end benchmark of the three things users run: a certified
//! separate build (`sepbuild`, `serve`), a DRF/NPDRF/refinement verdict
//! (`verdict`) and a fuzz campaign (`fuzz`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sepbuild --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client. Whole passes over the
//! workload's operations run until the pass boundary nearest to
//! `--seconds` of measured time (or exactly `--passes N` passes). Every
//! operation's output is checked. Set-up (input generation, cache
//! population and a warm-up pass) runs once before the window and, in
//! untimed pauses of it, again at evenly spaced points, each time
//! replacing the workload instance; `setup_s` is the median.
//! The last line of standard output is the result as one JSON object; the line
//! before it, starting `detail `, carries every figure of the run,
//! including the workload-specific ones. With `--trace 1` spans and
//! counts are recorded around every call into a layer and written to
//! `perfbench/out/trace-<workload>-<seed>.json`, and the result holds
//! the per-layer metrics instead of the end-to-end ones.
//!
//! `--workload regen-verdicts` rewrites `perfbench/data/verdicts.txt`, the
//! expected answers of the `verdict` workload, with the unreduced
//! sequential oracle.

mod fuzz;
mod layers;
mod program;
mod sepbuild;
mod serve;
mod stats;
mod trace;
mod verdict;

use stats::{percentile, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How many times set-up runs in an untraced, timed run; `setup_s` is
/// the median. Contention from other tenants comes in phases lasting
/// seconds, so the set-ups are spread over the whole run rather than
/// run back to back, where they would all land in one phase.
const SETUPS: usize = 10;

/// One benchmark workload after set-up.
pub trait Workload {
    /// Operations in one pass. Runs stop only at pass boundaries, so
    /// every run sees whole passes of the same operation mix.
    fn pass_len(&self) -> usize;
    /// The class of operation `i` of a pass.
    fn class(&self, i: usize) -> &'static str;
    /// The class `op_ms` is taken over (`None`: every operation).
    fn latency_class(&self) -> Option<&'static str> {
        None
    }
    /// Whether operation `i` does the same work in every pass, so that
    /// `ops_per_s` and `op_ms` are taken over each operation's median
    /// across the run's passes rather than over every sample: a pass
    /// that falls in a phase of contention from other tenants then
    /// moves no figure unless most passes do.
    fn repeats_per_pass(&self) -> bool {
        false
    }
    /// Runs operation `i` of pass `pass` and checks its output.
    fn run(&mut self, pass: usize, i: usize) -> Result<(), String>;
    /// Traced runs only, after operation `i` and outside its span and
    /// timing: calls the layers the operation ran hidden inside the
    /// library again on the same input, in spans of their own, and
    /// counts what is too costly to count inside the operation.
    fn price(&mut self, _pass: usize, _i: usize) -> Result<(), String> {
        Ok(())
    }
    /// Untimed work after the measured window, with the metrics it
    /// yields.
    fn finish(&mut self) -> Result<Vec<Metric>, String> {
        Ok(Vec::new())
    }
}

/// Where runs leave their trace files and scratch directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .map(|i| {
                argv.get(i + 1)
                    .cloned()
                    .ok_or(format!("{flag} needs a value"))
            })
            .transpose()
    };
    let workload = get("--workload")?.ok_or("--workload is required")?;
    let num = |flag: &str, default: &str| -> Result<String, String> {
        Ok(get(flag)?.unwrap_or_else(|| default.to_string()))
    };
    let seed = num("--seed", "1")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = num("--seconds", "25")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match num("--trace", "0")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let passes = get("--passes")?
        .map(|p| p.parse().map_err(|e| format!("--passes: {e}")))
        .transpose()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        passes,
    })
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sepbuild" => Box::new(sepbuild::SepBuild::setup(seed)?),
        "serve" => Box::new(serve::Serve::setup(seed)?),
        "verdict" => Box::new(verdict::Verdicts::setup(seed)?),
        "fuzz" => Box::new(fuzz::Fuzz::setup(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// One timed operation: operation `i` of its pass.
struct Sample {
    i: usize,
    class: &'static str,
    ms: f64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "regen-verdicts" {
        verdict::regenerate();
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.trace {
        trace::enable();
    }

    let mut setup_times = Vec::new();
    let t = Instant::now();
    let mut w = setup(&args.workload, args.seed)?;
    setup_times.push(t.elapsed().as_secs_f64());
    trace::reset();
    // Set-ups inside the window would add their spans and counts to a
    // traced run, and a fixed number of passes has no time to spread
    // them over: both set up once.
    let setups = if args.trace || args.passes.is_some() {
        1
    } else {
        SETUPS
    };
    // Replaces the instance with a freshly set-up one. The old instance
    // is dropped first so instances never overlap (a service's workers
    // count against the thread limit). Every workload's operations
    // depend only on the instance's state right after set-up.
    let replace = |old: Box<dyn Workload>, times: &mut Vec<f64>| {
        drop(old);
        let t = Instant::now();
        let w = setup(&args.workload, args.seed)?;
        times.push(t.elapsed().as_secs_f64());
        Ok::<_, String>(w)
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut op_id = 0u64;
    let mut pass = 0usize;
    // Time spent in later set-ups, and pricing hidden layers in traced
    // runs, which is not part of the measured window.
    let mut outside = Duration::ZERO;
    let t0 = Instant::now();
    loop {
        let pass_start = t0.elapsed() - outside;
        for i in 0..w.pass_len() {
            let due = budget.mul_f64(setup_times.len() as f64 / setups as f64);
            if setup_times.len() < setups && t0.elapsed() - outside >= due {
                let t = Instant::now();
                w = replace(w, &mut setup_times)?;
                outside += t.elapsed();
            }
            op_id += 1;
            trace::set_op(op_id);
            let class = w.class(i);
            let t = Instant::now();
            let mut res = catch_unwind(AssertUnwindSafe(|| trace::span(class, || w.run(pass, i))));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            trace::set_op(0);
            if args.trace && matches!(res, Ok(Ok(()))) {
                let t = Instant::now();
                res = catch_unwind(AssertUnwindSafe(|| w.price(pass, i)));
                outside += t.elapsed();
            }
            samples.push(Sample { i, class, ms });
            match res {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failures.push(format!("pass {pass} op {i} ({class}): {e}")),
                Err(_) => failures.push(format!("pass {pass} op {i} ({class}): panicked")),
            }
        }
        pass += 1;
        // Stop at the pass boundary nearest to the time budget, so runs
        // with long passes last `--seconds` on average.
        let elapsed = t0.elapsed() - outside;
        let done = match args.passes {
            Some(n) => pass >= n,
            None => elapsed + (elapsed - pass_start) / 2 >= budget,
        };
        if done {
            break;
        }
    }
    let window_s = (t0.elapsed() - outside).as_secs_f64();
    // A run that stopped short of the last set-up points makes up the
    // rest, so every run reports the median of the same number.
    while setup_times.len() < setups {
        w = replace(w, &mut setup_times)?;
    }

    let finish = catch_unwind(AssertUnwindSafe(|| w.finish()))
        .unwrap_or_else(|_| Err("post-window work panicked".to_string()));
    // Post-window spans (the fuzz scoreboard) are per-layer figures too.
    let (spans, counts) = (trace::spans(), trace::counts());
    let latency_class = w.latency_class();
    // `ops_per_s` and `op_ms` are taken over one median sample per
    // operation of a pass, or over every sample as measured.
    let medians = w.repeats_per_pass().then(|| {
        let mut by_op = vec![Vec::new(); w.pass_len()];
        for s in &samples {
            by_op[s.i].push(s.ms);
        }
        by_op
            .iter()
            .enumerate()
            .map(|(i, xs)| Sample {
                i,
                class: w.class(i),
                ms: stats::median(xs),
            })
            .collect::<Vec<_>>()
    });
    drop(w);

    for f in failures.iter().take(10) {
        eprintln!("perfbench: FAILED {f}");
    }
    if let Err(e) = &finish {
        eprintln!("perfbench: FAILED after the window: {e}");
    }
    let attempted = samples.len();
    let failed = failures.len();
    let ops_per_s = match &medians {
        Some(m) => m.len() as f64 * 1e3 / m.iter().map(|s| s.ms).sum::<f64>(),
        None => attempted as f64 / window_s,
    };
    let op_ms: Vec<f64> = medians
        .as_deref()
        .unwrap_or(&samples)
        .iter()
        .filter(|s| latency_class.is_none_or(|c| s.class == c))
        .map(|s| s.ms)
        .collect();
    let e2e = vec![
        Metric::new("setup_s", stats::median(&setup_times), "s"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb()?, "MB"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("op_ms.p50", percentile(&op_ms, 50.0), "ms"),
        Metric::new("op_ms.p90", percentile(&op_ms, 90.0), "ms"),
    ];

    // Everything else goes to the detail line only.
    let mut detail = e2e.clone();
    detail.push(Metric::new(
        "failed_ratio",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    let mut classes: Vec<&'static str> = samples.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    for c in classes {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.ms)
            .collect();
        detail.push(Metric::new(
            format!("{c}_ms.p50"),
            percentile(&xs, 50.0),
            "ms",
        ));
        detail.push(Metric::new(
            format!("{c}_ms.p90"),
            percentile(&xs, 90.0),
            "ms",
        ));
        detail.push(Metric::new(
            format!("{c}.samples"),
            xs.len() as f64,
            "count",
        ));
    }
    detail.push(Metric::new("op.samples", op_ms.len() as f64, "count"));
    detail.push(Metric::new("window_s", window_s, "s"));
    detail.push(Metric::new("passes", pass as f64, "count"));
    let correct = failures.is_empty() && finish.is_ok();
    detail.extend(finish.unwrap_or_default());

    let reported = if args.trace {
        layers::per_layer(&spans, &counts)
    } else {
        e2e
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let stem = format!("{}-{}", args.workload, args.seed);
    let file = if args.trace {
        out.join(format!("trace-{stem}.json"))
    } else {
        out.join(format!("e2e-{stem}.json"))
    };
    let body = if args.trace {
        format!(
            "{{\"detail\": {},\n\"trace\": {}}}\n",
            stats::metrics_json(&detail),
            trace::to_json(&spans, &counts)
        )
    } else {
        format!("{{\"detail\": {}}}\n", stats::metrics_json(&detail))
    };
    std::fs::write(&file, body).map_err(|e| format!("write {}: {e}", file.display()))?;

    for m in &detail {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("detail {}", stats::metrics_json(&detail));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        correct,
        stats::metrics_json(&reported)
    );
    Ok(())
}
