//! The repository benchmark: seeded workloads simulated end to end on one
//! host thread, every result checked against the golden interpreter.
//!
//! ```text
//! perfbench --workload <ooo_compute|ooo_memory|multicore_tso|sampled_ckpt>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` interleaves
//! traced and untraced units and prints the per-layer metrics plus the
//! tracing overhead. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod alloc;
mod gen;
mod layers;
mod ledger;
mod probe;
mod trace;
mod units;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use crate::gen::Workload;
use crate::ledger::{mean, median, median_f, Ledger};
use crate::probe::Probe;
use crate::trace::Spans;
use crate::units::{run_unit, template, Mode, Outcome, Template};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or(format!("`{k}` needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
        },
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{k}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Failure bookkeeping: a failed unit is counted, never fatal.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    fn record(&mut self, failure: Option<&str>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            *self.reasons.entry(f.to_string()).or_insert(0) += 1;
        }
    }
}

/// Compares a unit's simulated signature with the first repetition's.
fn check_repeat(first: &mut Option<Vec<u64>>, o: &mut Outcome) {
    if o.failure.is_some() {
        return;
    }
    match first {
        None => *first = Some(o.signature.clone()),
        Some(f) if *f != o.signature => {
            o.failure = Some(format!(
                "repetition differs: {:?} vs first {f:?}",
                o.signature
            ));
        }
        Some(_) => {}
    }
}

/// Guest instructions and host ns of one round of one mode.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    insts: u64,
    ns: u64,
    scaled_ns: f64,
}

impl Round {
    /// Kilo-instructions per raw host second.
    fn raw_kips(self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.insts as f64 * 1e6 / self.ns as f64
        }
    }

    /// Kilo-instructions per reference-host second.
    fn kips(self) -> f64 {
        if self.scaled_ns > 0.0 {
            self.insts as f64 * 1e6 / self.scaled_ns
        } else {
            0.0
        }
    }
}

/// Everything one invocation measured.
struct Run {
    tally: Tally,
    rounds: Vec<Round>,
    traced_rounds: Vec<Round>,
    setup_ns: Vec<u64>,
    probe_ns: Vec<u64>,
    roi: (u64, u64),
    ledger: Ledger,
    spans: Spans,
}

fn measure(args: &Args, templates: &[Template]) -> Run {
    let w = args.workload;
    let mut run = Run {
        tally: Tally::default(),
        rounds: Vec::new(),
        traced_rounds: Vec::new(),
        setup_ns: Vec::new(),
        probe_ns: Vec::new(),
        roi: (0, 0),
        ledger: Ledger::default(),
        spans: Spans::default(),
    };
    let mut first: Vec<Option<Vec<u64>>> = vec![None; templates.len()];
    let mut unit_id = 0u32;
    let probe = Probe::default();
    let start = Instant::now();
    run.spans.enter("run", 0);
    // Whole rounds only, so every round has the same program mix; stop at
    // the first round boundary past the deadline.
    while run.rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let r = run.rounds.len();
        let (mut plain, mut traced) = (Round::default(), Round::default());
        for (i, tpl) in templates.iter().enumerate() {
            let modes: &[bool] = match (args.trace, r % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &tr in modes {
                unit_id += 1;
                let mode = if tr {
                    Mode::Traced {
                        spans: &mut run.spans,
                        unit: unit_id,
                    }
                } else {
                    Mode::Plain(&probe)
                };
                let mut o = run_unit(w, args.seed, i, tpl, &mut run.ledger, mode);
                check_repeat(&mut first[i], &mut o);
                run.tally.record(o.failure.as_deref());
                let acc = if tr { &mut traced } else { &mut plain };
                acc.insts += o.insts;
                acc.ns += o.timed_ns;
                acc.scaled_ns += o.timed_scaled_ns;
                if !tr {
                    run.setup_ns.push(o.setup_scaled_ns as u64);
                    if o.failure.is_none() {
                        run.roi.0 += o.roi_insts;
                        run.roi.1 += o.roi_cycles;
                    }
                }
            }
        }
        run.probe_ns.push(probe.run());
        run.rounds.push(plain);
        if args.trace {
            run.traced_rounds.push(traced);
        }
    }
    run.spans.exit();
    run
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(tally: &Tally, correct: bool, metrics: &[(String, f64, &str)]) {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    out.push_str("}}");
    println!("{out}");
}

/// Writes the run's spans under the build directory.
fn write_spans(args: &Args, spans: &Spans) -> Result<String, String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&base).join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let templates = (0..w.units_per_round())
        .map(|i| template(w, args.seed, i).map_err(|e| format!("{} unit {i}: {e}", w.name())))
        .collect::<Result<Vec<_>, _>>()?;
    let run = measure(args, &templates);
    let kips = median_f(&run.rounds.iter().map(|r| r.kips()).collect::<Vec<_>>());
    let fail_frac = run.tally.failed as f64 / run.tally.attempted.max(1) as f64;
    let mut correct = run.tally.failed == 0;
    println!(
        "workload {} seed {} rounds {} units/round {} ({})",
        w.name(),
        args.seed,
        run.rounds.len(),
        templates.len(),
        templates
            .iter()
            .map(|t| format!("{} {} KiB/{} pages", t.kind, t.data.0 / 1024, t.data.1))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (reason, n) in &run.tally.reasons {
        println!("FAILED x{n}: {reason}");
    }
    let raw_kips = median_f(&run.rounds.iter().map(|r| r.raw_kips()).collect::<Vec<_>>());
    println!(
        "sim_kips {kips:.3} per reference-host second; {raw_kips:.3} per raw host second (probe median {:.1} us, reference {:.1} us)",
        median(&run.probe_ns) / 1e3,
        probe::REF_NS / 1e3
    );
    let metrics = if args.trace {
        if !run.ledger.unmapped.is_empty() {
            println!("unmapped rules: {:?}", run.ledger.unmapped);
            correct = false;
        }
        let traced_kips = median_f(
            &run.traced_rounds
                .iter()
                .map(|r| r.raw_kips())
                .collect::<Vec<_>>(),
        );
        let overhead = if traced_kips > 0.0 {
            raw_kips / traced_kips - 1.0
        } else {
            0.0
        };
        println!("untraced raw sim_kips {raw_kips:.3}  traced raw sim_kips {traced_kips:.3}  overhead {:.1}%", 100.0 * overhead);
        for (name, ns) in &run.spans.self_ns_by_name(None) {
            println!("span self time {name:<12} {:10.3} ms", *ns as f64 / 1e6);
        }
        println!("spans written to {}", write_spans(args, &run.spans)?);
        run.ledger
            .metrics(&run.spans.self_ns_by_name(Some("unit")), overhead)
    } else {
        vec![
            ("sim_kips".to_string(), kips, "kinst/s"),
            ("setup_s".to_string(), median(&run.setup_ns) / 1e9, "s"),
            ("peak_rss_mb".to_string(), peak_rss_mb()?, "MiB"),
            (
                "ipc".to_string(),
                run.roi.0 as f64 / run.roi.1.max(1) as f64,
                "inst/cycle",
            ),
        ]
    };
    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>14.6} {unit}");
    }
    println!("{:<32} {fail_frac:>14.6} fraction", "fail_frac");
    if w == Workload::SampledCkpt && !args.trace {
        // Deterministic per seed and near 0, so it is not a bounded metric;
        // the traced run reports it as `sampling.ipc_err`.
        println!(
            "{:<32} {:>14.6} fraction",
            "ipc_err",
            mean(&run.ledger.ipc_err)
        );
    }
    print_result(&run.tally, correct, &metrics);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(
        w: Workload,
        seed: u64,
        tpl: &Template,
        ledger: &mut Ledger,
        probe: &Probe,
    ) -> Outcome {
        run_unit(w, seed, 0, tpl, ledger, Mode::Plain(probe))
    }

    #[test]
    fn injected_failures_are_counted_and_the_run_goes_on() {
        let (w, seed) = (Workload::OooCompute, 3);
        let probe = Probe::default();
        let mut ledger = Ledger::default();
        let good = template(w, seed, 0).expect("template");
        let mut tally = Tally::default();
        let mut first = None;

        let mut o = plain(w, seed, &good, &mut ledger, &probe);
        check_repeat(&mut first, &mut o);
        assert_eq!(o.failure, None);
        tally.record(o.failure.as_deref());

        let tight = Template {
            max_cycles: 500,
            ..good.clone()
        };
        let o = plain(w, seed, &tight, &mut ledger, &probe);
        assert!(
            o.failure.as_deref().is_some_and(|f| f.contains("budget")),
            "{o:?}"
        );
        tally.record(o.failure.as_deref());

        let wrong = Template {
            expected: vec![good.expected[0] ^ 1],
            ..good.clone()
        };
        let o = plain(w, seed, &wrong, &mut ledger, &probe);
        assert!(
            o.failure
                .as_deref()
                .is_some_and(|f| f.contains("exit values")),
            "{o:?}"
        );
        tally.record(o.failure.as_deref());

        let stale = Template {
            digest: good.digest ^ 1,
            ..good.clone()
        };
        let o = plain(w, seed, &stale, &mut ledger, &probe);
        assert!(
            o.failure.as_deref().is_some_and(|f| f.contains("image")),
            "{o:?}"
        );
        tally.record(o.failure.as_deref());

        let mut o = plain(w, seed, &good, &mut ledger, &probe);
        o.signature[0] += 1;
        check_repeat(&mut first, &mut o);
        assert!(
            o.failure
                .as_deref()
                .is_some_and(|f| f.contains("repetition")),
            "{o:?}"
        );
        tally.record(o.failure.as_deref());

        assert_eq!((tally.attempted, tally.failed), (5, 4));
    }

    #[test]
    fn allocation_counts_repeat_exactly() {
        let probe = Probe::default();
        for w in [
            Workload::OooCompute,
            Workload::MulticoreTso,
            Workload::SampledCkpt,
        ] {
            let tpl = template(w, 5, 0).expect("template");
            let runs: Vec<Ledger> = (0..2)
                .map(|_| {
                    let mut ledger = Ledger::default();
                    let o = plain(w, 5, &tpl, &mut ledger, &probe);
                    assert_eq!(o.failure, None, "{}", w.name());
                    ledger
                })
                .collect();
            let (a, b) = (&runs[0], &runs[1]);
            assert_eq!(a.soc_allocs, b.soc_allocs, "{}", w.name());
            assert_eq!(a.soc_alloc_cycles, b.soc_alloc_cycles, "{}", w.name());
            assert_eq!(a.ff_allocs, b.ff_allocs, "{}", w.name());
            assert_eq!(a.snap_allocs, b.snap_allocs, "{}", w.name());
            if w == Workload::SampledCkpt {
                assert!(a.ff_allocs.count > 0 && a.snap_allocs.count > 0);
            } else {
                assert!(a.soc_allocs.count > 0);
            }
        }
    }
}
