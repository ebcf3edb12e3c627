//! One unit of work per call: generate a program, build its simulator, run
//! it cold to completion (or through the sampled pipeline), and check the
//! result. Every call into a simulator layer is timed from outside and has
//! its allocations counted; a traced unit also records spans, per-cycle
//! times and the kernel's per-rule profile.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use riscy_bench::sampling::{functional_profile, SamplePlan};
use riscy_isa::interp::Machine;
use riscy_ooo::ff::FastForward;
use riscy_ooo::soc::{RunError, SocSim};

use crate::alloc::Allocs;
use crate::gen::{image_digest, Image, Workload};
use crate::ledger::Ledger;
use crate::probe::Probe;
use crate::trace::Spans;

/// What the benchmark knows about a program before timing starts.
#[derive(Debug, Clone)]
pub struct Template {
    /// Generator family.
    pub kind: &'static str,
    /// Digest of the image every regeneration must reproduce.
    pub digest: u64,
    /// Per-hart exit values from the golden interpreter.
    pub expected: Vec<u64>,
    /// Cycle budget of a detailed run to completion.
    pub max_cycles: u64,
    /// Bytes and 4 KiB pages of the data region the program ranges over.
    pub data: (u64, u64),
    /// Full detailed ROI IPC, the `ipc_err` base (`sampled_ckpt` only).
    pub full_ipc: Option<f64>,
}

/// Runs the golden interpreter on `img`: per-hart exit values and
/// instructions executed, or why it did not halt.
///
/// # Errors
///
/// A message when some hart is still running after the image's budget.
pub fn golden(img: &Image, harts: usize) -> Result<(Vec<u64>, u64), String> {
    let mut m = Machine::with_program(harts, &img.program);
    let steps = m
        .run(img.max_steps)
        .map_err(|n| format!("golden model still running after {n} instructions"))?;
    let exits = (0..harts)
        .map(|h| m.hart(h).halted.expect("all harts halted"))
        .collect();
    Ok((exits, steps))
}

/// Builds the template of unit `index`: one generation, one golden run and,
/// on `sampled_ckpt`, one full detailed run for the `ipc_err` base. None of
/// this is timed.
///
/// # Errors
///
/// Why the program cannot serve as a unit.
pub fn template(w: Workload, seed: u64, index: usize) -> Result<Template, String> {
    let img = w.generate(seed, index);
    let (expected, _) = golden(&img, w.cores())?;
    let full_ipc = if w == Workload::SampledCkpt {
        let mut sim = SocSim::new(w.core_config(), w.mem_config(), 1, &img.program);
        sim.run_to_completion(img.max_cycles)
            .map_err(|e| format!("full detailed run: {e}"))?;
        let s = sim.soc().cores[0].stats;
        Some(s.roi_insts as f64 / s.roi_cycles.max(1) as f64)
    } else {
        None
    };
    Ok(Template {
        kind: img.kind,
        digest: image_digest(&img.program),
        expected,
        max_cycles: img.max_cycles,
        data: (img.data_bytes, img.data_pages),
        full_ipc,
    })
}

/// The result of one unit.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Generation plus simulator construction, the unit's set-up time,
    /// rescaled to the reference host (plain units only).
    pub setup_scaled_ns: f64,
    /// Host time of the timed part (everything after set-up).
    pub timed_ns: u64,
    /// `timed_ns` rescaled to the reference host (plain units only).
    pub timed_scaled_ns: f64,
    /// Guest instructions the timed part retired: detailed commits on all
    /// harts plus fast-forwarded instructions.
    pub insts: u64,
    /// ROI instructions (sampled: measured-interval instructions).
    pub roi_insts: u64,
    /// ROI cycles summed over harts (sampled: measured-interval cycles).
    pub roi_cycles: u64,
    /// Simulated quantities that must repeat exactly between repetitions.
    pub signature: Vec<u64>,
    /// Why the unit failed, if it did.
    pub failure: Option<String>,
}

/// How a unit is measured.
pub enum Mode<'a> {
    /// End to end: each timed step is followed by the host-speed probe and
    /// rescaled by it; allocations are counted around simulator calls.
    Plain(&'a Probe),
    /// Per layer: spans around every step, per-cycle times and the
    /// kernel's profiler.
    Traced {
        /// Span recorder.
        spans: &'a mut Spans,
        /// This unit's id.
        unit: u32,
    },
}

impl Mode<'_> {
    fn traced(&self) -> bool {
        matches!(self, Mode::Traced { .. })
    }

    /// Times `f` as one step: `(result, raw ns, rescaled ns)`. Traced
    /// steps record a span and are not rescaled.
    fn step<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64, f64) {
        match self {
            Mode::Plain(probe) => probe.timed(f),
            Mode::Traced { spans, unit } => {
                spans.enter(name, *unit);
                let t = Instant::now();
                let r = f();
                let raw = ns(t);
                spans.exit();
                (r, raw, raw as f64)
            }
        }
    }

    /// Times a step made of repeated calls to `chunk`, which returns
    /// `Some` when the step is done. A plain unit probes the host after
    /// every call, so a step of many short calls is rescaled as finely as
    /// the host's speed moves; a traced unit records one span.
    fn chunked<R>(
        &mut self,
        name: &'static str,
        mut chunk: impl FnMut() -> Option<R>,
    ) -> (R, u64, f64) {
        match self {
            Mode::Plain(probe) => {
                let (mut raw, mut scaled) = (0, 0.0);
                loop {
                    let (r, r_ns, s_ns) = probe.timed(&mut chunk);
                    raw += r_ns;
                    scaled += s_ns;
                    if let Some(r) = r {
                        return (r, raw, scaled);
                    }
                }
            }
            Mode::Traced { .. } => self.step(name, || loop {
                if let Some(r) = chunk() {
                    break r;
                }
            }),
        }
    }

    fn open_unit(&mut self) {
        if let Mode::Traced { spans, unit } = self {
            spans.enter("unit", *unit);
        }
    }

    fn close_unit(&mut self, ledger: &mut Ledger) {
        if let Mode::Traced { spans, .. } = self {
            ledger.unit_ns += spans.exit();
        }
    }
}

/// Runs one unit, turning a panic anywhere in the simulator into a failed
/// unit instead of an aborted run.
pub fn run_unit(
    w: Workload,
    seed: u64,
    index: usize,
    tpl: &Template,
    ledger: &mut Ledger,
    mut mode: Mode<'_>,
) -> Outcome {
    let r = catch_unwind(AssertUnwindSafe(|| {
        if w == Workload::SampledCkpt {
            sampled_unit(w, seed, index, tpl, ledger, &mut mode)
        } else {
            detailed_unit(w, seed, index, tpl, ledger, &mut mode)
        }
    }));
    r.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Outcome {
            failure: Some(format!("panic: {msg}")),
            ..Outcome::default()
        }
    })
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn check_image(img: &Image, tpl: &Template) -> Option<String> {
    (image_digest(&img.program) != tpl.digest)
        .then(|| "regenerated image differs from the template".to_string())
}

/// Cycles between host-speed probes in a plain run.
const CHUNK: u64 = 1_024;

/// Runs `sim` to completion in [`CHUNK`]-cycle calls, probing the host
/// after each and counting the allocations made inside the calls. Returns
/// the result plus raw and rescaled ns.
fn plain_cycles(
    sim: &mut SocSim,
    max_cycles: u64,
    mode: &mut Mode<'_>,
    ledger: &mut Ledger,
) -> (Result<(), RunError>, u64, f64) {
    let before = Allocs::now();
    let r = mode.chunked("cycle_loop", || {
        let left = max_cycles.saturating_sub(sim.cycles());
        match sim.run_to_completion(left.min(CHUNK)) {
            Ok(_) => Some(Ok(())),
            Err(RunError::Budget { .. }) if left > CHUNK => None,
            Err(e) => Some(Err(e)),
        }
    });
    ledger.soc_allocs.add(before.since());
    r
}

/// Cycles `sim` until every core exits, timing each cycle into the
/// ledger's histogram. Sim errors other than a watchdog deadlock panic
/// inside `SocSim::cycle` and are caught by [`run_unit`].
fn traced_cycles(sim: &mut SocSim, max_cycles: u64, ledger: &mut Ledger) -> Result<(), RunError> {
    while !sim.soc().all_exited() {
        if sim.cycles() >= max_cycles {
            return Err(RunError::Budget {
                max_cycles,
                committed: sim.soc().cores.iter().map(|c| c.stats.committed).collect(),
            });
        }
        let t = Instant::now();
        sim.cycle();
        let d = ns(t);
        ledger.cycle_hist.record(d);
        ledger.cycle_ns += d;
    }
    Ok(())
}

fn detailed_unit(
    w: Workload,
    seed: u64,
    index: usize,
    tpl: &Template,
    ledger: &mut Ledger,
    mode: &mut Mode<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let traced = mode.traced();
    mode.open_unit();
    let (img, gen_ns, gen_scaled) = mode.step("generate", || w.generate(seed, index));
    let (mut sim, new_ns, new_scaled) = mode.step("soc_new", || {
        SocSim::new(w.core_config(), w.mem_config(), w.cores(), &img.program)
    });
    out.setup_scaled_ns = gen_scaled + new_scaled;
    ledger.gen_ns.push(gen_ns);
    out.failure = check_image(&img, tpl);
    let res = match mode {
        Mode::Plain(_) => {
            let (res, raw, scaled) = plain_cycles(&mut sim, tpl.max_cycles, mode, ledger);
            ledger.soc_alloc_cycles += sim.cycles();
            out.timed_ns = raw;
            out.timed_scaled_ns = scaled;
            res
        }
        Mode::Traced { .. } => {
            ledger.new_ns.push(new_ns);
            sim.enable_profiling();
            let (res, raw, _) = mode.step("cycle_loop", || {
                traced_cycles(&mut sim, tpl.max_cycles, ledger)
            });
            out.timed_ns = raw;
            out.timed_scaled_ns = raw as f64;
            res
        }
    };
    let soc = sim.soc();
    out.insts = soc.cores.iter().map(|c| c.stats.committed).sum();
    out.roi_insts = soc.cores.iter().map(|c| c.stats.roi_insts).sum();
    out.roi_cycles = soc.cores.iter().map(|c| c.stats.roi_cycles).sum();
    out.signature = std::iter::once(sim.cycles())
        .chain(soc.cores.iter().map(|c| c.stats.committed))
        .collect();
    match res {
        Err(e) => out.failure = Some(format!("run: {e}")),
        Ok(()) => {
            let exits: Vec<u64> = sim
                .exit_codes()
                .into_iter()
                .map(|e| e.unwrap_or(u64::MAX))
                .collect();
            if exits != tpl.expected {
                out.failure = Some(format!("exit values {exits:?}, golden {:?}", tpl.expected));
            }
        }
    }
    if traced {
        ledger.absorb_sim(&sim);
        let ((_, steps), golden_ns, _) =
            mode.step("golden", || golden(&img, w.cores()).unwrap_or_default());
        ledger.golden_insts += steps;
        ledger.golden_ns += golden_ns;
        mode.close_unit(ledger);
        // One hop half way through the image, outside the unit's span, so
        // the fast-forward and snapshot layers read on every workload.
        let (mut ff, _, _) = mode.step("ff_new", || {
            FastForward::new(w.core_config(), w.mem_config(), w.cores(), &img.program)
        });
        if let Err(e) = hop(w, &img, &mut ff, steps / 2, mode, ledger).sim {
            out.failure.get_or_insert(e);
        }
    }
    out
}

fn sampled_unit(
    w: Workload,
    seed: u64,
    index: usize,
    tpl: &Template,
    ledger: &mut Ledger,
    mode: &mut Mode<'_>,
) -> Outcome {
    let (cfg, mem) = (w.core_config(), w.mem_config());
    let plan = sample_plan();
    let mut out = Outcome::default();
    let traced = mode.traced();
    mode.open_unit();
    let (img, gen_ns, gen_scaled) = mode.step("generate", || w.generate(seed, index));
    let (mut ff, _, new_scaled) =
        mode.step("ff_new", || FastForward::new(cfg, mem, 1, &img.program));
    out.setup_scaled_ns = gen_scaled + new_scaled;
    ledger.gen_ns.push(gen_ns);
    out.failure = check_image(&img, tpl);

    let (mut raw, mut scaled) = (0u64, 0.0f64);
    let mut add = |r: u64, s: f64| {
        raw += r;
        scaled += s;
    };
    // The scout is one long call with no probe inside; it is rescaled at
    // the end by the ratio of the unit's probed steps.
    let (profile, scout_ns, _) = mode.step("scout", || {
        functional_profile(cfg, mem, &img.program, img.max_steps)
    });
    let (begin, end) = profile.sample_window();
    let period = ((end.saturating_sub(begin)) / (plan.samples + 1)).max(1);
    let (mut executed, mut detailed_insts, mut kept) = (0u64, 0u64, 0u64);
    let mut signature = vec![profile.total_insts];
    for k in 1..=plan.samples {
        let target = begin + k * period;
        if target >= end || target <= executed {
            continue;
        }
        let hop = hop(w, &img, &mut ff, target - executed, mode, ledger);
        executed += hop.ran;
        add(hop.raw, hop.scaled);
        let mut sim = match hop.sim {
            Ok(Some(sim)) => sim,
            Ok(None) => break,
            Err(e) => {
                out.failure = Some(e);
                break;
            }
        };
        if traced {
            sim.enable_profiling();
        }
        let a = Allocs::now();
        let (point, r, s) = detailed_slice(&mut sim, &plan, mode, ledger);
        if !traced {
            ledger.soc_allocs.add(a.since());
            ledger.soc_alloc_cycles += sim.cycles();
        }
        ledger.detailed_ns += r;
        add(r, s);
        let committed = sim.soc().cores[0].stats.committed;
        detailed_insts += committed;
        signature.extend([sim.cycles(), committed]);
        if let Some((insts, cycles)) = point {
            kept += 1;
            out.roi_insts += insts;
            out.roi_cycles += cycles;
        }
        if traced {
            ledger.absorb_sim(&sim);
        }
    }
    // Fast-forward the rest so the exit value can be checked.
    let a = Allocs::now();
    let (rest, r, s) = ff_run(mode, &mut ff, img.max_steps, 1);
    ledger.ff_allocs.add(a.since());
    ledger.ff_insts += rest;
    ledger.ff_ns += r;
    executed += rest;
    add(r, s);
    if raw > 0 {
        scaled += scout_ns as f64 * scaled / raw as f64;
    }
    raw += scout_ns;
    ledger.sampled_timed_ns += raw;
    ledger.points_kept += kept;
    ledger.points_planned += plan.samples;
    out.timed_ns = raw;
    out.timed_scaled_ns = scaled;
    out.insts = executed + detailed_insts;
    signature.extend([executed, kept]);
    out.signature = signature;
    let exit = ff.machine().hart(0).halted;
    if out.failure.is_none() && exit != tpl.expected.first().copied() {
        out.failure = Some(format!("exit value {exit:?}, golden {:?}", tpl.expected));
    }
    if out.failure.is_none() && kept == 0 {
        out.failure = Some("no sample point was kept".into());
    }
    if let (Some(full), true) = (tpl.full_ipc, out.roi_cycles > 0) {
        let est = out.roi_insts as f64 / out.roi_cycles as f64;
        ledger.ipc_err.push((est - full).abs() / full);
    }
    if traced {
        let ((_, steps), golden_ns, _) =
            mode.step("golden", || golden(&img, 1).unwrap_or_default());
        ledger.golden_insts += steps;
        ledger.golden_ns += golden_ns;
    }
    mode.close_unit(ledger);
    out
}

/// The default plan's warmup and interval at half its points: a program
/// twice the default minimum window then spends most of its host time in
/// the interpreter and fast-forward, the layers this workload is for.
#[must_use]
pub fn sample_plan() -> SamplePlan {
    SamplePlan {
        samples: 5,
        ..SamplePlan::default()
    }
}

/// What one fast-forward-and-checkpoint hop did.
struct Hop {
    /// Instructions fast-forwarded.
    ran: u64,
    /// The restored detailed simulation, `None` when the image halted
    /// during the fast-forward, or why a step failed.
    sim: Result<Option<SocSim>, String>,
    /// Host ns of the hop.
    raw: u64,
    /// `raw` rescaled to the reference host.
    scaled: f64,
}

/// The SMARTS step to a sample point: fast-forwards `n` instructions, hands
/// off to a detailed simulation, saves its snapshot and restores that into
/// a fresh `SocSim`. Each call is timed and has its allocations counted
/// into the ledger. The restored simulation must re-save to the same bytes
/// (an untimed check).
fn hop(
    w: Workload,
    img: &Image,
    ff: &mut FastForward,
    n: u64,
    mode: &mut Mode<'_>,
    ledger: &mut Ledger,
) -> Hop {
    let traced = mode.traced();
    let a = Allocs::now();
    let (ran, raw, scaled) = ff_run(mode, ff, n, w.cores() as u64);
    ledger.ff_allocs.add(a.since());
    ledger.ff_insts += ran;
    ledger.ff_ns += raw;
    let mut hop = Hop {
        ran,
        sim: Ok(None),
        raw,
        scaled,
    };
    if ff.halted() {
        return hop;
    }
    let (mut handed, r, s) = mode.step("handoff", || ff.handoff());
    ledger.handoff_ns.push(r);
    hop.raw += r;
    hop.scaled += s;
    let a = Allocs::now();
    let (saved, r, s) = mode.step("snap_save", || handed.save_snapshot());
    ledger.snap_allocs.add(a.since());
    drop(handed);
    hop.raw += r;
    hop.scaled += s;
    let bytes = match saved {
        Ok(b) => b,
        Err(e) => {
            hop.sim = Err(format!("snapshot save: {e}"));
            return hop;
        }
    };
    ledger.snap_saves += 1;
    ledger.snap_bytes.push(bytes.len() as u64);
    ledger.save_ns += r;
    let (restored, r, s) = mode.step("snap_restore", || {
        let t = Instant::now();
        let mut sim = SocSim::new(w.core_config(), w.mem_config(), w.cores(), &img.program);
        if traced {
            ledger.new_ns.push(ns(t));
        }
        sim.restore_snapshot(&bytes).map(|()| sim)
    });
    ledger.restore_ns += r;
    hop.raw += r;
    hop.scaled += s;
    hop.sim = match restored {
        Err(e) => Err(format!("snapshot restore: {e}")),
        Ok(mut sim) => match sim.save_snapshot() {
            Ok(again) if again == bytes => Ok(Some(sim)),
            Ok(_) => Err("re-saved snapshot differs from the original".into()),
            Err(e) => Err(format!("snapshot re-save: {e}")),
        },
    };
    hop
}

/// Instructions per `FastForward::run` call between host-speed probes.
const FF_CHUNK: u64 = 8_192;

/// Fast-forwards about `n` instructions over all `harts`, stopping early
/// when every hart halts, in calls of at most [`FF_CHUNK`] instructions
/// per hart. Returns the instructions run plus raw and rescaled ns.
fn ff_run(mode: &mut Mode<'_>, ff: &mut FastForward, n: u64, harts: u64) -> (u64, u64, f64) {
    let mut ran = 0;
    let ((), raw, scaled) = mode.chunked("ff_run", || {
        let step = ff.run((n - ran).div_ceil(harts).min(FF_CHUNK));
        ran += step;
        (step == 0 || ran >= n || ff.halted()).then_some(())
    });
    (ran, raw, scaled)
}

/// One SMARTS slice: detailed warmup, then the measured interval, in
/// [`CHUNK`]-cycle steps. Returns the interval's `(instructions, cycles)`,
/// or `None` when the slice blew its cycle budget, plus raw and rescaled
/// ns. A traced slice times each cycle into the ledger's histogram.
fn detailed_slice(
    sim: &mut SocSim,
    plan: &SamplePlan,
    mode: &mut Mode<'_>,
    ledger: &mut Ledger,
) -> (Option<(u64, u64)>, u64, f64) {
    let traced = mode.traced();
    let committed = |s: &SocSim| s.soc().cores[0].stats.committed;
    let mut budget = plan.max_cycles_per_sample;
    // `(cycles, committed)` when the warmup ended.
    let mut start: Option<(u64, u64)> = None;
    mode.chunked("detailed", || {
        for _ in 0..CHUNK {
            let target = plan.warmup_insts + start.map_or(0, |_| plan.interval_insts);
            if committed(sim) >= target || sim.soc().all_exited() || budget == 0 {
                let Some((c0, i0)) = start else {
                    start = Some((sim.cycles(), committed(sim)));
                    continue;
                };
                let (insts, cycles) = (committed(sim) - i0, sim.cycles() - c0);
                return Some((insts > 0 && cycles > 0 && budget > 0).then_some((insts, cycles)));
            }
            let t = Instant::now();
            sim.cycle();
            if traced {
                let d = ns(t);
                ledger.cycle_hist.record(d);
                ledger.cycle_ns += d;
            }
            budget -= 1;
        }
        None
    })
}
