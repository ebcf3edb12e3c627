//! Per-layer accumulators and the per-layer metrics derived from them.

use std::collections::BTreeMap;

use riscy_ooo::soc::SocSim;

use crate::alloc::Allocs;
use crate::layers::{group_of, parse_rules, GROUPS};
use crate::trace::Histogram;

/// Everything the traced (and, for allocations, the untraced) units of a
/// run add up.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Host ns per `SocSim::cycle` (traced units).
    pub cycle_hist: Histogram,
    /// Σ host ns of the timed cycles (traced units).
    pub cycle_ns: u64,
    /// `SocSim::new` host ns (traced units).
    pub new_ns: Vec<u64>,
    /// Generation host ns (every unit).
    pub gen_ns: Vec<u64>,
    /// Allocations inside untraced `run_to_completion` calls and detailed
    /// slices.
    pub soc_allocs: Allocs,
    /// Cycles those calls simulated.
    pub soc_alloc_cycles: u64,
    /// Simulated cycles of traced simulations (sampled: detailed slices).
    pub cycles: u64,
    /// Σ rename slots (cycles × cores × width) of traced simulations; the
    /// ROB- and IQ-full stall counters count per stalled rename lane.
    pub rename_slots: u64,
    /// Kernel totals over traced simulations.
    pub evals: u64,
    /// Evaluations skipped while asleep.
    pub skipped: u64,
    /// Firings.
    pub fired: u64,
    /// Guard stalls.
    pub guard_stalls: u64,
    /// Conflict-matrix stalls.
    pub cm_stalls: u64,
    /// Σ rule-body ns of every rule.
    pub body_ns: u64,
    /// Σ rule-body ns per layer group.
    pub group_ns: BTreeMap<&'static str, u64>,
    /// Rule names no group claims (must stay empty).
    pub unmapped: Vec<String>,
    /// Architectural and memory counters of traced simulations.
    pub counts: BTreeMap<&'static str, u64>,
    /// Golden-interpreter instructions and host ns.
    pub golden_insts: u64,
    /// Golden-interpreter host ns.
    pub golden_ns: u64,
    /// `FastForward::run` instructions, host ns and allocations.
    pub ff_insts: u64,
    /// `FastForward::run` host ns.
    pub ff_ns: u64,
    /// `FastForward::run` allocations.
    pub ff_allocs: Allocs,
    /// `FastForward::handoff` host ns, one per call.
    pub handoff_ns: Vec<u64>,
    /// Snapshot sizes, one per save.
    pub snap_bytes: Vec<u64>,
    /// Σ `save_snapshot` host ns.
    pub save_ns: u64,
    /// Σ restore host ns (fresh `SocSim::new` plus `restore_snapshot`).
    pub restore_ns: u64,
    /// Allocations inside `save_snapshot`.
    pub snap_allocs: Allocs,
    /// Snapshots saved.
    pub snap_saves: u64,
    /// Host ns in detailed slices, and in the whole timed sampled pipeline.
    pub detailed_ns: u64,
    /// Host ns of the timed sampled pipeline.
    pub sampled_timed_ns: u64,
    /// Sample points kept and planned.
    pub points_kept: u64,
    /// Sample points planned.
    pub points_planned: u64,
    /// Per-unit |estimate − full| / full.
    pub ipc_err: Vec<f64>,
    /// Σ traced unit span ns.
    pub unit_ns: u64,
}

impl Ledger {
    /// Folds a finished, profiled simulation into the ledger.
    pub fn absorb_sim(&mut self, sim: &SocSim) {
        let soc = sim.soc();
        self.cycles += sim.cycles();
        self.rename_slots += sim.cycles() * (soc.cores.len() * soc.cfg.width) as u64;
        match parse_rules(&sim.profile_json()) {
            Ok(rows) => {
                for r in rows {
                    self.evals += r.evals;
                    self.skipped += r.skipped;
                    self.fired += r.fired;
                    self.guard_stalls += r.guard_stalls;
                    self.cm_stalls += r.cm_stalls;
                    self.body_ns += r.body_ns;
                    match group_of(&r.name) {
                        Some(g) => *self.group_ns.entry(g).or_insert(0) += r.body_ns,
                        None => self.unmapped.push(r.name),
                    }
                }
            }
            Err(e) => self.unmapped.push(format!("<profile: {e}>")),
        }
        let mut add = |k: &'static str, v: u64| *self.counts.entry(k).or_insert(0) += v;
        for c in &soc.cores {
            let s = &c.stats;
            add("committed", s.committed);
            add("mispredicts", s.mispredicts);
            add("ld_kill_flushes", s.ld_kill_flushes);
            add("lsq_replays", s.lsq_replays);
            add("tso_evict_kills", c.lsq.evict_kills.read());
            add("rob_full", s.rob_full_stalls);
            add("iq_full", s.iq_full_stalls);
            let d = &soc.mem.dcache_ref(c.id).stats;
            add("l1d_misses", d.misses);
            add("l1d_downgrades", d.downgrades);
            add("l1i_misses", soc.mem.icache_ref(c.id).stats.misses);
            add("tlb_walks", c.tlb.walks);
            if let Some(t) = &c.tma {
                let b = t.buckets;
                add("tma_retiring", b.retiring);
                add("tma_frontend", b.frontend_bound);
                add("tma_bad_spec", b.bad_speculation);
                add("tma_backend_core", b.backend_core);
                add("tma_backend_mem", b.backend_memory);
            }
        }
        add("l2_misses", soc.mem.l2.stats.misses);
        add("l2_writebacks", soc.mem.l2.stats.writebacks);
    }

    fn count(&self, k: &str) -> u64 {
        self.counts.get(k).copied().unwrap_or(0)
    }

    /// The per-layer metrics, `(name, value, unit)`, in a fixed order, from
    /// the ledger and the self time per span name inside traced units.
    /// Metrics of a layer the workload does not exercise read 0.
    #[must_use]
    pub fn metrics(
        &self,
        self_ns: &BTreeMap<&'static str, u64>,
        overhead: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let cyc = self.cycles as f64;
        let pki = |v: u64| div(v as f64 * 1000.0, self.count("committed") as f64);

        put("soc.cycle_ns_p50", self.cycle_hist.quantile(0.5), "ns");
        put("soc.cycle_ns_p99", self.cycle_hist.quantile(0.99), "ns");
        put("soc.cycle_samples", self.cycle_hist.count() as f64, "count");
        put("soc.new_ms", median(&self.new_ns) / 1e6, "ms");
        put("soc.new_samples", self.new_ns.len() as f64, "count");
        let kcyc = self.soc_alloc_cycles as f64 / 1000.0;
        put(
            "soc.allocs_per_kcycle",
            div(self.soc_allocs.count as f64, kcyc),
            "allocs/kcycle",
        );
        put(
            "soc.alloc_kb_per_kcycle",
            div(self.soc_allocs.bytes as f64 / 1024.0, kcyc),
            "KiB/kcycle",
        );

        put(
            "kernel.self_ns_per_cycle",
            div(self.cycle_ns.saturating_sub(self.body_ns) as f64, cyc),
            "ns/cycle",
        );
        put(
            "kernel.evals_per_cycle",
            div(self.evals as f64, cyc),
            "1/cycle",
        );
        put(
            "kernel.skips_per_cycle",
            div(self.skipped as f64, cyc),
            "1/cycle",
        );
        put(
            "kernel.fire_frac",
            div(self.fired as f64, self.evals as f64),
            "fraction",
        );
        put(
            "kernel.guard_stalls_per_cycle",
            div(self.guard_stalls as f64, cyc),
            "1/cycle",
        );
        put(
            "kernel.cm_stalls_per_cycle",
            div(self.cm_stalls as f64, cyc),
            "1/cycle",
        );

        for g in GROUPS {
            let ns = self.group_ns.get(g).copied().unwrap_or(0) as f64;
            put(&format!("{g}.ns_per_cycle"), div(ns, cyc), "ns/cycle");
            put(
                &format!("{g}.host_frac"),
                div(ns, self.unit_ns as f64),
                "fraction",
            );
        }

        put(
            "ooo.mispredicts_pki",
            pki(self.count("mispredicts")),
            "1/kinst",
        );
        put(
            "ooo.ld_kill_flushes_pki",
            pki(self.count("ld_kill_flushes")),
            "1/kinst",
        );
        put(
            "ooo.lsq_replays_pki",
            pki(self.count("lsq_replays")),
            "1/kinst",
        );
        put(
            "ooo.tso_evict_kills_pki",
            pki(self.count("tso_evict_kills")),
            "1/kinst",
        );
        let slots = self.rename_slots as f64;
        put(
            "ooo.rob_full_frac",
            div(self.count("rob_full") as f64, slots),
            "fraction",
        );
        put(
            "ooo.iq_full_frac",
            div(self.count("iq_full") as f64, slots),
            "fraction",
        );
        let tma_total: u64 = [
            "tma_retiring",
            "tma_frontend",
            "tma_bad_spec",
            "tma_backend_core",
            "tma_backend_mem",
        ]
        .iter()
        .map(|k| self.count(k))
        .sum();
        for (name, k) in [
            ("tma.retiring_frac", "tma_retiring"),
            ("tma.frontend_frac", "tma_frontend"),
            ("tma.bad_spec_frac", "tma_bad_spec"),
            ("tma.backend_core_frac", "tma_backend_core"),
            ("tma.backend_mem_frac", "tma_backend_mem"),
        ] {
            put(
                name,
                div(self.count(k) as f64, tma_total as f64),
                "fraction",
            );
        }

        put("mem.l1d.miss_pki", pki(self.count("l1d_misses")), "1/kinst");
        put("mem.l1i.miss_pki", pki(self.count("l1i_misses")), "1/kinst");
        put("mem.l2.miss_pki", pki(self.count("l2_misses")), "1/kinst");
        put(
            "mem.l2.writebacks_pki",
            pki(self.count("l2_writebacks")),
            "1/kinst",
        );
        put(
            "mem.l1d.downgrades_pki",
            pki(self.count("l1d_downgrades")),
            "1/kinst",
        );
        put("mem.tlb.walks_pki", pki(self.count("tlb_walks")), "1/kinst");
        // Every L2 miss issues exactly one DRAM line read; the DRAM model's
        // own counter is private to the L2.
        put(
            "mem.dram.reads_pki",
            pki(self.count("l2_misses")),
            "1/kinst",
        );

        put(
            "isa.interp_mips",
            div(self.golden_insts as f64 * 1e3, self.golden_ns as f64),
            "MIPS",
        );
        put(
            "ff.mips",
            div(self.ff_insts as f64 * 1e3, self.ff_ns as f64),
            "MIPS",
        );
        put("ff.handoff_ms_p50", median(&self.handoff_ns) / 1e6, "ms");
        put("ff.handoff_samples", self.handoff_ns.len() as f64, "count");
        put(
            "ff.allocs_per_kinst",
            div(self.ff_allocs.count as f64 * 1000.0, self.ff_insts as f64),
            "allocs/kinst",
        );

        let saved: u64 = self.snap_bytes.iter().sum();
        put("snap.bytes_p50", median(&self.snap_bytes), "bytes");
        put("snap.samples", self.snap_bytes.len() as f64, "count");
        put(
            "snap.save_mb_s",
            div(saved as f64 * 1e3, self.save_ns as f64),
            "MB/s",
        );
        put(
            "snap.restore_mb_s",
            div(saved as f64 * 1e3, self.restore_ns as f64),
            "MB/s",
        );
        put(
            "snap.allocs_per_save",
            div(self.snap_allocs.count as f64, self.snap_saves as f64),
            "allocs",
        );

        put(
            "sampling.detailed_frac",
            div(self.detailed_ns as f64, self.sampled_timed_ns as f64),
            "fraction",
        );
        put(
            "sampling.points_kept_frac",
            div(self.points_kept as f64, self.points_planned as f64),
            "fraction",
        );
        put("sampling.ipc_err", mean(&self.ipc_err), "fraction");

        put("setup.gen_ms", median(&self.gen_ns) / 1e6, "ms");

        let isa_ff: u64 = ["golden", "scout", "ff_run", "handoff"]
            .iter()
            .map(|k| self_ns.get(k).copied().unwrap_or(0))
            .sum();
        put(
            "isa_ff.host_frac",
            div(isa_ff as f64, self.unit_ns as f64),
            "fraction",
        );
        put("trace.overhead_frac", overhead, "fraction");
        m
    }
}

/// Median of integer samples (0 when empty).
#[must_use]
pub fn median(v: &[u64]) -> f64 {
    median_f(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Median of float samples (0 when empty).
#[must_use]
pub fn median_f(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of float samples (0 when empty).
#[must_use]
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
