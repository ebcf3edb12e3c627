//! Seeded guest-program generators, one family per workload.
//!
//! Every program is built from `(workload, seed, unit index)` alone with
//! the repository's assembler and bare-metal runtime (Sv39 paging, ROI
//! markers, spinlocks, barriers); the simulator only ever sees the finished
//! image. The seed changes table contents, permutations, constants and
//! strides; the loop structure of each kind stays fixed, so different
//! seeds stress the same layers by similar amounts.

use cmd_core::rng::{mix, SplitMix64};
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::csr::addr as csr;
use riscy_isa::mem::DRAM_BASE;
use riscy_isa::reg::Gpr;
use riscy_mem::system::MemConfig;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_workloads::runtime::{
    build_page_tables, emit_barrier, emit_enter_supervisor, emit_exit_hart, emit_exit_reg,
    emit_lock_acquire, emit_lock_release, emit_roi_begin, emit_roi_end, words_segment, Paging,
    PAGED_PA_BASE, PAGED_VA_BASE, RW,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1-core T+, data inside L1D and L1-TLB reach: rule bodies dominate.
    OooCompute,
    /// 1-core T+, pointer chases and strided sweeps over 12 MiB.
    OooMemory,
    /// 4-core TSO, locks, AMOs, barriers and producer/consumer lines.
    MulticoreTso,
    /// 1-core T+ run the SMARTS way: fast-forward, snapshot, detail.
    SampledCkpt,
}

/// Every workload, in the order the runner documents them.
pub const ALL: [Workload; 4] = [
    Workload::OooCompute,
    Workload::OooMemory,
    Workload::MulticoreTso,
    Workload::SampledCkpt,
];

/// One generated program plus what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Image {
    /// Generator family that built it.
    pub kind: &'static str,
    /// The loadable image.
    pub program: Program,
    /// Bytes of the data region the program's addresses range over.
    pub data_bytes: u64,
    /// 4 KiB pages that region spans.
    pub data_pages: u64,
    /// Instruction budget for the golden interpreter (all harts).
    pub max_steps: u64,
    /// Cycle budget for a detailed run to completion.
    pub max_cycles: u64,
}

impl Workload {
    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::OooCompute => "ooo_compute",
            Workload::OooMemory => "ooo_memory",
            Workload::MulticoreTso => "multicore_tso",
            Workload::SampledCkpt => "sampled_ckpt",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated cores.
    #[must_use]
    pub fn cores(self) -> usize {
        match self {
            Workload::MulticoreTso => 4,
            _ => 1,
        }
    }

    /// Core configuration.
    #[must_use]
    pub fn core_config(self) -> CoreConfig {
        match self {
            Workload::MulticoreTso => CoreConfig::multicore(MemModel::Tso),
            _ => CoreConfig::riscyoo_t_plus(),
        }
    }

    /// Memory configuration (the paper's RiscyOO-B hierarchy throughout).
    #[must_use]
    pub fn mem_config(self) -> MemConfig {
        mem_riscyoo_b()
    }

    /// Programs per round: one of each generator family.
    #[must_use]
    pub fn units_per_round(self) -> usize {
        match self {
            Workload::OooCompute => 4,
            Workload::OooMemory => 3,
            Workload::MulticoreTso => 2,
            Workload::SampledCkpt => 1,
        }
    }

    /// Generates unit `index` of this workload for `seed`.
    #[must_use]
    pub fn generate(self, seed: u64, index: usize) -> Image {
        let mut rng = SplitMix64::seed_from_u64(mix(&[seed, self as u64, index as u64]));
        match self {
            Workload::OooCompute => match index % 4 {
                0 => branchy(&mut rng),
                1 => bytes(&mut rng),
                2 => dense(&mut rng),
                _ => board(&mut rng),
            },
            Workload::OooMemory => match index % 3 {
                0 => chase(&mut rng),
                1 => sweep(&mut rng),
                _ => events(&mut rng),
            },
            Workload::MulticoreTso => sync_phases(&mut rng, index % 2 == 1),
            Workload::SampledCkpt => phased(&mut rng),
        }
    }
}

/// FNV-1a over an image's entry point, text and data segments: equal
/// digests mean byte-identical images.
#[must_use]
pub fn image_digest(p: &Program) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&p.entry.to_le_bytes());
    eat(&p.text_base.to_le_bytes());
    for w in p.text_words() {
        eat(&w.to_le_bytes());
    }
    for (base, bytes) in &p.data {
        eat(&base.to_le_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(bytes);
    }
    h
}

// ---------------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------------

const PAGE: u64 = 4096;
const LINE: u64 = 64;
/// The memory-bound region: 3072 pages (12 MiB), past both 4x the 1 MiB L2
/// and the 2048-entry L2 TLB's reach.
const BIG_PAGES: u64 = 3072;
const LCG_A: i64 = 1_103_515_245;

fn va(off: u64) -> i64 {
    (PAGED_VA_BASE + off) as i64
}

/// Paging on, supervisor entry, ROI begin.
fn prologue(pages: u64) -> (Assembler, Paging) {
    let paging = build_page_tables(pages as usize, RW);
    let mut a = Assembler::new(DRAM_BASE);
    emit_enter_supervisor(&mut a, paging.root_ppn, "sv_main");
    emit_roi_begin(&mut a);
    (a, paging)
}

/// ROI end, exit with `s0`, page tables and data attached.
fn epilogue(mut a: Assembler, paging: Paging, data: Vec<(u64, Vec<u8>)>) -> Program {
    emit_roi_end(&mut a);
    emit_exit_reg(&mut a, Gpr::s(0), "exit");
    finish(a, paging, data)
}

fn finish(a: Assembler, paging: Paging, data: Vec<(u64, Vec<u8>)>) -> Program {
    let mut prog = a.assemble();
    for (pa, b) in paging.segments {
        prog.add_data(pa, b);
    }
    for (off, b) in data {
        prog.add_data(PAGED_PA_BASE + off, b);
    }
    prog
}

fn single(
    kind: &'static str,
    a: Assembler,
    paging: Paging,
    data: Vec<(u64, Vec<u8>)>,
    data_bytes: u64,
    steps: u64,
) -> Image {
    Image {
        kind,
        program: epilogue(a, paging, data),
        data_bytes,
        data_pages: data_bytes.div_ceil(PAGE),
        max_steps: steps,
        max_cycles: steps * 400,
    }
}

/// `x = x * LCG_A + c` with `LCG_A` held in `s11`.
fn emit_lcg(a: &mut Assembler, x: Gpr) {
    a.mul(x, x, Gpr::s(11));
    a.addi(x, x, 1234);
}

// ---------------------------------------------------------------------------
// ooo_compute: data inside L1D and L1-TLB reach
// ---------------------------------------------------------------------------

/// sjeng/gobmk: data-dependent branches over a seeded 4 KiB table.
fn branchy(rng: &mut SplitMix64) -> Image {
    const WORDS: u64 = 512;
    let table: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let iters = 1_200;
    let (mut a, paging) = prologue(1);
    a.li(Gpr::s(1), va(0));
    a.li(Gpr::s(2), (rng.next_u64() >> 8) as i64 | 1);
    a.li(Gpr::s(3), iters);
    a.li(Gpr::s(11), LCG_A);
    a.li(Gpr::s(0), 0);
    a.li(Gpr::s(5), 0);
    let shift = 13 + rng.below(8) as i32;
    let bit = 1 << rng.below(8);
    a.li(Gpr::t(5), 64 + rng.below(128) as i64);
    a.label("loop");
    emit_lcg(&mut a, Gpr::s(2));
    a.srli(Gpr::t(1), Gpr::s(2), shift);
    a.andi(Gpr::t(1), Gpr::t(1), (WORDS - 1) as i32);
    a.slli(Gpr::t(1), Gpr::t(1), 3);
    a.add(Gpr::t(1), Gpr::t(1), Gpr::s(1));
    a.ld(Gpr::t(2), 0, Gpr::t(1));
    a.andi(Gpr::t(3), Gpr::t(2), bit);
    a.beqz(Gpr::t(3), "b_a");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
    a.xori(Gpr::s(5), Gpr::s(5), 0x55);
    a.j("b_b");
    a.label("b_a");
    a.sub(Gpr::s(0), Gpr::s(0), Gpr::s(2));
    a.addi(Gpr::s(5), Gpr::s(5), 3);
    a.sd(Gpr::s(5), 0, Gpr::t(1));
    a.label("b_b");
    a.srli(Gpr::t(4), Gpr::t(2), 8);
    a.andi(Gpr::t(4), Gpr::t(4), 0xff);
    a.bltu(Gpr::t(4), Gpr::t(5), "b_c");
    a.xor(Gpr::s(0), Gpr::s(0), Gpr::t(4));
    a.label("b_c");
    a.andi(Gpr::t(4), Gpr::s(2), 0x30);
    a.bnez(Gpr::t(4), "b_d");
    a.addi(Gpr::s(0), Gpr::s(0), 7);
    a.label("b_d");
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "loop");
    single(
        "branchy",
        a,
        paging,
        vec![(0, words_segment(&table))],
        WORDS * 8,
        iters as u64 * 30 + 10_000,
    )
}

/// bzip2: a byte loop over seeded runs with a counting table.
fn bytes(rng: &mut SplitMix64) -> Image {
    const LEN: u64 = 2048;
    const COUNTS: u64 = LEN; // 256 words after the buffer
    let alphabet: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
    let mut buf = Vec::with_capacity(LEN as usize);
    while buf.len() < LEN as usize {
        let v = *rng.pick(&alphabet);
        for _ in 0..rng.range_usize(1, 7) {
            buf.push(v);
        }
    }
    buf.truncate(LEN as usize);
    let (mut a, paging) = prologue(2);
    a.li(Gpr::s(0), 0);
    a.li(Gpr::s(4), -1);
    a.li(Gpr::s(5), 0);
    a.li(Gpr::s(8), va(COUNTS));
    a.li(Gpr::s(6), va(0));
    a.li(Gpr::s(7), LEN as i64);
    a.label("inner");
    a.lbu(Gpr::t(0), 0, Gpr::s(6));
    a.bne(Gpr::t(0), Gpr::s(4), "y_diff");
    a.addi(Gpr::s(5), Gpr::s(5), 1);
    a.j("y_next");
    a.label("y_diff");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(5));
    a.slli(Gpr::t(1), Gpr::t(0), 3);
    a.add(Gpr::t(1), Gpr::t(1), Gpr::s(8));
    a.ld(Gpr::t(2), 0, Gpr::t(1));
    a.addi(Gpr::t(2), Gpr::t(2), 1);
    a.sd(Gpr::t(2), 0, Gpr::t(1));
    a.mv(Gpr::s(4), Gpr::t(0));
    a.li(Gpr::s(5), 0);
    a.label("y_next");
    a.andi(Gpr::t(3), Gpr::t(0), 0x80);
    a.beqz(Gpr::t(3), "y_low");
    a.xor(Gpr::s(0), Gpr::s(0), Gpr::t(0));
    a.label("y_low");
    a.addi(Gpr::s(6), Gpr::s(6), 1);
    a.addi(Gpr::s(7), Gpr::s(7), -1);
    a.bnez(Gpr::s(7), "inner");
    single(
        "bytes",
        a,
        paging,
        vec![(0, buf)],
        LEN + 256 * 8,
        LEN * 20 + 10_000,
    )
}

/// hmmer: dense multiply-accumulate over three 4 KiB arrays.
fn dense(rng: &mut SplitMix64) -> Image {
    const N: u64 = 1024;
    let arr = |rng: &mut SplitMix64| -> Vec<u8> {
        (0..N)
            .flat_map(|_| (rng.below(1 << 15) as u32).to_le_bytes())
            .collect()
    };
    let (x, y) = (arr(rng), arr(rng));
    let passes = 2;
    let (mut a, paging) = prologue(3);
    a.li(Gpr::s(0), 0);
    a.li(Gpr::s(3), passes);
    a.label("pass");
    a.li(Gpr::s(6), va(0));
    a.li(Gpr::s(7), va(N * 4));
    a.li(Gpr::s(9), va(2 * N * 4));
    a.li(Gpr::s(10), N as i64);
    a.label("d_loop");
    a.lw(Gpr::t(0), 0, Gpr::s(6));
    a.lw(Gpr::t(1), 0, Gpr::s(7));
    a.mul(Gpr::t(2), Gpr::t(0), Gpr::t(1));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
    a.lw(Gpr::t(3), 0, Gpr::s(9));
    a.bgeu(Gpr::t(3), Gpr::t(2), "d_keep");
    a.sw(Gpr::t(2), 0, Gpr::s(9));
    a.label("d_keep");
    a.addi(Gpr::s(6), Gpr::s(6), 4);
    a.addi(Gpr::s(7), Gpr::s(7), 4);
    a.addi(Gpr::s(9), Gpr::s(9), 4);
    a.addi(Gpr::s(10), Gpr::s(10), -1);
    a.bnez(Gpr::s(10), "d_loop");
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "pass");
    single(
        "dense",
        a,
        paging,
        vec![(0, x), (N * 4, y)],
        3 * N * 4,
        passes as u64 * N * 14 + 10_000,
    )
}

/// gobmk: neighbour counting over an evolving 32x32 board.
fn board(rng: &mut SplitMix64) -> Image {
    const SIDE: i64 = 32;
    let cells: Vec<u8> = (0..SIDE * SIDE).map(|_| rng.below(3) as u8).collect();
    let passes = 2;
    let (mut a, paging) = prologue(1);
    a.li(Gpr::s(0), 0);
    a.li(Gpr::s(3), passes);
    a.li(Gpr::t(5), 3);
    a.label("pass");
    a.li(Gpr::s(6), va(SIDE as u64 + 1));
    a.li(Gpr::s(7), SIDE * (SIDE - 2) - 2);
    a.label("cell");
    a.lbu(Gpr::t(0), 0, Gpr::s(6));
    a.li(Gpr::s(5), 0);
    for (k, off) in [-1, 1, -(SIDE as i32), SIDE as i32].into_iter().enumerate() {
        let skip = format!("g_n{k}");
        a.lbu(Gpr::t(1), off, Gpr::s(6));
        a.bne(Gpr::t(1), Gpr::t(0), &skip);
        a.addi(Gpr::s(5), Gpr::s(5), 1);
        a.label(&skip);
    }
    a.li(Gpr::t(2), 2);
    a.blt(Gpr::s(5), Gpr::t(2), "g_keep");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(7));
    a.addi(Gpr::t(0), Gpr::t(0), 1);
    a.bne(Gpr::t(0), Gpr::t(5), "g_store");
    a.li(Gpr::t(0), 0);
    a.label("g_store");
    a.sb(Gpr::t(0), 0, Gpr::s(6));
    a.label("g_keep");
    a.addi(Gpr::s(6), Gpr::s(6), 1);
    a.addi(Gpr::s(7), Gpr::s(7), -1);
    a.bnez(Gpr::s(7), "cell");
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "pass");
    single(
        "board",
        a,
        paging,
        vec![(0, cells)],
        (SIDE * SIDE) as u64,
        passes as u64 * 1024 * 30 + 10_000,
    )
}

// ---------------------------------------------------------------------------
// ooo_memory: 12 MiB region, past 4x L2 and the L2 TLB's reach
// ---------------------------------------------------------------------------

/// `n` pointer cycles threaded through distinct random lines of the
/// `pages`-page region; returns each cycle's head offset and the data.
fn chains(
    rng: &mut SplitMix64,
    n: usize,
    nodes: usize,
    pages: u64,
) -> (Vec<u64>, Vec<(u64, Vec<u8>)>) {
    let mut used = std::collections::HashSet::new();
    let mut heads = Vec::new();
    let mut data = Vec::new();
    for _ in 0..n {
        let mut offs = Vec::with_capacity(nodes);
        while offs.len() < nodes {
            let off = rng.below(pages) * PAGE + rng.below(PAGE / LINE) * LINE;
            if used.insert(off) {
                offs.push(off);
            }
        }
        for (i, &off) in offs.iter().enumerate() {
            let next = PAGED_VA_BASE + offs[(i + 1) % nodes];
            data.push((off, next.to_le_bytes().to_vec()));
        }
        heads.push(offs[0]);
    }
    (heads, data)
}

fn emit_alu_filler(a: &mut Assembler, n: usize, src: Gpr) {
    for k in 0..n {
        if k % 2 == 0 {
            a.add(Gpr::s(9), Gpr::s(9), src);
        } else {
            a.xor(Gpr::s(10), Gpr::s(10), Gpr::s(9));
        }
    }
}

/// mcf/astar: four independent chases with a little work per node.
fn chase(rng: &mut SplitMix64) -> Image {
    let iters = 300;
    let (heads, data) = chains(rng, 4, iters + 1, BIG_PAGES);
    let filler = 24 + rng.below(8) as usize;
    let (mut a, paging) = prologue(BIG_PAGES);
    for (k, &h) in heads.iter().enumerate() {
        a.li(Gpr::s(1 + k as u8), va(h));
    }
    a.li(Gpr::s(6), iters as i64);
    a.li(Gpr::s(0), 0);
    a.label("chase");
    for k in 0..4u8 {
        a.ld(Gpr::s(1 + k), 0, Gpr::s(1 + k));
    }
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(1));
    a.xor(Gpr::s(0), Gpr::s(0), Gpr::s(3));
    emit_alu_filler(&mut a, filler, Gpr::s(2));
    a.addi(Gpr::s(6), Gpr::s(6), -1);
    a.bnez(Gpr::s(6), "chase");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(10));
    single(
        "chase",
        a,
        paging,
        data,
        BIG_PAGES * PAGE,
        iters as u64 * 40 + 10_000,
    )
}

/// libquantum: read-modify-write sweep, one new page and line per step.
fn sweep(rng: &mut SplitMix64) -> Image {
    let iters = 1_000;
    let stride_pages = *rng.pick(&[5u64, 7, 11, 13, 17, 19]);
    let stride = stride_pages * PAGE + (1 + rng.below(8)) * LINE;
    let span = BIG_PAGES * PAGE;
    let (mut a, paging) = prologue(BIG_PAGES);
    a.li(Gpr::s(1), va(rng.below(BIG_PAGES) * PAGE));
    a.li(Gpr::s(2), stride as i64);
    a.li(Gpr::s(3), va(span - PAGE));
    a.li(Gpr::s(4), span as i64 - PAGE as i64);
    a.li(Gpr::s(6), iters);
    a.li(Gpr::s(0), 0);
    a.label("sweep");
    a.ld(Gpr::t(0), 0, Gpr::s(1));
    a.xori(Gpr::t(0), Gpr::t(0), 1);
    a.sd(Gpr::t(0), 0, Gpr::s(1));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(0));
    emit_alu_filler(&mut a, 6, Gpr::t(0));
    a.add(Gpr::s(1), Gpr::s(1), Gpr::s(2));
    a.bltu(Gpr::s(1), Gpr::s(3), "s_in");
    a.sub(Gpr::s(1), Gpr::s(1), Gpr::s(4));
    a.label("s_in");
    a.addi(Gpr::s(6), Gpr::s(6), -1);
    a.bnez(Gpr::s(6), "sweep");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(10));
    single(
        "sweep",
        a,
        paging,
        Vec::new(),
        span,
        iters as u64 * 20 + 10_000,
    )
}

/// omnetpp: two chases with a data-dependent branch per event.
fn events(rng: &mut SplitMix64) -> Image {
    let iters = 450;
    let (heads, data) = chains(rng, 2, iters + 1, BIG_PAGES);
    let bit = 64 << rng.below(6);
    let (mut a, paging) = prologue(BIG_PAGES);
    a.li(Gpr::s(1), va(heads[0]));
    a.li(Gpr::s(2), va(heads[1]));
    a.li(Gpr::s(6), iters as i64);
    a.li(Gpr::s(0), 0);
    a.label("ev");
    a.ld(Gpr::s(1), 0, Gpr::s(1));
    a.ld(Gpr::s(2), 0, Gpr::s(2));
    a.andi(Gpr::t(0), Gpr::s(1), bit);
    a.beqz(Gpr::t(0), "ev_skip");
    a.addi(Gpr::s(0), Gpr::s(0), 1);
    a.label("ev_skip");
    emit_alu_filler(&mut a, 14, Gpr::s(2));
    a.addi(Gpr::s(6), Gpr::s(6), -1);
    a.bnez(Gpr::s(6), "ev");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(10));
    single(
        "events",
        a,
        paging,
        data,
        BIG_PAGES * PAGE,
        iters as u64 * 25 + 10_000,
    )
}

// ---------------------------------------------------------------------------
// multicore_tso: four harts sharing lines
// ---------------------------------------------------------------------------

const HARTS: i64 = 4;
/// Synchronization block in identity-mapped DRAM: barrier counter, sense,
/// locks and counters one line apart, then per-hart mailbox lines.
const SYNC: i64 = (DRAM_BASE + 0x20_0000) as i64;
const BAR_COUNTER: i64 = SYNC;
const BAR_SENSE: i64 = SYNC + 64;
const LOCK: i64 = SYNC + 128;
const LOCKED_SUM: i64 = SYNC + 192;
const AMO_SUM: i64 = SYNC + 256;
const FLAGS: i64 = SYNC + 512;
const MAILBOX: i64 = SYNC + 1024;
/// Private data: 2 pages per hart in the paged region.
const PRIVATE_PAGES: u64 = 2;

/// Phases of lock, AMO, mailbox and private work separated by barriers.
/// Every hart's exit value is a function of the seed alone: shared totals
/// are read only after the closing barrier, and a consumer reads its
/// mailbox only after the producer's flag (stores drain in order under
/// TSO, and a fence precedes the flag).
fn sync_phases(rng: &mut SplitMix64, mailbox_heavy: bool) -> Image {
    // Fixed trip counts keep contention, and so IPC, alike across seeds;
    // the seed changes the private data and the mailbox values.
    let phases = 3;
    let lock_iters = if mailbox_heavy { 4 } else { 12 };
    let amo_iters = 12;
    let words = if mailbox_heavy { 8 } else { 4 };
    let private_iters = 180;
    let salt = rng.below(1 << 10) as i32;
    let paging_pages = PRIVATE_PAGES * HARTS as u64;
    let init: Vec<u64> = (0..paging_pages * PAGE / 8)
        .map(|_| rng.below(1 << 20))
        .collect();
    let paging = build_page_tables(paging_pages as usize, RW);
    let mut a = Assembler::new(DRAM_BASE);
    emit_enter_supervisor(&mut a, paging.root_ppn, "sv_main");
    a.li(Gpr::s(4), BAR_COUNTER);
    a.li(Gpr::s(5), BAR_SENSE);
    a.li(Gpr::s(6), LOCK);
    a.li(Gpr::s(7), LOCKED_SUM);
    a.csrr(Gpr::s(8), csr::MHARTID);
    a.li(Gpr::s(10), 0);
    a.li(Gpr::s(0), 0);
    a.li(Gpr::s(11), LCG_A);
    // s9: this hart's private base; s1: mailbox/flag of this hart as producer;
    // s2: of its consumer-side peer (hart + 3) % 4.
    a.slli(Gpr::s(9), Gpr::s(8), 13);
    a.li(Gpr::t(0), va(0));
    a.add(Gpr::s(9), Gpr::s(9), Gpr::t(0));
    a.slli(Gpr::s(1), Gpr::s(8), 6);
    a.addi(Gpr::s(2), Gpr::s(8), HARTS as i32 - 1);
    a.andi(Gpr::s(2), Gpr::s(2), HARTS as i32 - 1);
    a.slli(Gpr::s(2), Gpr::s(2), 6);
    emit_barrier(&mut a, Gpr::s(4), Gpr::s(5), Gpr::s(10), HARTS, "start");
    emit_roi_begin(&mut a);
    for p in 0..phases {
        let t = |s: &str| format!("{s}_{p}");
        // Locked read-modify-write of one shared line.
        a.li(Gpr::s(3), lock_iters);
        a.label(&t("lk"));
        emit_lock_acquire(&mut a, Gpr::s(6), &t("acq"));
        a.ld(Gpr::t(2), 0, Gpr::s(7));
        a.add(Gpr::t(2), Gpr::t(2), Gpr::s(8));
        a.addi(Gpr::t(2), Gpr::t(2), 1);
        a.sd(Gpr::t(2), 0, Gpr::s(7));
        emit_lock_release(&mut a, Gpr::s(6));
        a.addi(Gpr::s(3), Gpr::s(3), -1);
        a.bnez(Gpr::s(3), &t("lk"));
        // AMO adds to a second shared line.
        a.li(Gpr::s(3), amo_iters);
        a.li(Gpr::t(3), AMO_SUM);
        a.label(&t("amo"));
        a.amoadd_d(Gpr::ZERO, Gpr::s(3), Gpr::t(3));
        a.addi(Gpr::s(3), Gpr::s(3), -1);
        a.bnez(Gpr::s(3), &t("amo"));
        // Private compute over this hart's two pages.
        a.li(Gpr::s(3), private_iters);
        a.mv(Gpr::t(4), Gpr::s(9));
        a.label(&t("pv"));
        a.ld(Gpr::t(2), 0, Gpr::t(4));
        emit_lcg(&mut a, Gpr::t(2));
        a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
        a.srli(Gpr::t(2), Gpr::t(2), 7);
        a.sd(Gpr::t(2), 0, Gpr::t(4));
        a.addi(Gpr::t(4), Gpr::t(4), 8);
        a.addi(Gpr::s(3), Gpr::s(3), -1);
        a.bnez(Gpr::s(3), &t("pv"));
        // Producer: fill this hart's mailbox line, fence, raise the flag.
        a.li(Gpr::t(3), MAILBOX);
        a.add(Gpr::t(3), Gpr::t(3), Gpr::s(1));
        for w in 0..words {
            a.addi(Gpr::t(2), Gpr::s(8), salt + p * 16 + w);
            a.sd(Gpr::t(2), 8 * w, Gpr::t(3));
        }
        a.fence();
        a.li(Gpr::t(3), FLAGS);
        a.add(Gpr::t(3), Gpr::t(3), Gpr::s(1));
        a.li(Gpr::t(2), p as i64 + 1);
        a.sd(Gpr::t(2), 0, Gpr::t(3));
        // Consumer: wait for the peer's flag, then read its mailbox.
        a.li(Gpr::t(3), FLAGS);
        a.add(Gpr::t(3), Gpr::t(3), Gpr::s(2));
        a.label(&t("wait"));
        a.ld(Gpr::t(4), 0, Gpr::t(3));
        a.bne(Gpr::t(4), Gpr::t(2), &t("wait"));
        a.fence();
        a.li(Gpr::t(3), MAILBOX);
        a.add(Gpr::t(3), Gpr::t(3), Gpr::s(2));
        for w in 0..words {
            a.ld(Gpr::t(4), 8 * w, Gpr::t(3));
            a.add(Gpr::s(0), Gpr::s(0), Gpr::t(4));
        }
        emit_barrier(&mut a, Gpr::s(4), Gpr::s(5), Gpr::s(10), HARTS, &t("bar"));
    }
    emit_roi_end(&mut a);
    a.ld(Gpr::t(2), 0, Gpr::s(7));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
    a.li(Gpr::t(3), AMO_SUM);
    a.ld(Gpr::t(2), 0, Gpr::t(3));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
    emit_exit_hart(&mut a, Gpr::s(0), "exit");
    let prog = finish(a, paging, vec![(0, words_segment(&init))]);
    let steps = 4_000_000;
    Image {
        kind: if mailbox_heavy { "mailbox" } else { "locks" },
        program: prog,
        data_bytes: paging_pages * PAGE,
        data_pages: paging_pages,
        max_steps: steps,
        max_cycles: 20_000_000,
    }
}

// ---------------------------------------------------------------------------
// sampled_ckpt: long, phased single-core programs
// ---------------------------------------------------------------------------

/// Short alternating blocks of branchy compute and an L2-resident pointer
/// chase, repeated for about twice the default sample plan's minimum
/// window. A block pair is far shorter than a measured interval, so every
/// slice sees the mix.
fn phased(rng: &mut SplitMix64) -> Image {
    const WORDS: u64 = 512;
    const CHASE_PAGES: u64 = 512;
    const CHASE_NODES: usize = 1_024;
    let rounds = 500;
    let compute_iters = 40;
    let chase_iters = 40;
    let table: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let (heads, mut data) = chains(rng, 1, CHASE_NODES, CHASE_PAGES);
    data.push((CHASE_PAGES * PAGE, words_segment(&table)));
    let shift = 13 + rng.below(8) as i32;
    let bit = 1 << rng.below(8);
    let paging = build_page_tables((CHASE_PAGES + 1) as usize, RW);
    let mut a = Assembler::new(DRAM_BASE);
    emit_enter_supervisor(&mut a, paging.root_ppn, "sv_main");
    // Walk the chase cycle once before the ROI, so its cold misses stay
    // out of the region both the full run and the samples measure.
    a.li(Gpr::s(4), va(heads[0]));
    a.li(Gpr::s(3), CHASE_NODES as i64);
    a.label("warm");
    a.ld(Gpr::s(4), 0, Gpr::s(4));
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "warm");
    emit_roi_begin(&mut a);
    a.li(Gpr::s(0), 0);
    a.li(Gpr::s(1), va(CHASE_PAGES * PAGE));
    a.li(Gpr::s(2), (rng.next_u64() >> 8) as i64 | 1);
    a.li(Gpr::s(11), LCG_A);
    a.li(Gpr::s(7), rounds);
    a.label("round");
    a.li(Gpr::s(3), compute_iters);
    a.label("cmp");
    emit_lcg(&mut a, Gpr::s(2));
    a.srli(Gpr::t(1), Gpr::s(2), shift);
    a.andi(Gpr::t(1), Gpr::t(1), (WORDS - 1) as i32);
    a.slli(Gpr::t(1), Gpr::t(1), 3);
    a.add(Gpr::t(1), Gpr::t(1), Gpr::s(1));
    a.ld(Gpr::t(2), 0, Gpr::t(1));
    a.andi(Gpr::t(3), Gpr::t(2), bit);
    a.beqz(Gpr::t(3), "p_a");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
    a.j("p_b");
    a.label("p_a");
    a.sub(Gpr::s(0), Gpr::s(0), Gpr::s(2));
    a.sd(Gpr::s(0), 0, Gpr::t(1));
    a.label("p_b");
    emit_alu_filler(&mut a, 8, Gpr::t(2));
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "cmp");
    a.li(Gpr::s(3), chase_iters);
    a.label("chs");
    a.ld(Gpr::s(4), 0, Gpr::s(4));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(4));
    emit_alu_filler(&mut a, 10, Gpr::s(4));
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "chs");
    a.addi(Gpr::s(7), Gpr::s(7), -1);
    a.bnez(Gpr::s(7), "round");
    a.add(Gpr::s(0), Gpr::s(0), Gpr::s(10));
    let steps = rounds as u64 * (compute_iters as u64 * 25 + chase_iters as u64 * 16) + 10_000;
    Image {
        kind: "phased",
        program: epilogue(a, paging, data),
        data_bytes: (CHASE_PAGES + 1) * PAGE,
        data_pages: CHASE_PAGES + 1,
        max_steps: steps,
        max_cycles: steps * 100,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_bench::sampling::{functional_profile, SamplePlan};
    use riscy_isa::interp::Machine;

    #[test]
    fn one_seed_gives_identical_images_and_two_seeds_differ() {
        for w in ALL {
            for i in 0..w.units_per_round() {
                let a = image_digest(&w.generate(7, i).program);
                assert_eq!(
                    a,
                    image_digest(&w.generate(7, i).program),
                    "{} unit {i}",
                    w.name()
                );
                assert_ne!(
                    a,
                    image_digest(&w.generate(8, i).program),
                    "{} unit {i}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn every_program_halts_under_the_golden_interpreter() {
        for w in ALL {
            for seed in [1, 2] {
                for i in 0..w.units_per_round() {
                    let img = w.generate(seed, i);
                    let mut m = Machine::with_program(w.cores(), &img.program);
                    let steps = m.run(img.max_steps);
                    assert!(
                        steps.is_ok(),
                        "{} seed {seed} unit {i} ({}) did not halt",
                        w.name(),
                        img.kind
                    );
                }
            }
        }
    }

    #[test]
    fn working_sets_match_the_modelled_geometry() {
        let cfg = CoreConfig::riscyoo_t_plus();
        let mem = mem_riscyoo_b();
        let tlb_pages = |entries: usize| entries as u64;
        for seed in [1, 2] {
            for i in 0..Workload::OooCompute.units_per_round() {
                let img = Workload::OooCompute.generate(seed, i);
                assert!(
                    img.data_bytes <= mem.l1d.size_bytes as u64,
                    "{}: {} B",
                    img.kind,
                    img.data_bytes
                );
                assert!(
                    img.data_pages <= tlb_pages(cfg.tlb.l1_entries),
                    "{}",
                    img.kind
                );
            }
            for i in 0..Workload::OooMemory.units_per_round() {
                let img = Workload::OooMemory.generate(seed, i);
                assert!(
                    img.data_bytes >= 4 * mem.l2.size_bytes as u64,
                    "{}: {} B",
                    img.kind,
                    img.data_bytes
                );
                assert!(
                    img.data_pages > tlb_pages(cfg.tlb.l2_entries),
                    "{}",
                    img.kind
                );
            }
            let img = Workload::SampledCkpt.generate(seed, 0);
            let p = functional_profile(cfg, mem, &img.program, img.max_steps);
            let (begin, end) = p.sample_window();
            assert!(p.roi.is_some());
            assert!(
                end - begin >= SamplePlan::default().min_window_insts(),
                "ROI {begin}..{end}"
            );
        }
    }
}
