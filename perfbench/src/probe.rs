//! A fixed host-speed probe for rescaling wall-clock time.
//!
//! The benchmark runs on shared hosts whose speed for this simulator's
//! kind of code (pointer-heavy, branchy) moves by 1.5x within seconds as
//! neighbours come and go. The probe is a small piece of such code owned by
//! the benchmark: a pointer chase through a 1 MiB table mixed with
//! boxed-closure calls and bucket updates. It runs right after each timed
//! step, and the step's time is rescaled by `REF_NS / probe_ns`, i.e.
//! reported as the time the step would have taken on a host that runs the
//! probe in [`REF_NS`]. The probe never calls the simulator and allocates
//! nothing, and an untimed pass touches its whole table before each timed
//! run. So neither what the simulator left in the caches nor how long ago
//! the probe last ran changes the probe's time, and a change to the
//! simulator moves the rescaled time as it moves the raw time.

use std::cell::Cell;
use std::time::Instant;

/// Probe time, in ns, of the reference host the rescaled times refer to
/// (about the probe's time on an uncontended 2-core Xeon guest).
pub const REF_NS: f64 = 20_000.0;
const TABLE: usize = 1 << 18;
const ITERS: u64 = 2_000;

/// The probe's fixed working set.
pub struct Probe {
    next: Vec<u32>,
    ops: Vec<Box<dyn Fn(u64) -> u64>>,
    at: Cell<(u64, u32)>,
}

impl Default for Probe {
    /// Builds the 1 MiB single-cycle permutation the probe chases.
    fn default() -> Self {
        let mut perm: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            perm.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for i in 0..TABLE {
            next[perm[i] as usize] = perm[(i + 1) % TABLE];
        }
        let ops = (0..16u32)
            .map(|k| {
                Box::new(move |v: u64| v.rotate_left(k) ^ u64::from(k)) as Box<dyn Fn(u64) -> u64>
            })
            .collect();
        Probe {
            next,
            ops,
            at: Cell::new((0x9e37_79b9_7f4a_7c15, 0)),
        }
    }
}

impl Probe {
    /// Runs the probe once and returns the host ns of its timed part.
    #[must_use]
    pub fn run(&self) -> u64 {
        // One read per 64-byte line brings the whole table back into the
        // caches, whatever ran since the last probe.
        let warm = self.next.iter().step_by(16).fold(0, |a, &v| a ^ v);
        std::hint::black_box(warm);
        let t = Instant::now();
        let (mut x, mut j) = self.at.get();
        let mut buckets = [0u64; 256];
        let mut acc = 0u64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(self.ops[(x & 15) as usize](x));
            if x & 3 == 0 {
                j = self.next[j as usize];
                acc ^= u64::from(j);
            }
            let b = &mut buckets[(x & 255) as usize];
            *b = if *b > acc {
                b.wrapping_sub(acc)
            } else {
                b.wrapping_add(x >> 7)
            };
            acc = if acc & 8 == 0 {
                acc.wrapping_mul(3)
            } else {
                acc.wrapping_add(*b)
            };
        }
        self.at.set((x, j));
        std::hint::black_box((acc, buckets));
        t.elapsed().as_nanos() as u64
    }

    /// Times `f`, then runs the probe: `(result, raw ns, rescaled ns)`.
    pub fn timed<R>(&self, f: impl FnOnce() -> R) -> (R, u64, f64) {
        let t = Instant::now();
        let r = f();
        let raw = t.elapsed().as_nanos() as u64;
        let scaled = raw as f64 * REF_NS / self.run().max(1) as f64;
        (r, raw, scaled)
    }
}
