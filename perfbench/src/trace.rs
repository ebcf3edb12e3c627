//! Spans around layer calls and a log-linear histogram for per-cycle
//! times.
//!
//! Spans stay in memory and are written once, when the run ends. A span's
//! self time is its duration minus the time its children cover; children
//! never overlap one another because the benchmark runs on one thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name.
    pub name: &'static str,
    /// Unit id shared by every span of one unit (0 for the run span).
    pub unit: u32,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// An in-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, unit: u32) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the caller's nesting).
    pub fn exit(&mut self) -> u64 {
        let i = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        end - self.spans[i].start_ns
    }

    /// Self time per span name: duration minus the children's durations.
    /// With `within`, only spans named `within` and their descendants count.
    #[must_use]
    pub fn self_ns_by_name(&self, within: Option<&str>) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        // A parent is recorded before its children, so one forward pass
        // settles every span's `inside` flag.
        let mut inside = vec![within.is_none(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] |= Some(s.name) == within || s.parent.is_some_and(|p| inside[p]);
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for ((s, c), inside) in self.spans.iter().zip(child).zip(inside) {
            if inside {
                *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
            }
        }
        out
    }

    /// The spans as a JSON array of `{name, unit, parent, start_ns, end_ns}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Log-linear histogram: 32 linear sub-buckets per power of two, so a
/// percentile read back is within ~3% of the true sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
        ((u64::from(exp - SUB_BITS + 1) << SUB_BITS) + sub) as usize
    }

    fn bucket_low(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let exp = (b >> SUB_BITS) + u64::from(SUB_BITS) - 1;
        (1 << exp) | ((b & (SUB - 1)) << (exp - u64::from(SUB_BITS)))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q < 1`), interpolated linearly by rank inside
    /// its bucket; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = (Self::bucket_low(b) as f64, Self::bucket_low(b + 1) as f64);
                return lo + (hi - lo) * (rank - seen as f64 - 0.5).max(0.0) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank never exceeds the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 7);
        }
        for (q, exact) in [(0.5, 35_000.0), (0.99, 69_300.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.04, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 10_000);
        let mut small = Histogram::default();
        small.record(3);
        assert!((3.0..4.0).contains(&small.quantile(0.5)));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        s.enter("run", 0);
        s.enter("unit", 1);
        s.enter("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.exit();
        s.exit();
        s.enter("child", 1);
        s.exit();
        s.exit();
        let spans = &s.spans;
        let unit = spans[1].end_ns - spans[1].start_ns;
        let child = spans[2].end_ns - spans[2].start_ns;
        let outside = spans[3].end_ns - spans[3].start_ns;
        let selfs = s.self_ns_by_name(None);
        assert_eq!(selfs["unit"], unit - child);
        assert_eq!(selfs["child"], child + outside);
        let in_units = s.self_ns_by_name(Some("unit"));
        assert_eq!(in_units["child"], child);
        assert!(!in_units.contains_key("run"));
        assert_eq!(spans[2].parent, Some(1));
        assert!(s.to_json().contains("\"parent\":1"));
    }
}
