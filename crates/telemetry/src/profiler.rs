//! Host-side self-profiling: wall-time spans per repro phase, reported
//! alongside the simulated results.

use std::time::{Duration, Instant};

/// One completed wall-time span.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// What the span covered (e.g. `fig8_fig9`, `traced-run`).
    pub label: String,
    /// Start offset from the profiler's epoch.
    pub start: Duration,
    /// Wall time spent.
    pub duration: Duration,
}

/// Records labelled wall-time spans against a fixed epoch so they can be
/// exported as Chrome-trace "X" (complete) events on the host track.
#[derive(Debug)]
pub struct HostProfiler {
    epoch: Instant,
    spans: Vec<HostSpan>,
}

impl Default for HostProfiler {
    fn default() -> HostProfiler {
        HostProfiler::new()
    }
}

impl HostProfiler {
    /// Profiler whose epoch is "now".
    pub fn new() -> HostProfiler {
        HostProfiler {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f`, recording its wall time under `label`.
    pub fn time<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> T {
        let begin = Instant::now();
        let out = f();
        self.spans.push(HostSpan {
            label: label.to_string(),
            start: begin - self.epoch,
            duration: begin.elapsed(),
        });
        out
    }

    /// Completed spans, in completion order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Total wall time across recorded spans.
    pub fn total(&self) -> Duration {
        self.spans.iter().map(|s| s.duration).sum()
    }

    /// Multi-line summary; with `sim_cycles` it also reports the simulated
    /// cycles retired per host second over the spans' total time.
    pub fn render_summary(&self, sim_cycles: Option<u64>) -> String {
        let mut out = String::from("host profile (wall time per phase):\n");
        let total = self.total();
        for s in &self.spans {
            let pct = if total.as_nanos() > 0 {
                100.0 * s.duration.as_secs_f64() / total.as_secs_f64()
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<28} {:>9.3}s ({pct:>5.1}%)\n",
                s.label,
                s.duration.as_secs_f64()
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>9.3}s\n",
            "total",
            total.as_secs_f64()
        ));
        if let Some(cycles) = sim_cycles {
            if total.as_secs_f64() > 0.0 {
                out.push_str(&format!(
                    "  simulated cycles / host second: {:.0}\n",
                    cycles as f64 / total.as_secs_f64()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_records_spans_in_order() {
        let mut p = HostProfiler::new();
        let x = p.time("alpha", || 41 + 1);
        assert_eq!(x, 42);
        p.time("beta", || std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(p.spans().len(), 2);
        assert_eq!(p.spans()[0].label, "alpha");
        assert!(p.spans()[1].duration >= Duration::from_millis(1));
        assert!(p.total() >= Duration::from_millis(1));
        let s = p.render_summary(Some(1_000_000));
        assert!(s.contains("alpha"));
        assert!(s.contains("simulated cycles / host second"));
    }
}
