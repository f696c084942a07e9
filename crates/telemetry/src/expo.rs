//! Exposition formats: Prometheus text, and Chrome `trace_event`
//! counter tracks spliced into trace timelines.

use crate::hist::HistSnapshot;
use crate::series::{GAUGE_NAMES, NUM_COUNTERS, NUM_GAUGES};
use crate::{Gauge, Sample, Telemetry, NUM_PHASES, PHASES};
use imr_simcluster::COUNTER_NAMES;
use std::fmt::Write as _;

/// One job's (or one standalone run's) derived stats, the unit of the
/// exposition.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Job id (0 for a standalone run outside the job service).
    pub job: u64,
    /// Latest cumulative counter values, `COUNTER_NAMES` order.
    pub counters: [u64; NUM_COUNTERS],
    /// Latest gauge values, [`GAUGE_NAMES`] order.
    pub gauges: [u64; NUM_GAUGES],
    /// Highest iteration seen in the series.
    pub iteration: u64,
    /// Iterations per second over the sampled window (0 when the
    /// window is degenerate).
    pub iter_rate: f64,
    /// Retained series length.
    pub samples: u64,
    /// The five phase-latency histograms.
    pub hists: [HistSnapshot; NUM_PHASES],
}

impl JobStats {
    /// Derives the stats of one registry: cumulative values from the
    /// newest sample, the iteration rate from the sampled window.
    pub fn from_telemetry(job: u64, tel: &Telemetry) -> JobStats {
        let samples = tel.samples();
        let mut stats = JobStats {
            job,
            counters: [0; NUM_COUNTERS],
            gauges: tel.gauges(),
            iteration: 0,
            iter_rate: 0.0,
            samples: samples.len() as u64,
            hists: tel.hist_snapshots(),
        };
        if let Some(last) = samples.last() {
            stats.counters = last.counters;
        }
        let mut min = (u64::MAX, 0u64);
        let mut max = (0u64, 0u64);
        for s in &samples {
            if s.stamp_nanos < min.0 {
                min = (s.stamp_nanos, s.iteration);
            }
            if s.stamp_nanos >= max.0 {
                max = (s.stamp_nanos, s.iteration);
            }
            stats.iteration = stats.iteration.max(s.iteration);
        }
        if max.0 > min.0 && max.1 > min.1 {
            stats.iter_rate = (max.1 - min.1) as f64 / ((max.0 - min.0) as f64 / 1e9);
        }
        stats
    }
}

/// Everything one scrape returns: a stats block per live job.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Per-job stats, job id ascending.
    pub jobs: Vec<JobStats>,
}

impl Exposition {
    /// Prometheus text format (text/plain; version 0.0.4): one metric
    /// family per counter/gauge, plus a proper cumulative-bucket
    /// histogram family and p50/p99 convenience gauges per phase.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            let _ = writeln!(out, "# TYPE imr_{name}_total counter");
            for j in &self.jobs {
                let _ = writeln!(
                    out,
                    "imr_{name}_total{{job=\"{}\"}} {}",
                    j.job, j.counters[i]
                );
            }
        }
        for (g, name) in GAUGE_NAMES.iter().enumerate() {
            let _ = writeln!(out, "# TYPE imr_{name} gauge");
            for j in &self.jobs {
                if g == Gauge::PendingDeltaMass.index() {
                    let _ = writeln!(
                        out,
                        "imr_{name}{{job=\"{}\"}} {}",
                        j.job,
                        fmt_f64(f64::from_bits(j.gauges[g]))
                    );
                } else {
                    let _ = writeln!(out, "imr_{name}{{job=\"{}\"}} {}", j.job, j.gauges[g]);
                }
            }
        }
        let _ = writeln!(out, "# TYPE imr_iteration gauge");
        for j in &self.jobs {
            let _ = writeln!(out, "imr_iteration{{job=\"{}\"}} {}", j.job, j.iteration);
        }
        let _ = writeln!(out, "# TYPE imr_iteration_rate gauge");
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "imr_iteration_rate{{job=\"{}\"}} {}",
                j.job,
                fmt_f64(j.iter_rate)
            );
        }
        let _ = writeln!(out, "# TYPE imr_samples_total counter");
        for j in &self.jobs {
            let _ = writeln!(out, "imr_samples_total{{job=\"{}\"}} {}", j.job, j.samples);
        }
        let _ = writeln!(out, "# TYPE imr_phase_latency_nanos histogram");
        for j in &self.jobs {
            for (p, phase) in PHASES.iter().enumerate() {
                let h = &j.hists[p];
                let mut cum = 0u64;
                for (b, c) in h.counts.iter().enumerate() {
                    if *c == 0 {
                        continue;
                    }
                    cum += c;
                    let upper = if b >= 63 {
                        u64::MAX
                    } else {
                        (1u64 << (b + 1)) - 1
                    };
                    let _ = writeln!(
                        out,
                        "imr_phase_latency_nanos_bucket{{job=\"{}\",phase=\"{}\",le=\"{upper}\"}} {cum}",
                        j.job,
                        phase.name()
                    );
                }
                let _ = writeln!(
                    out,
                    "imr_phase_latency_nanos_bucket{{job=\"{}\",phase=\"{}\",le=\"+Inf\"}} {cum}",
                    j.job,
                    phase.name()
                );
                let _ = writeln!(
                    out,
                    "imr_phase_latency_nanos_sum{{job=\"{}\",phase=\"{}\"}} {}",
                    j.job,
                    phase.name(),
                    h.sum()
                );
                let _ = writeln!(
                    out,
                    "imr_phase_latency_nanos_count{{job=\"{}\",phase=\"{}\"}} {cum}",
                    j.job,
                    phase.name()
                );
            }
        }
        for (metric, pick) in [
            ("imr_phase_p50_nanos", 0.5f64),
            ("imr_phase_p99_nanos", 0.99),
        ] {
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for j in &self.jobs {
                for (p, phase) in PHASES.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "{metric}{{job=\"{}\",phase=\"{}\"}} {}",
                        j.job,
                        phase.name(),
                        j.hists[p].quantile(pick)
                    );
                }
            }
        }
        out
    }
}

/// Renders `f64` so Prometheus parses it (no NaN/Inf leaks: both
/// degrade to 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".into()
    }
}

/// Chrome `trace_event` counter-track events (`"ph":"C"`) from a
/// sampled series, comma-separated, ready to splice into the
/// `traceEvents` array of `imr_trace::chrome_trace_json` output. Each
/// sample contributes an iteration track and a queue/handoff-depth
/// track, keyed by worker so Perfetto renders one counter row per pair.
pub fn chrome_counter_track(samples: &[Sample]) -> String {
    let mut out = String::new();
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = s.stamp_nanos as f64 / 1_000.0;
        let worker = if s.worker == u32::MAX {
            -1i64
        } else {
            s.worker as i64
        };
        let _ = write!(
            out,
            "{{\"name\":\"iteration w{worker}\",\"cat\":\"imr\",\"ph\":\"C\",\"ts\":{ts:.3},\
             \"pid\":{worker},\"tid\":{worker},\"args\":{{\"iteration\":{}}}}},\
             {{\"name\":\"depth w{worker}\",\"cat\":\"imr\",\"ph\":\"C\",\"ts\":{ts:.3},\
             \"pid\":{worker},\"tid\":{worker},\"args\":{{\"handoff_depth\":{},\"queue_len\":{}}}}}",
            s.iteration,
            s.gauges[Gauge::HandoffDepth.index()],
            s.gauges[Gauge::QueueLen.index()],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;
    use imr_simcluster::MetricsSnapshot;

    fn stats() -> JobStats {
        let tel = Telemetry::default();
        let mut m = MetricsSnapshot {
            shuffle_remote_bytes: 10,
            ..Default::default()
        };
        tel.set_gauge(Gauge::QueueLen, 4);
        tel.record_phase(Phase::Map, 1_000);
        tel.record_phase(Phase::Map, 2_000);
        tel.sample(1_000_000_000, 0, 0, 1, &m);
        m.shuffle_remote_bytes = 30;
        tel.sample(2_000_000_000, 0, 0, 3, &m);
        JobStats::from_telemetry(7, &tel)
    }

    #[test]
    fn job_stats_derive_rate_and_latest_counters() {
        let s = stats();
        assert_eq!(s.job, 7);
        assert_eq!(s.iteration, 3);
        assert_eq!(s.samples, 2);
        assert_eq!(s.counters[0], 30);
        assert_eq!(s.gauges[Gauge::QueueLen.index()], 4);
        // 2 iterations over 1 virtual second.
        assert!((s.iter_rate - 2.0).abs() < 1e-9);
        assert_eq!(s.hists[Phase::Map.index()].count(), 2);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let expo = Exposition {
            jobs: vec![stats()],
        };
        let text = expo.prometheus_text();
        assert!(text.contains("# TYPE imr_shuffle_remote_bytes_total counter"));
        assert!(text.contains("imr_shuffle_remote_bytes_total{job=\"7\"} 30"));
        assert!(text.contains("imr_queue_len{job=\"7\"} 4"));
        assert!(text.contains("imr_iteration{job=\"7\"} 3"));
        assert!(
            text.contains("imr_phase_latency_nanos_bucket{job=\"7\",phase=\"map\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("imr_phase_latency_nanos_count{job=\"7\",phase=\"map\"} 2"));
        assert!(text.contains("imr_phase_p99_nanos{job=\"7\",phase=\"map\"}"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable value in line: {line}"
            );
        }
    }

    #[test]
    fn counter_track_emits_chrome_counter_events() {
        let tel = Telemetry::default();
        tel.sample(5_000, 1, 0, 2, &MetricsSnapshot::default());
        let track = chrome_counter_track(&tel.samples());
        assert!(track.contains("\"ph\":\"C\""));
        assert!(track.contains("\"iteration\":2"));
        assert!(track.contains("\"name\":\"iteration w1\""));
        // Splices into a traceEvents array: no trailing comma, valid pieces.
        assert!(!track.ends_with(','));
    }
}
