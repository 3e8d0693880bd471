//! Streams: ordered sequences of kernel launches and transfers with a
//! shared simulated clock.
//!
//! A [`Stream`] models a CUDA stream — work items execute in order; the
//! stream clock is the sum of their simulated durations. The per-rank GPU
//! pipelines each drive one stream so phase times fall out naturally.

use crate::launch::KernelReport;
use dedukt_sim::{SimClock, SimTime};

/// One entry in a stream trace.
#[derive(Clone, Debug)]
pub enum StreamEvent {
    /// A kernel completed.
    Kernel(KernelReport),
    /// A named transfer completed (host↔device or device↔device).
    Transfer {
        /// Label for traces.
        name: String,
        /// Modelled duration.
        time: SimTime,
    },
}

impl StreamEvent {
    /// The simulated duration of this event.
    pub fn time(&self) -> SimTime {
        match self {
            StreamEvent::Kernel(r) => r.time,
            StreamEvent::Transfer { time, .. } => *time,
        }
    }
}

/// An in-order work queue with a simulated clock and a trace of completed
/// events.
#[derive(Debug, Default)]
pub struct Stream {
    clock: SimClock,
    trace: Vec<StreamEvent>,
}

impl Stream {
    /// A fresh stream at simulated time zero.
    pub fn new() -> Stream {
        Stream::default()
    }

    /// Records a completed kernel; advances the clock by its duration.
    pub fn record_kernel(&mut self, report: KernelReport) -> SimTime {
        self.clock.advance(report.time);
        self.trace.push(StreamEvent::Kernel(report));
        self.clock.now()
    }

    /// Current simulated stream time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The trace of completed events, in order.
    pub fn trace(&self) -> &[StreamEvent] {
        &self.trace
    }

    /// Sum of kernel durations in the trace.
    pub fn kernel_time(&self) -> SimTime {
        self.trace
            .iter()
            .filter(|e| matches!(e, StreamEvent::Kernel(_)))
            .map(StreamEvent::time)
            .sum()
    }

    /// Sum of transfer durations in the trace.
    pub fn transfer_time(&self) -> SimTime {
        self.trace
            .iter()
            .filter(|e| matches!(e, StreamEvent::Transfer { .. }))
            .map(StreamEvent::time)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchConfig;
    use crate::memory::Device;

    #[test]
    fn clock_accumulates_in_order() {
        let d = Device::v100();
        let mut s = Stream::new();
        let cfg = LaunchConfig {
            grid_blocks: 4,
            block_threads: 64,
        };
        let r = d.launch("a", cfg, |b| {
            for _ in b.threads() {
                b.instr(100);
            }
        });
        let t_kernel = r.time;
        s.record_kernel(r);
        // A completed 2 ms device-to-host transfer.
        s.clock.advance(SimTime::from_millis(2.0));
        s.trace.push(StreamEvent::Transfer {
            name: "d2h".to_string(),
            time: SimTime::from_millis(2.0),
        });
        assert_eq!(s.now(), t_kernel + SimTime::from_millis(2.0));
        assert_eq!(s.trace().len(), 2);
        assert_eq!(s.kernel_time(), t_kernel);
        assert_eq!(s.transfer_time(), SimTime::from_millis(2.0));
    }

    #[test]
    fn empty_stream_is_at_zero() {
        let s = Stream::new();
        assert!(s.now().is_zero());
        assert!(s.trace().is_empty());
    }
}
