//! The host-speed reference: a fixed kernel in the benchmark's own code,
//! timed next to every measured request and set-up, so that timings can
//! be scaled to one host speed.
//!
//! On a shared VM the speed of one vCPU drifts between levels up to
//! 1.9× apart, for seconds to minutes at a time, with thread CPU time
//! moving as wall time does. Code that formats and scans bytes slows
//! about as much as the served path, while a dependent integer chain
//! barely moves. This kernel is of the first kind: it formats small
//! JSON objects with integers and a fixed-point float into a reused
//! string and scans the bytes. Over ten seeds per workload, the
//! interquartile range of the scaled request median stayed within 0.05
//! of its median, against up to 0.40 unscaled.
//!
//! The kernel shares no code with the program under test, so a change to
//! the program cannot move it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Objects one kernel run formats.
const OBJECTS: u32 = 3000;

/// The kernel's time on the VM the benchmark was tuned on (2-vCPU
/// Xeon at 2.0 GHz) at its fastest level, in µs. Scaled timings read as
/// times on that host at that level.
pub const NOMINAL_US: f64 = 650.0;

/// Times the reference kernel.
#[derive(Debug, Default)]
pub struct Reference {
    text: String,
}

impl Reference {
    /// A reference with its buffer not yet grown.
    pub fn new() -> Self {
        Self::default()
    }

    /// One kernel run's wall time, in µs.
    pub fn time_us(&mut self) -> f64 {
        let start = Instant::now();
        self.text.clear();
        for i in black_box(0..OBJECTS) {
            let _ = write!(
                self.text,
                "{{\"id\":{i},\"x\":{:.6},\"y\":[{},{}]}}",
                f64::from(i) * 0.37,
                i * 3,
                i ^ 5
            );
        }
        black_box(self.text.bytes().filter(|&b| b == b',').count());
        start.elapsed().as_secs_f64() * 1e6
    }
}

/// `took`, scaled to the nominal host speed, given the kernel times
/// measured just before and just after it, in seconds.
pub fn scaled_s(took: Duration, before_us: f64, after_us: f64) -> f64 {
    took.as_secs_f64() * NOMINAL_US / ((before_us + after_us) / 2.0)
}
