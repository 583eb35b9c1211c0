//! Host calibration and host diagnostics.
//!
//! This module imports no workspace crate on purpose: its kernel must cost
//! the same whatever the program under test does, so a calibrated cost
//! (`check wall time ÷ kernel wall time`) moves only when the program does.
//! Only the compiler and its flags can move the kernel; the raw timings
//! reported beside the calibrated ones expose that case.

use std::hint::black_box;
use std::time::Instant;

/// Matrix dimension of the calibration kernel.
const DIM: usize = 160;
/// Products per kernel call: three 160×160 naive products ≈ 10 ms.
const REPEATS: usize = 3;

/// The fixed compute kernel: naive dense matrix products on fixed inputs.
pub struct Calibrator {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    last_s: Option<f64>,
    samples_s: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let fill = |salt: usize| -> Vec<f64> {
            (0..DIM * DIM)
                .map(|i| ((i * 7919 + salt) % 1000) as f64 / 1000.0 - 0.5)
                .collect()
        };
        Calibrator {
            a: fill(1),
            b: fill(2),
            c: vec![0.0; DIM * DIM],
            last_s: None,
            samples_s: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Runs the kernel once and returns its wall time in seconds.
    pub fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..REPEATS {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for i in 0..DIM {
                for j in 0..DIM {
                    let mut sum = 0.0;
                    for k in 0..DIM {
                        sum += a[i * DIM + k] * b[k * DIM + j];
                    }
                    self.c[i * DIM + j] = sum;
                }
            }
            black_box(&mut self.c);
        }
        let seconds = start.elapsed().as_secs_f64();
        self.samples_s.push(seconds);
        seconds
    }

    /// Times `op` between two kernel runs and returns its result, its raw
    /// wall time in seconds and its calibrated cost: the wall time divided
    /// by the mean of the kernel run right before and right after it.  The
    /// kernel run after one operation is the run before the next.
    pub fn measure<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match self.last_s {
            Some(seconds) => seconds,
            None => self.kernel(),
        };
        let start = Instant::now();
        let value = op();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel();
        self.last_s = Some(after);
        (value, raw_s, raw_s / ((before + after) / 2.0))
    }

    /// Forgets the previous kernel run, so the next [`Self::measure`] times
    /// a fresh one (used after an untimed gap).
    pub fn reset(&mut self) {
        self.last_s = None;
    }

    /// Median kernel wall time so far, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_s) * 1e3
    }
}

/// On-CPU and run-queue nanoseconds of the calling thread
/// (`/proc/thread-self/schedstat`), or `None` where unavailable.
fn thread_schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// CPU share and run-queue wait of the calling thread over an interval.
pub struct SchedWindow {
    start: Instant,
    stat: Option<(u64, u64)>,
}

impl SchedWindow {
    /// Opens the window now.
    pub fn open() -> Self {
        SchedWindow {
            start: Instant::now(),
            stat: thread_schedstat(),
        }
    }

    /// Returns (on-CPU time ÷ wall time, run-queue wait in ms) since
    /// [`Self::open`]; zeros where schedstat is unavailable.
    pub fn close(&self) -> (f64, f64) {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        match (self.stat, thread_schedstat()) {
            (Some((run0, wait0)), Some((run1, wait1))) if wall_ns > 0.0 => (
                (run1.saturating_sub(run0)) as f64 / wall_ns,
                (wait1.saturating_sub(wait0)) as f64 / 1e6,
            ),
            _ => (0.0, 0.0),
        }
    }
}

/// `VmHWM` (peak resident set) of a process in MB, from
/// `/proc/<pid>/status`; `pid = None` reads the calling process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
