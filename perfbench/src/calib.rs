//! Host-speed reference for the CPU-bound training times.
//!
//! A shared host's CPU speed drifts by up to 2x over spans of seconds to
//! tens of seconds, so a raw training wall time says as much about the
//! host as about the library. The benchmark therefore times a fixed
//! reference kernel of its own next to each training cell and reports the
//! cell's wall time in units of that kernel. The kernel is a dense-layer
//! forward pass (GEMM, bias, ReLU) at the end model's width, written here
//! rather than taken from the library, so a change to the library moves
//! the trainings and never the yardstick. Over 100 back-to-back trainings
//! on a 2-vCPU VM the training wall time and the kernel's pass time
//! correlated at 0.63, and dividing by it cut the trainings' coefficient
//! of variation from 8.4% to 6.5%; the repeats and medians around it do
//! the rest.

use std::hint::black_box;
use std::time::{Duration, Instant};

const ROWS: usize = 256;
const K: usize = 64;
const N: usize = 64;

/// How long one speed sample runs: about one period of the sub-second
/// speed wobble of a shared host, so a sample averages over it.
const SAMPLE: Duration = Duration::from_millis(300);

/// The reference kernel and its fixed inputs.
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    bias: Vec<f32>,
    c: Vec<f32>,
}

impl Reference {
    fn new() -> Self {
        let fill = |n: usize, salt: u32| -> Vec<f32> {
            (0..n as u32)
                .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % 1000) as f32 / 1000.0 - 0.5)
                .collect()
        };
        Reference {
            a: fill(ROWS * K, 1),
            b: fill(K * N, 2),
            bias: fill(N, 3),
            c: vec![0.0; ROWS * N],
        }
    }

    /// One forward pass: `c = relu(a · b + bias)`.
    fn pass(&mut self) {
        let (a, b, bias) = (black_box(&self.a), black_box(&self.b), &self.bias);
        for (row, out) in a.chunks_exact(K).zip(self.c.chunks_exact_mut(N)) {
            out.copy_from_slice(bias);
            for (x, b_row) in row.iter().zip(b.chunks_exact(N)) {
                for (o, w) in out.iter_mut().zip(b_row) {
                    *o += x * w;
                }
            }
            for o in out.iter_mut() {
                *o = o.max(0.0);
            }
        }
        black_box(&mut self.c);
    }

    /// Mean wall time of one pass over a [`SAMPLE`]-long run of passes, in
    /// seconds: the host's current speed, inverted.
    fn sample_s(&mut self) -> f64 {
        let start = Instant::now();
        let mut passes = 0u64;
        while start.elapsed() < SAMPLE {
            for _ in 0..16 {
                self.pass();
            }
            passes += 16;
        }
        start.elapsed().as_secs_f64() / passes as f64
    }
}

/// Times closures in reference passes. Consecutive timings share the
/// sample between them: sample, work, sample, work, sample, ...
pub struct Meter {
    reference: Reference,
    last_s: f64,
}

impl Meter {
    pub fn new() -> Self {
        let mut reference = Reference::new();
        let last_s = reference.sample_s();
        Meter { reference, last_s }
    }

    /// Runs `f` and returns its result, its wall time in seconds and that
    /// time in thousands of reference passes (wall time over the mean pass
    /// time of the samples on either side of it).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let after = self.reference.sample_s();
        let kpass = wall / ((self.last_s + after) / 2.0) / 1e3;
        self.last_s = after;
        (out, wall, kpass)
    }

    /// The latest sample: seconds per reference pass.
    pub fn pass_s(&self) -> f64 {
        self.last_s
    }
}
