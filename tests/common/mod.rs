//! Helpers shared by the root-level tests that pin bytes or schedules.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// xorshift64 — a generator defined here, so the batches cannot drift with
/// any library.
pub struct XorShift(pub u64);

impl XorShift {
    /// The next draw, uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Re-runs test `name` of this binary in children whose rayon pool is
/// pinned to each of `threads` (a pool's size is fixed at first use within
/// a process). Fails unless every child passes within `limit`; a child
/// still running then is killed, so a hang fails instead of stalling.
pub fn rerun_pinned(name: &str, threads: &[usize], limit: Duration) {
    let exe = std::env::current_exe().expect("current_exe");
    for &n in threads {
        let mut child = Command::new(&exe)
            .args([name, "--exact", "--nocapture"])
            .env("RAYON_NUM_THREADS", n.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning the pinned-pool child failed");
        let start = Instant::now();
        while child.try_wait().expect("polling the pinned-pool child").is_none() {
            if start.elapsed() > limit {
                let _ = child.kill();
                let _ = child.wait();
                panic!("RAYON_NUM_THREADS={n}: {name} still running after {limit:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collecting the pinned-pool child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "RAYON_NUM_THREADS={n}: {}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr),
        );
    }
}
