//! Host fingerprint printed with every run, and the process's peak
//! resident set.

/// Shard cells of every serve workload.
pub const SHARDS: usize = 4;

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Producer threads feeding the gateway's lanes:
    /// `max(1, min(4, cores) - 1)`, one core being the consumer's.
    pub producers: usize,
    /// What `workers = 0` (auto) resolves to inside the server:
    /// `min(cores, shards)`.
    pub workers: usize,
}

impl Fingerprint {
    pub fn read() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            cores,
            producers: cores.min(4).saturating_sub(1).max(1),
            workers: cores.clamp(1, SHARDS),
        }
    }

    pub fn print(&self, workload: &str, seed: u64, seconds: f64, traced: bool) {
        let profile = if cfg!(debug_assertions) {
            "debug (timings are not meaningful)"
        } else {
            "release (lto=thin, codegen-units=1)"
        };
        println!(
            "[benchmark] workload={workload} seed={seed} seconds={seconds} trace={}",
            u8::from(traced)
        );
        println!(
            "[benchmark] host: cores={} producers={} workers(auto)={} shards={SHARDS} \
             profile={profile} dsct-core-features=default(simd) os={} arch={}",
            self.cores,
            self.producers,
            self.workers,
            std::env::consts::OS,
            std::env::consts::ARCH
        );
    }
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
