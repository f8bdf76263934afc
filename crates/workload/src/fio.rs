//! FIO-style job descriptions and offset generation.

use draid_core::{IoKind, Layout, UserIo};
use draid_sim::DetRng;

/// A random-access block workload, in FIO's vocabulary: `bs` (I/O size),
/// `rwmixread` (read ratio), `iodepth` (queue depth) over a bounded working
/// set of the virtual device.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FioJob {
    /// Fraction of operations that are reads (`1.0` = read-only).
    pub read_ratio: f64,
    /// Bytes per I/O.
    pub io_size: u64,
    /// Outstanding I/Os (closed loop).
    pub queue_depth: usize,
    /// Size of the region offsets are drawn from; offsets are aligned to
    /// `io_size`.
    pub working_set: u64,
    /// When set, every read targets chunks stored on this member — the
    /// rebuild-style workload of Fig. 17a where *all* reads are degraded.
    pub target_member: Option<usize>,
    /// Workload RNG seed.
    pub seed: u64,
}

impl FioJob {
    /// 100% random reads of `io_size` bytes.
    pub fn random_read(io_size: u64) -> Self {
        Self::mixed(1.0, io_size)
    }

    /// 100% random writes of `io_size` bytes.
    pub fn random_write(io_size: u64) -> Self {
        Self::mixed(0.0, io_size)
    }

    /// A read/write mix (the Fig. 13 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `read_ratio` is outside `[0, 1]` or `io_size` is zero.
    pub fn mixed(read_ratio: f64, io_size: u64) -> Self {
        assert!((0.0..=1.0).contains(&read_ratio), "bad read ratio");
        assert!(io_size > 0, "I/O size must be positive");
        FioJob {
            read_ratio,
            io_size,
            queue_depth: 32,
            working_set: 16 << 30,
            target_member: None,
            seed: 0xF10,
        }
    }

    /// Sets the queue depth (builder style).
    pub fn queue_depth(mut self, qd: usize) -> Self {
        assert!(qd > 0, "queue depth must be positive");
        self.queue_depth = qd;
        self
    }

    /// Sets the working-set size.
    pub fn working_set(mut self, bytes: u64) -> Self {
        assert!(bytes >= self.io_size, "working set smaller than one I/O");
        self.working_set = bytes;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Targets all reads at chunks held by `member` (Fig. 17a rebuild).
    pub fn target_member(mut self, member: usize) -> Self {
        self.target_member = Some(member);
        self
    }

    /// Draws the next I/O.
    pub fn next_io(&self, rng: &mut DetRng, layout: &Layout) -> UserIo {
        let kind = if rng.chance(self.read_ratio) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        let offset = match self.target_member {
            Some(member) if kind == IoKind::Read => self.member_offset(rng, layout, member),
            _ => self.uniform_offset(rng),
        };
        match kind {
            IoKind::Read => UserIo::read(offset, self.io_size),
            IoKind::Write => UserIo::write(offset, self.io_size),
        }
    }

    fn uniform_offset(&self, rng: &mut DetRng) -> u64 {
        let slots = (self.working_set / self.io_size).max(1);
        let mut off = rng.below(slots) * self.io_size;
        // Clamp so the I/O stays inside the working set.
        if off + self.io_size > self.working_set {
            off = self.working_set - self.io_size;
            off -= off % self.io_size.min(off.max(1));
        }
        off
    }

    /// An offset whose first chunk lives on `member` (skipping stripes where
    /// `member` holds parity).
    fn member_offset(&self, rng: &mut DetRng, layout: &Layout, member: usize) -> u64 {
        let stripe_bytes = layout.stripe_data_bytes();
        let stripes = (self.working_set / stripe_bytes).max(1);
        loop {
            let s = rng.below(stripes);
            if let Some(k) = (0..layout.data_chunks()).find(|&k| layout.data_member(s, k) == member)
            {
                let chunk_base = s * stripe_bytes + k as u64 * layout.chunk_size();
                let span = layout.chunk_size().saturating_sub(self.io_size);
                let within = if span == 0 || self.io_size >= layout.chunk_size() {
                    0
                } else {
                    (rng.below(span / self.io_size.min(span).max(1) + 1)) * self.io_size.min(span)
                };
                return chunk_base + within.min(span);
            }
            // `member` holds parity in stripe `s`; try another stripe.
        }
    }
}

/// A stateful stream of I/Os from a [`FioJob`]: owns the RNG. The runners
/// consume jobs through streams so `FioJob` itself stays a plain, copyable
/// description.
#[derive(Clone, Debug)]
pub struct FioStream {
    job: FioJob,
    rng: DetRng,
}

impl FioStream {
    /// Creates a stream seeded from the job.
    pub fn new(job: FioJob) -> Self {
        FioStream {
            rng: DetRng::new(job.seed),
            job,
        }
    }

    /// Draws the next I/O.
    pub fn next_io(&mut self, layout: &Layout) -> UserIo {
        self.job.next_io(&mut self.rng, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draid_core::{ArrayConfig, SystemKind};

    fn layout() -> Layout {
        Layout::new(&ArrayConfig::paper_default(SystemKind::Draid))
    }

    #[test]
    fn offsets_respect_alignment_and_bounds() {
        let job = FioJob::random_write(128 * 1024)
            .working_set(1 << 30)
            .seed(1);
        let mut rng = DetRng::new(job.seed);
        let l = layout();
        for _ in 0..1000 {
            let io = job.next_io(&mut rng, &l);
            assert_eq!(io.offset % job.io_size, 0);
            assert!(io.offset + io.len <= job.working_set);
            assert_eq!(io.kind, IoKind::Write);
        }
    }

    #[test]
    fn read_ratio_respected() {
        let job = FioJob::mixed(0.75, 4096).seed(2);
        let mut rng = DetRng::new(job.seed);
        let l = layout();
        let reads = (0..10_000)
            .filter(|_| job.next_io(&mut rng, &l).kind == IoKind::Read)
            .count();
        assert!((7_000..8_000).contains(&reads), "got {reads}");
    }

    #[test]
    fn member_targeting_hits_only_that_member() {
        let l = layout();
        let job = FioJob::random_read(16 * 1024)
            .working_set(1 << 30)
            .target_member(3)
            .seed(3);
        let mut rng = DetRng::new(job.seed);
        for _ in 0..500 {
            let io = job.next_io(&mut rng, &l);
            let sio = &l.map(io.offset, io.len)[0];
            assert!(sio.segments.iter().all(|s| s.member == 3));
        }
    }

    #[test]
    #[should_panic(expected = "bad read ratio")]
    fn ratio_validated() {
        FioJob::mixed(1.5, 4096);
    }

    #[test]
    fn random_stream_matches_stateless_job() {
        let l = layout();
        let job = FioJob::random_read(16 * 1024).seed(9);
        let mut stream = FioStream::new(job);
        let mut rng = DetRng::new(job.seed);
        for _ in 0..50 {
            let a = stream.next_io(&l);
            let b = job.next_io(&mut rng, &l);
            assert_eq!((a.offset, a.len), (b.offset, b.len));
        }
    }
}
